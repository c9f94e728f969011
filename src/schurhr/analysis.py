"""Theorem-level verifiers: positivity of characteristic numbers, Hodge-index
style inequalities, log-concave sequences, Polya-frequency machinery and
Lorentzian certification.

Everything here is exact; verdicts are booleans or rational numbers, never
floating point.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .bundles import (SplitBundle, _integral_roots, chern_all, class_is_nef,
                      derived_schur_class, derived_schur_classes, schur_class)
from .cohomology import CohClass, Space
from .errors import DegreeMismatchError, ExponentOverflowError, PreconditionError
from .kernels import add_scaled, mul_terms_capped
from .partitions import Partition, dual_in_box
from .polyring import FIELD, MAX_EXP, MultiPoly, _ones, evaluate_many
from .quadforms import inertia, intersection_form
from .rationals import canon, common_denominator, fmt_q, parse_q
from .realroots import has_only_real_roots
from .schur import _taylor_slices, derived_chern, schur_jt

# ---------------------------------------------------------------------------
# sequences


@dataclass(frozen=True)
class Sequence:
    """Finite rational sequence with a provenance label."""

    values: tuple
    provenance: str = ""
    start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(parse_q(v) for v in self.values))

    def to_json(self):
        return {
            "values": [fmt_q(v) for v in self.values],
            "provenance": self.provenance,
            "start": self.start,
        }


def log_concavity_violations(seq):
    """Interior indices where a[i-1] * a[i+1] > a[i]^2, or a negativity flag."""
    vals = seq.values if isinstance(seq, Sequence) else tuple(seq)
    bad = [("negative", i) for i, v in enumerate(vals) if v < 0]
    if bad:
        return bad
    return [
        ("log-concavity", i)
        for i in range(1, len(vals) - 1)
        if vals[i - 1] * vals[i + 1] > vals[i] * vals[i]
    ]


def is_log_concave(seq):
    """Nonnegative and a[i-1] * a[i+1] <= a[i]^2 at every interior index."""
    return not log_concavity_violations(seq)


def is_ultra_log_concave(values):
    """Newton's strengthening for length e+1: the sequence a_i / binom(e, i)
    is log-concave (implies plain log-concavity for binomial-type data)."""
    vals = [parse_q(v) for v in values]
    e = len(vals) - 1
    return is_log_concave([Fraction(v, comb(e, i)) for i, v in enumerate(vals)])


# ---------------------------------------------------------------------------
# hypotheses of the theorems, one check each


def _nef_space(*bundles):
    """The space that every bundle lives on; each must be nef."""
    space = bundles[0].space
    if any(E.space != space for E in bundles):
        raise PreconditionError("bundles live on different spaces")
    if not all(E.is_nef() for E in bundles):
        raise PreconditionError("bundle is not nef")
    return space


def _check_nef_class(h):
    if not class_is_nef(h):
        raise PreconditionError("h is not nef")


def _check_weight(lam, want, label):
    if lam.weight != want:
        raise DegreeMismatchError(f"|lam| = {lam.weight}, expected {label} = {want}")


def _nonnegative_points(*points):
    """Each point parsed to rationals; all must be coordinatewise nonnegative."""
    points = [[parse_q(v) for v in x] for x in points]
    if any(v < 0 for x in points for v in x):
        noun = "points" if len(points) > 1 else "point"
        raise PreconditionError(f"{noun} must be coordinatewise nonnegative")
    return points


def _nonnegative_entries(mus):
    """The sequence parsed to rationals; every entry must be nonnegative."""
    mus = tuple(parse_q(v) for v in mus)
    if any(v < 0 for v in mus):
        raise PreconditionError("entries must be nonnegative")
    return mus


def _lorentzian_degree(p):
    """The degree d of a nonzero homogeneous p; a Lorentzian test needs d >= 2."""
    if p.is_zero:
        raise PreconditionError("the polynomial is zero")
    d = p.homogeneous_degree()
    if d < 2:
        raise PreconditionError("need a homogeneous polynomial of degree >= 2")
    return d


def _check_alpha(alpha, e, total):
    """alpha as a tuple of e nonnegative ints summing to total."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != e or any(a < 0 for a in alpha):
        raise PreconditionError(f"alpha must be {e} nonnegative integers")
    if sum(alpha) != total:
        raise DegreeMismatchError(f"|alpha| = {sum(alpha)}, expected {total}")
    return alpha


# ---------------------------------------------------------------------------
# positivity of characteristic numbers


def fl_positivity(E, lam, i):
    """Integral of the i-th shift slice of the Schur class of a nef bundle:
    the one-factor ``monomial_positivity``.

    Requires |lam| = dim + i; the value is guaranteed nonnegative for nef
    input, but the caller does the asserting.
    """
    lam = Partition(lam)
    _check_weight(lam, _nef_space(E).dim + int(i), "dim + i")
    return _integral([E], [lam], [int(i)])


def monomial_positivity(bundles, lams, orders):
    """Integral of a product of derived Schur classes of nef bundles.

    The factors are the slices of the bundles E_b (``bundles._integral_roots``),
    multiplied over the ints; the integral is divided once by the product
    of the b^(|lam| - i).
    """
    if not bundles:
        raise ValueError("need at least one bundle")
    space = _nef_space(*bundles)
    lams = [Partition(l) for l in lams]
    orders = [int(i) for i in orders]
    if not len(bundles) == len(lams) == len(orders):
        raise ValueError("bundles, partitions and orders must align")
    total_deg = sum(l.weight - i for l, i in zip(lams, orders))
    if total_deg != space.dim:
        raise DegreeMismatchError(
            f"total degree {total_deg} does not match dim {space.dim}"
        )
    return _integral(bundles, lams, orders)


def _integral(bundles, lams, orders):
    """``monomial_positivity`` once its inputs are checked."""
    prod, den = None, 1
    for E, lam, i in zip(bundles, lams, orders):
        b, Eb = _integral_roots(E)
        factor = derived_schur_class(lam, i, Eb)
        prod = factor if prod is None else prod * factor
        if prod.is_zero:  # also where i is outside 0..|lam|
            break
        den *= b ** (lam.weight - i)
    return _divided(prod.integrate(), den)


def _divided(v, den):
    """The int v divided by the positive int den, in canonical form."""
    return v if den == 1 else canon(Fraction(v, den))


# ---------------------------------------------------------------------------
# Hodge-index style inequalities


@dataclass(frozen=True)
class InequalityResult:
    lhs: object
    rhs: object
    ok: bool


def hodge_index_check(omega, alpha, beta):
    """int a^2 O * int b^2 O <= (int a b O)^2 for weak-HR O and int b^2 O >= 0."""
    if not inertia(intersection_form(omega)).is_weak_hr:
        raise PreconditionError("form does not have the weak one-positive-eigenvalue shape")
    bo = beta * omega
    bb = bo.pairing(beta)
    if bb < 0:
        raise PreconditionError("need int beta^2 omega >= 0")
    ao = alpha * omega
    aa = ao.pairing(alpha)
    ab = ao.pairing(beta)
    lhs = canon(aa * bb)
    rhs = canon(ab * ab)
    return InequalityResult(lhs, rhs, lhs <= rhs)


def schur_hodge_improved_check(E, h, lam, alpha):
    """The sharpened two-term inequality for a nef bundle and nef h:

    int a^2 s'(E) * int h s(E)  <=  2 * int a h s'(E) * int a s(E)

    with s the Schur class of lam (|lam| = dim - 1) and s' its first shift
    slice.
    """
    lam = Partition(lam)
    _check_weight(lam, E.space.dim - 1, "dim - 1")
    _nef_space(E)
    _check_nef_class(h)
    classes = derived_schur_classes(lam, E, imax=1)
    s0, s1 = classes[0], classes[1]
    lhs = canon((alpha * alpha).pairing(s1) * h.pairing(s0))
    rhs = canon(2 * (alpha * h).pairing(s1) * alpha.pairing(s0))
    return InequalityResult(lhs, rhs, lhs <= rhs)


# ---------------------------------------------------------------------------
# Khovanskii-Tessier style sequences


def kt_sequence(E, F, lam, mu):
    """i -> int s_lam^(|lam|+|mu|-dim-i)(E) * s_mu^(i)(F) over its support.

    The slices are those of E_b and F_b (``bundles._integral_roots``),
    paired over the ints; each value is divided once by
    b^(|lam| - j) * c^(|mu| - i), b and c the twist denominators of E and F.
    """
    lam, mu = Partition(lam), Partition(mu)
    d = _nef_space(E, F).dim
    if lam.weight + mu.weight < d:
        raise PreconditionError(
            f"|lam| + |mu| = {lam.weight + mu.weight} must be at least dim = {d}"
        )
    top = lam.weight + mu.weight - d
    lo = max(0, mu.weight - d)
    hi = min(mu.weight, top)
    b, Eb = _integral_roots(E)
    c, Fb = _integral_roots(F)
    sE = derived_schur_classes(lam, Eb, top - lo)  # only the slices read below
    sF = derived_schur_classes(mu, Fb, hi)
    values = []
    for i in range(lo, hi + 1):
        j = top - i
        den = b ** (lam.weight - j) * c ** (mu.weight - i)
        values.append(_divided(sE[j].pairing(sF[i]), den))
    return Sequence(tuple(values), provenance="kt", start=lo)


def chern_power_sequence(E, h):
    """i -> int c_i(E) h^(dim - i), the rank-one-direction special case."""
    d = _nef_space(E).dim
    _check_nef_class(h)
    cs = chern_all(E)
    values = []
    hp = [CohClass.unit(E.space)]
    for _ in range(d):
        hp.append(hp[-1] * h)
    for i in range(min(E.rank, d) + 1):
        values.append(cs[i].pairing(hp[d - i]))
    return Sequence(tuple(values), provenance="chern-powers", start=0)


def derived_value_sequence(lam, x):
    """i -> s_lam^(i)(x) at a nonnegative rational point."""
    lam = Partition(lam)
    [x] = _nonnegative_points(x)
    return Sequence(_slice_values(lam, x, 0, lam.weight), provenance="derived-values")


def pair_value_sequence(lam, mu, d, x, y):
    """i -> s_lam^(|lam|+|mu|-d+i)(x) * s_mu^(i)(y) over its support."""
    lam, mu = Partition(lam), Partition(mu)
    d = int(d)
    if d > lam.weight + mu.weight:
        raise PreconditionError("need d <= |lam| + |mu|")
    x, y = _nonnegative_points(x, y)
    shift = lam.weight + mu.weight - d
    lo = max(0, -shift)
    hi = min(mu.weight, lam.weight - shift)
    if hi < lo:
        return Sequence((), provenance="pair-values", start=0)
    vx = _slice_values(lam, x, shift + lo, shift + hi)
    vy = _slice_values(mu, y, lo, hi)
    values = tuple(canon(u * v) for u, v in zip(vx, vy))
    return Sequence(values, provenance="pair-values", start=lo)


def _slice_values(lam, x, lo, hi):
    """(s_lam^(lo)(x), ..., s_lam^(hi)(x)) off the e-basis slices of
    ``schur.derived_chern``.  With b the common denominator of x, slice i
    is weighted homogeneous of degree |lam| - i, so at the integers
    e_k(b * x) it is b^(|lam| - i) times its value at x."""
    b, e = common_denominator(x), len(x)
    ek = [1]  # the coefficients of prod(1 + b x_j t), e_0 first
    for n in (v.numerator * (b // v.denominator) for v in x):
        ek = [u + n * w for u, w in zip(ek + [0], [0] + ek)]
    slices = [MultiPoly._raw(e, t) for t in derived_chern(lam, e)[lo:hi + 1]]
    return [canon(Fraction(v, b ** (lam.weight - i)))
            for i, v in enumerate(evaluate_many(slices, ek[1:]), lo)]


# ---------------------------------------------------------------------------
# Polya frequency machinery


def _int_values(values):
    """Clear denominators (positive scaling preserves every minor sign)."""
    den = common_denominator(values)
    return [int(v * den) for v in values]


def _virtual_h(mu, depth):
    """Integer multiples of the formal inverse-series coefficients of mu.

    Treating mu as elementary-symmetric values e_i, this is h_m scaled by
    mu_0^m: the sign pattern of the virtual complete homogeneous sequence.
    """
    mu0 = mu[0]
    coef = [None] + [(-1) ** (i - 1) * mu[i] * mu0 ** (i - 1) for i in range(1, len(mu))]
    g = [1]
    for m in range(1, depth + 1):
        s = 0
        for i in range(1, min(m, len(mu) - 1) + 1):
            s += coef[i] * g[m - i]
        g.append(s)
    return g


def _laplace_tables(rows):
    """Expansion tables for growing minors one row at a time.

    ``tables[m][s]`` lists ``(column, sign, t)`` for the s-th (m+1)-subset of
    the columns ``range(rows)`` (lexicographic, so s = 0 is the leading
    subset): Laplace along row m pairs each of its columns with the m-subset
    number t of the remaining ones.
    """
    combos = [list(itertools.combinations(range(rows), m)) for m in range(rows + 1)]
    index = [{c: t for t, c in enumerate(cs)} for cs in combos]
    return [
        [[(c, -1 if (m + p) % 2 else 1, index[m][cols[:p] + cols[p + 1:]])
          for p, c in enumerate(cols)]
         for cols in combos[m + 1]]
        for m in range(rows)
    ]


def _first_negative_shape(g, rows, width_cap):
    """First shape, of 2..rows rows and width <= width_cap, whose dual
    Jacobi-Trudi determinant det(g[lam_i - i + j]) is negative, or None.

    Row i of that matrix depends only on (lam_i, i), so one depth-first walk
    over lam_1 >= lam_2 >= ... >= 1 shares every prefix: at depth m it holds
    the minors of the first m rows on every m-subset of the columns
    ``range(rows)``, and one Laplace step along the next row extends them.  A
    shape's determinant is the leading minor of its rows; padding it with zero
    parts changes nothing (a padded row i is g[j - i], zero left of the
    diagonal and g[0] = 1 on it).  Shapes are visited parent before children,
    widest part first.
    """
    tables = _laplace_tables(rows)
    # the row at offset off = lam_i - i, for every offset the walk reaches
    shifted = {off: [g[off + j] if off + j >= 0 else 0 for j in range(rows)]
               for off in range(1 - rows, width_cap + 1)}
    lam = []

    def walk(m, prev, top):
        last = m + 1 == rows
        # deeper rows need every subset; the last only the leading one
        tab = tables[m][:1] if last else tables[m]
        for w in range(top, 0, -1):
            r = shifted[w - m]
            cur = []
            for terms in tab:  # Laplace along r
                total = 0
                for c, sign, t in terms:
                    x = r[c]
                    if x:
                        y = prev[t]
                        if y:
                            total += x * y if sign > 0 else -x * y
                cur.append(total)
            lam.append(w)
            if m and cur[0] < 0:
                return tuple(lam)
            if not last:
                found = walk(m + 1, cur, w)
                if found:
                    return found
            lam.pop()
        return None

    return walk(0, [1], width_cap)


# The longest sequence polya_check_minors takes, and the bounds of its
# virtual-Schur search: the widest shape and the depth to which the
# single-row entries are checked.  The width cap must stay >= the length cap:
# the square-window minors are covered only because every shape of width
# <= len(mu) is walked.
POLYA_LENGTH_CAP = 8
POLYA_WIDTH_CAP = 12
POLYA_H_CAP = 60


def polya_check_minors(mus):
    """Total nonnegativity of the Toeplitz matrix of the sequence.

    After trimming zeros and clearing denominators (positive scalings keep
    every sign), read mu as the elementary symmetric values e_i of virtual
    variables x_1..x_n, n = len(mu) - 1.  A minor of the zero-extended
    Toeplitz matrix (mu[i - j]) is then a positive multiple of a skew Schur
    function s_{kappa/rho}(x), and by the Littlewood-Richardson rule
    s_{kappa/rho} = sum c_nu s_nu with c_nu >= 0 and nu inside kappa, so the
    straight shapes decide.  s_nu vanishes past n rows (e_k = 0 for k > n);
    only the width is bounded.  Single rows are the virtual h sequence
    (``_virtual_h``), checked POLYA_H_CAP + len(mu) + 2 deep; shapes of
    2..n rows and width <= POLYA_WIDTH_CAP go through one walk,
    ``_first_negative_shape``.

    Two checks that a direct reading would add need no walk of their own:

    * The square window (mu[i - j]), i, j < len(mu).  Its minor of size m is
      s_{kappa/rho} with kappa_1 <= m, so every nu it expands into has
      nu_1 <= len(mu) <= POLYA_LENGTH_CAP <= POLYA_WIDTH_CAP and at most n
      rows: the walk visits them all.
    * The reversed sequence, which is a frequency sequence exactly when mu
      is.  Its variables are 1/x, and s_nu(1/x) (x_1...x_n)^N = s_nubar(x),
      with nubar the complement of nu in the n x N box, N = nu_1 (an identity
      in e_1..e_n and 1/e_n, so it holds for virtual x).  As x_1...x_n =
      mu_n / mu_0 > 0, the reversed determinant at nu has the sign of the
      forward one at nubar, which is no wider than nu: inside the walked
      family.  The reversed single rows are the exception: they run deeper
      than the width cap, and their complements are rectangles that wide.
      So the reversed h sequence is still checked, to the same depth.

    Length is capped at POLYA_LENGTH_CAP; the root-counting route has no cap.
    """
    mus = _nonnegative_entries(mus)
    if len(mus) > POLYA_LENGTH_CAP:
        raise PreconditionError(
            f"minor test is capped at sequence length {POLYA_LENGTH_CAP}")
    vals = _int_values(mus)
    while vals and vals[0] == 0:
        vals.pop(0)
    while vals and vals[-1] == 0:
        vals.pop()
    if len(vals) <= 1:
        return True
    L = len(vals)
    depth = POLYA_H_CAP + L + 2
    g = _virtual_h(vals, depth)
    if any(x < 0 for x in g) or any(x < 0 for x in _virtual_h(vals[::-1], depth)):
        return False
    return _first_negative_shape(g, L - 1, POLYA_WIDTH_CAP) is None


def polya_check_roots(mus):
    """Real-rootedness of the generating polynomial (roots are automatically
    nonpositive when the coefficients are nonnegative)."""
    return has_only_real_roots(_nonnegative_entries(mus))


def polya_combination_class(lam, E, h, mus):
    """sum_i mu_i s_lam^(i)(E) h^i for |lam| = dim - 2."""
    lam = Partition(lam)
    _check_weight(lam, E.space.dim - 2, "dim - 2")
    _nef_space(E)
    _check_nef_class(h)
    mus = _nonnegative_entries(mus)
    derived = derived_schur_classes(lam, E)
    total = CohClass.zero(E.space)
    hp = CohClass.unit(E.space)
    for i, c in enumerate(mus):
        if i > lam.weight:
            break
        if c:
            total = total + (derived[i] * hp).scale(c)
        if i < len(mus) - 1:
            hp = hp * h
    return total


# ---------------------------------------------------------------------------
# the product-of-projective-planes convex mix example


def p2p3_convex_example(t):
    """The rank-3 bundle O(1,0) + O(1,0) + O(0,1) on P^2 x P^3, mixing the
    top Chern class with the full column Schur class.

    For t strictly between 0 and 1/2 the form gains a second positive
    eigenvalue, so convex mixes do not stay in the one-positive-eigenvalue
    cone.
    """
    t = parse_q(t)
    space = Space([2, 3])
    E = SplitBundle(space, [(1, 0), (1, 0), (0, 1)])
    mat = intersection_form(
        schur_class((3,), E).scale(1 - t) + schur_class((1, 1, 1), E).scale(t)
    )
    expected = ((t, 2 * t), (2 * t, 1 + 2 * t))
    return {"matrix": mat, "matches_closed_form": mat == expected}


def twisted_schur_form(E, lam, h_coeffs, t):
    """Intersection form of s_lam(E twisted by t * h), for nef E, ample h and
    t >= 0; for t > 0 the twisted bundle is ample and the form is HR."""
    _nef_space(E)
    h = CohClass.linear(E.space, h_coeffs)
    _check_nef_class(h)
    if len(h.terms) < E.space.k:  # ample: a positive coefficient on every factor
        raise PreconditionError("h is not ample")
    t = parse_q(t)
    if t < 0:
        raise PreconditionError("t must be nonnegative")
    delta = [t * parse_q(c) for c in h_coeffs]
    return intersection_form(schur_class(lam, E.twisted_by(delta)))


# ---------------------------------------------------------------------------
# Lorentzian certification


@dataclass(frozen=True)
class LorentzianReport:
    ok: bool
    mode: str
    epsilon: object = None
    nonpositive_coefficients: tuple = field(default_factory=tuple)
    bad_hessians: tuple = field(default_factory=tuple)

    def to_json(self):
        return {
            "ok": self.ok,
            "mode": self.mode,
            "epsilon": None if self.epsilon is None else fmt_q(self.epsilon),
            "nonpositive_coefficients": [list(e) for e in self.nonpositive_coefficients],
            "bad_hessians": [
                {"alpha": list(a), "inertia": t.to_json()} for a, t in self.bad_hessians
            ],
        }


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _strict_report(p, mode, epsilon):
    # a positive scaling keeps every coefficient sign and every inertia, and
    # this one leaves integers for the Hessians below
    p = p.scale(common_denominator(p.terms.values()))
    d, e = _lorentzian_degree(p), p.nvars
    # a degree-d monomial that is not stored has coefficient zero
    positive = {mu for mu, c in p.exps_terms().items() if c > 0}
    bad_coeffs = tuple(sorted(mu for mu in _compositions(d, e) if mu not in positive))
    bad_h = []
    for alpha in _compositions(d - 2, e):
        t = inertia(p.hessian_of_partial(alpha))
        if not t.is_hr:
            bad_h.append((alpha, t))
    return LorentzianReport(
        ok=not bad_coeffs and not bad_h,
        mode=mode,
        epsilon=epsilon,
        nonpositive_coefficients=bad_coeffs[:16],
        bad_hessians=tuple(bad_h[:16]),
    )


def _epsilon_shift(q, epsilon, box):
    """(s, m): s = m * q(x + epsilon * S), S = x_1 + ... + x_e, without its
    terms outside [0, box]^e (q is inside), s integral and m a positive int.

    With epsilon = a/b, q of degree d, c the lcm of its denominators and
    Q_k = D^k(c * q) / k! (``schur._taylor_slices``), m = c * b^d and

        m * q(x + epsilon * S) = (c * q)(b * x + a * S) = sum_k (a*S)^k * b^(d-k) * Q_k,

    summed over the integers by Horner in a*S, each step a capped multiply
    (exponents only rise: what leaves the box stays out); a box past MAX_EXP
    raises.
    """
    a, b = epsilon.numerator, epsilon.denominator
    e, d = q.nvars, q.homogeneous_degree()
    c = common_denominator(q.terms.values())
    slices = _taylor_slices(q.scale(c).terms, e, d)
    step = {1 << FIELD * j: a for j in range(e)} if a else {}  # never 0 * x_j
    if step and d > 0 and box > MAX_EXP:
        raise ExponentOverflowError(f"box {box} is past {MAX_EXP}")
    ones, acc = _ones(e), slices[d]
    cap = (MAX_EXP - box) * ones, ones << FIELD - 1  # past the box: a top bit
    for k in range(d - 1, -1, -1):
        acc = mul_terms_capped(acc, step, *cap)
        add_scaled(acc, slices[k], b ** (d - k))
    return MultiPoly._raw(e, acc), c * b ** d


def lorentzian_witness(p, epsilon):
    """Strictly-Lorentzian candidate converging to p as epsilon -> 0.

    Un-normalize, mirror in the box of side max(vars, degree), shift every
    variable by epsilon times the variable sum, dropping the terms outside
    the box (they never enter the quadratic slices), mirror back, normalize.  The shift runs over the
    integers (``_epsilon_shift`` says how), and so does the normalization of
    its mirror times d!, as mu! divides d!; one division by d! * m ends it.
    """
    epsilon = parse_q(epsilon)
    d = _lorentzian_degree(p)
    box = max(p.nvars, d)
    s, m = _epsilon_shift(p.denormalize().box_reverse(box), epsilon, box)
    w = s.box_reverse(box).scale(factorial(d)).normalize()  # d!/mu! * s_mu
    return w.scale(Fraction(1, factorial(d) * m))


def lorentzian_check(p, mode="strict", epsilon=Fraction(1, 100)):
    """Strict test of p itself, or of the epsilon-perturbed witness.

    Strictly Lorentzian follows Branden-Huh, *Lorentzian polynomials*
    (arXiv:1902.03719): every coefficient of degree d is positive, a missing
    monomial counting as a zero coefficient, and every Hessian of a
    (d-2)-th partial has exactly one positive and no zero eigenvalue.
    """
    if mode == "strict":
        return _strict_report(p, "strict", None)
    if mode == "perturbed":
        epsilon = parse_q(epsilon)
        return _strict_report(lorentzian_witness(p, epsilon), "perturbed", epsilon)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# the coefficient-extraction bridge


def lemma_bridge_check(p, eprime, alpha):
    """Hessian of the alpha-partial of the normalization of p versus the
    coefficient matrix of the box mirror: exact entrywise equality of

        hessian(d^alpha N(p))  and  ([q x_i x_j]_beta)_{i,j}

    with q the mirror of p in the box of side eprime and beta = eprime - alpha.
    """
    d = _lorentzian_degree(p)
    alpha = _check_alpha(alpha, p.nvars, d - 2)
    eprime = int(eprime)
    if eprime < max(p.per_variable_degrees(), default=0):
        raise PreconditionError("eprime must bound every per-variable degree")
    q = p.box_reverse(eprime)
    beta = [eprime - a for a in alpha]
    return p.normalize().hessian_of_partial(alpha) == q.coefficient_matrix(beta)


def hessian_vs_intersection(lam, e, N, alpha, epsilon):
    """The geometric side of the Lorentzian argument, checked exactly.

    Builds the product of projective spaces with factor dimensions N - alpha_j,
    the rank-e sum of the factor hyperplane bundles twisted by epsilon times
    the total hyperplane class, and compares the intersection form of the
    box-dual Schur class against the Hessian of the corresponding
    alpha-partial of the normalized perturbed mirror polynomial.  The
    perturbation is the integer epsilon-shift of ``lorentzian_witness``.
    """
    lam = Partition(lam)
    e, N = int(e), int(N)
    epsilon = parse_q(epsilon)
    if not (lam.first <= e <= N):
        raise PreconditionError("need lam_1 <= e <= N")
    if lam.length > N:
        raise PreconditionError(f"partition needs more than {N} rows")
    alpha = _check_alpha(alpha, e, lam.weight - 2)
    beta = tuple(N - a for a in alpha)
    if any(b < 1 for b in beta):
        raise PreconditionError("every N - alpha_j must be at least 1")

    bar = dual_in_box(lam, e, N)
    s, m = _epsilon_shift(schur_jt(bar, e), epsilon, N)
    p_eps = s.scale(Fraction(1, m)).box_reverse(N)
    hess = p_eps.normalize().hessian_of_partial(alpha)

    space = Space(beta)
    lines = [tuple(1 if i == j else 0 for i in range(e)) for j in range(e)]
    bundle = SplitBundle(space, lines, (epsilon,) * e)
    form = intersection_form(schur_class(bar, bundle), space)
    return hess == form
