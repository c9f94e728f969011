"""Formal split vector bundles, rationally twisted, on a product of
projective spaces.

A bundle is a direct sum of line pieces given by integer multidegrees over
the hyperplane classes, together with a rational twist vector delta; the
Chern roots are (line_i + delta) as degree-1 classes.  On these spaces a
degree-1 class is nef exactly when its coordinates are nonnegative, so a
split twisted bundle is nef exactly when every root is coordinatewise
nonnegative.

Schur classes and their shift slices s_lam^(i)(E) take one route: the
e-basis slices of ``schur.derived_chern`` evaluated at the Chern classes,
the Schur class being slice 0.  ``char_class``, a symmetric polynomial
evaluated at the Chern roots, is the independent route.
"""

from fractions import Fraction
from math import comb

from . import kernels
from .cohomology import CohClass, Space, evaluate_terms
from .errors import SpaceMismatchError
from .partitions import Partition
from .rationals import common_denominator, parse_q
from .schur import derived_chern


class SplitBundle:
    """Direct sum of twisted line bundles on a Space."""

    __slots__ = ("space", "lines", "twist")

    def __init__(self, space, lines, twist=None):
        if not isinstance(space, Space):
            raise TypeError("space must be a Space")
        lines = tuple(tuple(int(a) for a in line) for line in lines)
        if not lines:
            raise ValueError("a bundle needs at least one line piece")
        for line in lines:
            if len(line) != space.k:
                raise SpaceMismatchError(
                    f"line multidegree {line} does not match {space!r}"
                )
        if twist is None:
            twist = (0,) * space.k
        twist = tuple(parse_q(c) for c in twist)
        if len(twist) != space.k:
            raise SpaceMismatchError(f"twist {twist} does not match {space!r}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "twist", twist)

    def __setattr__(self, name, value):
        raise AttributeError("SplitBundle is immutable")

    def __reduce__(self):
        return SplitBundle, (self.space, self.lines, self.twist)

    @property
    def rank(self):
        return len(self.lines)

    def root_vectors(self):
        """Chern root coordinate vectors (line + twist), one per line piece."""
        return [
            tuple(a + d for a, d in zip(line, self.twist)) for line in self.lines
        ]

    def chern_roots(self):
        return [CohClass.linear(self.space, v) for v in self.root_vectors()]

    def untwisted(self):
        return SplitBundle(self.space, self.lines)

    def twisted_by(self, delta):
        """The bundle with delta added to the twist (twists compose additively)."""
        delta = tuple(parse_q(c) for c in delta)
        if len(delta) != self.space.k:
            raise SpaceMismatchError("twist vector has the wrong length")
        return SplitBundle(
            self.space,
            self.lines,
            tuple(a + b for a, b in zip(self.twist, delta)),
        )

    def is_nef(self):
        return all(all(c >= 0 for c in v) for v in self.root_vectors())

    def __eq__(self, other):
        return (
            isinstance(other, SplitBundle)
            and self.space == other.space
            and self.lines == other.lines
            and self.twist == other.twist
        )

    __hash__ = None

    def __repr__(self):
        return f"SplitBundle({self.space!r}, lines={list(self.lines)}, twist={list(self.twist)})"

    @classmethod
    def from_json(cls, data, space):
        return cls(space, data["lines"], data.get("twist"))


def class_is_nef(h):
    """Nefness of a degree-1 class: coordinatewise nonnegative."""
    if h.is_zero:
        return True
    if h.homogeneous_degree() != 1:
        raise ValueError("nefness test expects a degree-1 class")
    return all(c >= 0 for c in h.terms.values())


def chern_all(E):
    """Total Chern class as the list [c_0(E), ..., c_rank(E)].

    The roots are those of E_b (``_integral_roots``), so every product is
    over ints; c_p is homogeneous of degree p in the roots, so c_p(E) is
    c_p(E_b) divided once by b^p (``_divide``).  The classes are built as
    packed term dicts, c_p += c_(p-1) * root from the top degree down.
    """
    b, Eb = _integral_roots(E)
    space = E.space
    shifts, bias, guard = space.shifts, space.bias, space.guard
    cs = [{0: 1}]
    for v in Eb.root_vectors():
        root = {1 << s: c for s, c in zip(shifts, v) if c}
        cs.append(kernels.mul_terms_capped(cs[-1], root, bias, guard))
        for p in range(len(cs) - 2, 0, -1):
            kernels.add_scaled(cs[p], kernels.mul_terms_capped(cs[p - 1], root, bias, guard))
    return [CohClass._raw(space, _divide(c, b ** p)) for p, c in enumerate(cs)]


def chern(E, p):
    """p-th Chern class from the root expansion (zero outside 0..rank)."""
    p = int(p)
    if p < 0 or p > E.rank:
        return CohClass.zero(E.space)
    return chern_all(E)[p]


def chern_twist_rule(E, p):
    """p-th Chern class via the twist rule
    sum_k binom(e-k, p-k) c_k(untwisted E) delta^(p-k).

    Agrees exactly with the root expansion; kept as an independent route.
    """
    p = int(p)
    if p < 0 or p > E.rank:
        return CohClass.zero(E.space)
    return chern_twist_rule_all(E)[p]


def chern_twist_rule_all(E):
    """[c_0(E), ..., c_rank(E)] via the twist rule, from one untwisted
    expansion and one table of delta powers."""
    e = E.rank
    base = chern_all(E.untwisted())
    delta = CohClass.linear(E.space, E.twist)
    dpow = [CohClass.unit(E.space)]
    for _ in range(e):
        dpow.append(dpow[-1] * delta)
    out = []
    for p in range(e + 1):
        total = CohClass.zero(E.space)
        for k in range(p + 1):
            total = total + comb(e - k, p - k) * (base[k] * dpow[p - k])
        out.append(total)
    return out


def char_class(p, E):
    """Characteristic class p(E): the symmetric polynomial p at the roots."""
    if p.nvars != E.rank:
        raise ValueError(
            f"polynomial in {p.nvars} variables cannot evaluate a rank-{E.rank} bundle"
        )
    if not p.is_symmetric():
        raise ValueError("characteristic classes need a symmetric polynomial")
    return p.substitute(E.chern_roots())


def _integral_roots(E):
    """(b, E_b): b the common denominator of the twist, and E_b the bundle
    with lines b * line and twist b * delta, whose roots are b times those
    of E and integral."""
    b = common_denominator(E.twist)
    if b > 1:
        E = SplitBundle(E.space, [[b * a for a in line] for line in E.lines],
                        [b * d for d in E.twist])
    return b, E


def schur_class(lam, E):
    """Schur class s_lam(E): slice 0 of the e-basis expansion (``_slices_at``)."""
    return _slices_at(Partition(lam), E, [0])[0]


def derived_schur_classes(lam, E, imax=None):
    """The classes (s_lam^(0)(E), ..., s_lam^(imax)(E)) in one pass.

    Each slice s_lam^(i) is a polynomial in the elementary symmetric
    polynomials (``schur.derived_chern``, once per shape and rank); the
    class puts c_k(E) in place of e_k (``_slices_at``).
    """
    lam = Partition(lam)
    w = lam.weight
    if imax is None:
        imax = w
    imax = min(int(imax), w)
    if imax < 0:
        return []
    if imax == 0:
        return [schur_class(lam, E)]
    return _slices_at(lam, E, range(imax + 1))


def _slices_at(lam, E, indices):
    """[s_lam^(i)(E) for i in indices], each 0 <= i <= |lam|.

    Every slice is zero when lam_1 exceeds the rank, and one of degree
    |lam| - i above dim is zero.  The others are ``schur.derived_chern``
    evaluated at the Chern classes of E_b (``_integral_roots``), so every
    product is over ints; s_lam^(i) is homogeneous of degree |lam| - i in
    the roots, so slice i is divided once by b^(|lam| - i) (``_divide``).
    Callers that only integrate or pair slices ask for those of E_b and
    divide each number instead.
    """
    space = E.space
    if lam.first > E.rank:
        return [CohClass.zero(space) for _ in indices]
    w = lam.weight
    formal = derived_chern(lam, E.rank)
    b, Eb = _integral_roots(E)
    polys = [formal[i] if w - i <= space.dim else {} for i in indices]
    classes = evaluate_terms(polys, chern_all(Eb)[1:])
    return [CohClass._raw(space, _divide(cls.terms, b ** (w - i)))
            for i, cls in zip(indices, classes)]


def _divide(terms, den):
    """The terms divided by the positive int den, each coefficient by one
    exact divmod; a Fraction only where the division is inexact."""
    if den == 1:
        return terms
    out = {}
    for key, c in terms.items():
        q, r = divmod(c, den)
        out[key] = Fraction(c, den) if r else q
    return out


def derived_schur_class(lam, i, E):
    """Single shift-order slice s_lam^(i)(E); zero outside 0 <= i <= |lam|."""
    lam = Partition(lam)
    i = int(i)
    if i < 0 or i > lam.weight:
        return CohClass.zero(E.space)
    return _slices_at(lam, E, [i])[0]
