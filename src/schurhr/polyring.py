"""Sparse multivariate polynomials over exact rationals.

Coefficients are int or Fraction, never float and never stored when zero.
A monomial is one packed int (Monagan and Pearce, CASC 2007): exponent j in
the FIELD bits from bit FIELD*j, the top one a guard, so adding keys adds
exponents, and one past MAX_EXP, built or multiplied, raises
``ExponentOverflowError``.  ``schur.derived_chern`` packs its e-basis slices
the same way.  The canonical term order is graded lexicographic
(descending), used for serialization and printing.
"""

import itertools
from fractions import Fraction
from functools import reduce
from math import factorial, prod
from operator import or_

from . import kernels
from .errors import DegreeMismatchError, ExponentOverflowError
from .rationals import canon, common_denominator, parse_q

FIELD = 8
MASK = (1 << FIELD) - 1
MAX_EXP = MASK >> 1


def _pack(exps):
    """The key of an exponent tuple."""
    key = 0
    for x in reversed(exps):
        if not 0 <= x <= MAX_EXP:
            raise ExponentOverflowError(f"exponent {x} does not fit {FIELD - 1} bits")
        key = key << FIELD | x
    return key


def _unpack(key, n):
    return tuple([key >> s & MASK for s in range(0, FIELD * n, FIELD)])


def _ones(n):
    """The key of (1, ..., 1) in n variables."""
    return ((1 << FIELD * n) - 1) // MASK


def _fit(terms, n):
    """terms, keyed in n variables, unless a field holds an exponent past
    MAX_EXP (and below 2^FIELD), which sets its guard bit: then
    ``ExponentOverflowError``."""
    if reduce(or_, terms, 0) & _ones(n) << FIELD - 1:
        raise ExponentOverflowError(f"an exponent is above {MAX_EXP}")
    return terms


class MultiPoly(kernels.TermElement):
    """Immutable sparse polynomial in a fixed number of variables.

    The ring is the variable count, ``nvars``; arithmetic, printing and
    JSON come from ``kernels.TermElement``.
    """

    __slots__ = ("_degree",)
    nvars = kernels.TermElement.ring  # the ring slot, under this class's name
    _mismatch = ValueError
    _letter = "x"

    @staticmethod
    def _shape(nvars):
        nvars = variable_count(nvars)
        return nvars, nvars, None

    def _mul(self, a, b):
        # an exponent sum past MAX_EXP sets its field's guard bit, no higher one
        return _fit(kernels.mul_terms(a, b), self.nvars)

    _key = staticmethod(_pack)

    def _exps(self, key):
        return _unpack(key, self.nvars)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, nvars):
        return cls.constant(1, nvars)

    @classmethod
    def variable(cls, j, nvars):
        if not 0 <= j < nvars:
            raise ValueError(f"variable index {j} out of range for {nvars} variables")
        return cls._raw(nvars, {1 << FIELD * j: 1})

    def homogeneous_degree(self):
        """``TermElement.homogeneous_degree``, computed once per polynomial."""
        try:
            return self._degree
        except AttributeError:
            object.__setattr__(self, "_degree", super().homogeneous_degree())
            return self._degree

    def per_variable_degrees(self):
        """Tuple of max exponents per variable (zeros for the zero poly)."""
        if not self.terms:
            return (0,) * self.nvars
        return tuple(map(max, zip(*map(self._exps, self.terms))))

    # -- the operators used by the verifiers --------------------------------

    def evaluate(self, point):
        """Exact value at a rational point (``evaluate_many``)."""
        return evaluate_many([self], point)[0]

    def substitute(self, replacements):
        """Simultaneous substitution; one replacement per variable.

        The replacements are elements of one ring of ``kernels.TermElement``
        (polynomials in some variable count, or classes of one truncated
        cohomology ring), and the result is an element of that ring, with
        canonical coefficients.

        The evaluation is a multivariate Horner scheme, in the order of the
        variables.  Write p = sum over k of x_1^k * p_k(x_2, ...), where
        k_1 > k_2 > ... > k_m are the exponents of x_1 that occur; then

            p(r) = (...(p_k1(r')·r_1^(k1 - k2) + p_k2(r'))·... + p_km(r'))·r_1^km,

        with r' the later replacements, at which each p_k is evaluated the
        same way.  Every multiply is the accumulator times one replacement,
        and a power r_j^k is k multiplies by r_j.  ``schur.schur_jt`` puts
        the elementary symmetric polynomials into its determinant in
        c_1, ..., c_e this way.  It is not the monomial tree of
        ``cohomology.evaluate_terms``: a substitute by that tree made the
        ``symbolic`` benchmark slower (wall_s 0.049 to 0.055 s, lower in 0
        of 6 paired runs on 2 cores, Python 3.11).
        """
        replacements = list(replacements)
        if len(replacements) != self.nvars:
            raise ValueError(
                f"need {self.nvars} replacements, got {len(replacements)}"
            )
        if not replacements:
            return self
        first = replacements[0]
        for r in replacements:
            first._check_ring(r)
        mul = first._mul
        reps = [r.terms for r in replacements]
        (unit,) = first.constant(1, first.ring).terms

        def horner(terms, j):
            # the sum of the (exponents, coeff) pairs at the replacements,
            # reading the exponents from position j on
            if j == len(reps):
                return {unit: terms[0][1]}  # one term: the exponents are distinct
            groups, shift = {}, FIELD * j
            for t in terms:
                groups.setdefault(t[0] >> shift & MASK, []).append(t)
            degs = sorted(groups, reverse=True)
            acc = horner(groups[degs[0]], j + 1)
            for hi, k in zip(degs, degs[1:]):
                for _ in range(hi - k):
                    acc = mul(acc, reps[j])
                kernels.add_scaled(acc, horner(groups[k], j + 1))
            for _ in range(degs[-1]):
                acc = mul(acc, reps[j])
            return acc

        acc = horner(list(self.terms.items()), 0) if self.terms else {}
        return first._raw(first.ring, first._canonical(acc))

    def normalize(self):
        """Divide each coefficient by the factorial of its exponent vector."""
        out = {}
        for e, c in self.terms.items():
            f = _exps_factorial(self._exps(e))
            q, r = divmod(c, f)
            out[e] = Fraction(c, f) if r else q
        return MultiPoly._raw(self.nvars, out)

    def denormalize(self):
        """Inverse of normalize: multiply coefficients by exponent factorials."""
        return MultiPoly._raw(
            self.nvars,
            {e: canon(c * _exps_factorial(self._exps(e))) for e, c in self.terms.items()})

    def box_reverse(self, eprime):
        """Mirror exponents inside the box [0, eprime]^nvars.

        The result q satisfies q(x) = x1^eprime * ... * xe^eprime * p(1/x);
        requires eprime to bound every per-variable degree, and is an
        involution whenever that holds.
        """
        eprime = int(eprime)
        degs = self.per_variable_degrees()
        if any(d > eprime for d in degs):
            raise ValueError(
                f"box size {eprime} is below a per-variable degree {max(degs)}"
            )
        # eprime in every field, so no field of a key borrows; a box past MASK
        # mirrors every exponent past MAX_EXP, and so does MASK itself
        top = min(eprime, MASK) * _ones(self.nvars)
        return MultiPoly._raw(
            self.nvars, _fit({top - e: c for e, c in self.terms.items()}, self.nvars))

    def hessian_of_partial(self, alpha):
        """Symmetric matrix M of the quadratic form d^alpha p = (1/2) x^T M x.

        Requires p homogeneous of degree d and |alpha| = d - 2.  M is read off
        the coefficients: M_ij = gamma! * p_gamma, gamma = alpha + e_i + e_j
        (``symbolic``'s 18 strict reports: 13 ms, not 26 ms by partials).
        """
        d = self.homogeneous_degree()
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.nvars:
            raise ValueError(f"alpha has length {len(alpha)}, expected {self.nvars}")
        if any(a < 0 for a in alpha):
            raise ValueError("alpha entries must be nonnegative")
        if d >= 0 and sum(alpha) != d - 2:
            raise DegreeMismatchError(
                f"|alpha| = {sum(alpha)} but the polynomial has degree {d}"
            )
        e = self.nvars
        if max(alpha, default=0) > MAX_EXP:  # every gamma too: none is stored
            return ((0,) * e,) * e
        f, base = _exps_factorial(alpha), _pack(alpha)
        mat = [[0] * e for _ in range(e)]
        for i in range(e):
            for j in range(i, e):
                # alpha_i + 2 past MAX_EXP sets a guard bit: a key never stored
                c = self.terms.get(base + (1 << FIELD * i) + (1 << FIELD * j))
                if c:  # gamma! = alpha! * (alpha_i + 1) * gamma_j
                    gamma_j = alpha[j] + 1 + (i == j)
                    mat[i][j] = mat[j][i] = canon(c * f * (alpha[i] + 1) * gamma_j)
        return tuple(tuple(row) for row in mat)

    def is_symmetric(self):
        """Exact symmetry test: p is fixed by swapping x_1 and x_2 and by
        the cycle x_1 -> x_2 -> ... -> x_n -> x_1, which generate all
        permutations of the variables."""
        if self.nvars < 2:
            return True
        terms, top = self.terms, FIELD * (self.nvars - 1)
        # moving a_1 - a_2 from field 1 to field 2 adds (a_1 - a_2) * (2^FIELD - 1)
        swapped = {e + ((e & MASK) - (e >> FIELD & MASK)) * MASK: c for e, c in terms.items()}
        cycled = {e >> FIELD | (e & MASK) << top: c for e, c in terms.items()}
        return swapped == terms == cycled


def evaluate_many(polys, point):
    """Exact values of polynomials in one variable count at one rational point.

    With b the common denominator of the point, x = n / b for integers n, and
    a polynomial of degree D has the value sum of c_e * n^e * b^(D - |e|)
    over its terms, divided by b^D once: the sum runs over the integers when
    the coefficients are integers.
    """
    point = [parse_q(x) for x in point]
    b = common_denominator(point)
    nums = [x.numerator * (b // x.denominator) for x in point]
    out = []
    for p in polys:
        if len(point) != p.nvars:
            raise ValueError(f"point has length {len(point)}, expected {p.nvars}")
        total = deg = 0  # total is b^deg times the sum of the terms so far
        for key, c in p.terms.items():
            e = _unpack(key, p.nvars)
            v, s = c * prod(map(pow, nums, e)), sum(e)
            if s > deg:
                total, deg = total * b ** (s - deg), s
            total += v * b ** (deg - s)
        out.append(canon(Fraction(total, b ** deg)) if b > 1 else canon(total))
    return out


def _exps_factorial(exps):
    """x_1! * ... * x_n! for an exponent vector."""
    return prod(map(factorial, exps))


def variable_count(e):
    """e as an int: the one check that a variable count is not negative."""
    e = int(e)
    if e < 0:
        raise ValueError("variable count must be nonnegative")
    return e


def elementary(i, e):
    """i-th elementary symmetric polynomial in e variables: the sum of its
    squarefree monomials of degree i.

    Zero outside 0 <= i <= e; the constant 1 at i = 0.
    """
    i, e = int(i), int(e)
    if i < 0 or i > e:
        return MultiPoly.zero(e)
    supports = itertools.combinations(range(e), i)
    return MultiPoly._raw(e, {sum(1 << FIELD * j for j in s): 1 for s in supports})
