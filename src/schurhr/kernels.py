"""Term-arithmetic kernels, the one determinant over term dicts, and the
ring-element class built on them.

Terms are dicts mapping monomials to nonzero exact coefficients (int or
Fraction).  A monomial is a packed int, its exponents in bit fields, so
multiplying two monomials is adding their keys: ``polyring`` lays out one
fixed-width field per variable for ``mul_terms`` and checks its guard bits,
and ``mul_terms_capped`` caps fields of ``cohomology.Space`` or ``polyring``.
The three multiply and accumulate functions are the hot inner loops of the
whole package.
"""

import operator

from .errors import DegreeMismatchError, ExponentOverflowError
from .rationals import Rational, canon, fmt_terms, parse_q, terms_to_json

__all__ = ["mul_terms", "mul_terms_capped", "add_scaled", "det_terms", "TermElement"]


def mul_terms(a, b):
    """Product of two term dicts keyed by packed exponents of one layout."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    bitems = list(b.items())
    for ea, ca in a.items():
        for eb, cb in bitems:
            key = ea + eb
            c = ca * cb
            prev = get(key)
            if prev is None:
                out[key] = c
            else:
                s = prev + c
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def mul_terms_capped(a, b, bias, guard):
    """Product of two term dicts keyed by packed exponents, without the
    monomials past a cap, where a key plus ``bias`` sets a ``guard`` bit."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    bitems = list(b.items())
    for ea, ca in a.items():
        over = ea + bias
        for eb, cb in bitems:
            if (over + eb) & guard:
                continue
            key = ea + eb
            c = ca * cb
            prev = get(key)
            if prev is None:
                out[key] = c
            else:
                s = prev + c
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def add_scaled(acc, terms, coeff=1):
    """In place acc += coeff * terms; removes entries that cancel to zero.

    Every value it stores is canonical (``rationals.canon``): an int stays
    as it is after one type check, a Fraction with denominator 1 becomes int.
    """
    if not coeff:
        return acc
    get = acc.get
    if coeff == 1:
        for e, c in terms.items():
            prev = get(e)
            if prev is not None:
                c = prev + c
                if not c:
                    del acc[e]
                    continue
            acc[e] = c if type(c) is int else canon(c)
    else:
        for e, c in terms.items():
            c = coeff * c
            prev = get(e)
            if prev is not None:
                c = prev + c
                if not c:
                    del acc[e]
                    continue
            acc[e] = c if type(c) is int else canon(c)
    return acc


def det_terms(rows, mul):
    """Determinant of a square matrix of term dicts; ``mul`` multiplies two.

    Division-free Laplace expansion along columns, memoised on the set of
    rows still available, so it is exact in any commutative ring, including
    the truncated cohomology rings, which have zero divisors.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    last = n - 1
    memo = {}

    def minor(row_idx):
        # determinant of rows row_idx on the last len(row_idx) columns
        if len(row_idx) == 1:
            return rows[row_idx[0]][last]
        got = memo.get(row_idx)
        if got is not None:
            return got
        col = n - len(row_idx)
        total = {}
        for pos, r in enumerate(row_idx):
            entry = rows[r][col]
            if not entry:
                continue
            sub = minor(row_idx[:pos] + row_idx[pos + 1:])
            if sub:
                add_scaled(total, mul(entry, sub), -1 if pos % 2 else 1)
        memo[row_idx] = total
        return total

    det = dict(minor(tuple(range(n))))
    del minor  # the closure refers to itself: break the cycle, so memo dies now
    return det


class TermElement:
    """Immutable element of a ring whose elements are term dicts.

    ``ring`` names the ring and ``terms`` holds the element.  This base
    carries the arithmetic that polynomials (``polyring.MultiPoly``) and
    truncated cohomology classes (``cohomology.CohClass``) share; elements
    of one subclass combine only when their rings are equal.  A subclass
    supplies:

    - ``_shape(ring)``: validate a ring and return it with its exponent
      length and the per-variable caps past which a monomial is zero
      (``None`` when nothing is truncated);
    - ``_mul(a, b)``: the product of two term dicts in the ring;
    - ``_key(exps)`` and ``_exps(key)``: the packed key of an exponent
      tuple and back;
    - ``_mismatch``: the error raised for operands from different rings;
    - ``_letter``: the variable letter used when printing.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        ring, width, caps = self._shape(ring)
        object.__setattr__(self, "ring", ring)
        clean = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(int(x) for x in exps)
                if len(exps) != width:
                    raise ValueError(f"exponent {exps} does not have length {width}")
                if any(x < 0 for x in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if caps is not None and any(x > cap for x, cap in zip(exps, caps)):
                    continue  # past the truncation: zero in the ring
                c = canon(c)
                if c:
                    key = self._key(exps)
                    clean[key] = clean.get(key, 0) + c
                    if not clean[key]:
                        del clean[key]
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, ring, terms):
        """Trusted constructor: terms already clean, and not copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, past the guard
        return type(self), (self.ring, self.exps_terms())

    @classmethod
    def zero(cls, ring):
        return cls._raw(cls._shape(ring)[0], {})

    @classmethod
    def constant(cls, c, ring):
        """c times the unit of the ring."""
        return cls(ring, {(0,) * cls._shape(ring)[1]: c})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, exps):
        """Coefficient of the monomial with the given exponents (0 if absent)."""
        exps = tuple(int(x) for x in exps)
        _, width, caps = self._shape(self.ring)
        if len(exps) != width:
            raise ValueError(f"exponent {exps} does not have length {width}")
        if min(exps, default=0) < 0 or caps and any(map(operator.gt, exps, caps)):
            return 0  # not stored; a key past a cap would alias another
        try:
            return self.terms.get(self._key(exps), 0)
        except ExponentOverflowError:
            return 0  # past the key layout, so never stored

    def coefficient_matrix(self, corner):
        """Symmetric matrix of the coefficients at corner - e_i - e_j."""
        k = len(corner)
        mat = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                exps = list(corner)
                exps[i] -= 1
                exps[j] -= 1
                mat[i][j] = mat[j][i] = self.coefficient(exps)
        return tuple(tuple(row) for row in mat)

    def exps_terms(self):
        """The terms keyed by exponent tuples, whatever the stored keys."""
        exps = self._exps
        return {exps(key): c for key, c in self.terms.items()}

    def degrees(self):
        """The distinct degrees of the terms, ascending."""
        return sorted({sum(self._exps(key)) for key in self.terms})

    def homogeneous_degree(self):
        """Common degree of all terms; raises if not homogeneous.

        The zero element is homogeneous of every degree; returns -1.
        """
        degs = self.degrees()
        if len(degs) > 1:
            raise DegreeMismatchError(f"not homogeneous: degrees {degs}")
        return degs[0] if degs else -1

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise self._mismatch(f"different rings: {self.ring!r} vs {other.ring!r}")

    def _add(self, other, sign):
        if isinstance(other, Rational):
            other = self.constant(other, self.ring)
        elif type(other) is not type(self):
            return NotImplemented
        else:
            self._check_ring(other)
        out = dict(self.terms)
        add_scaled(out, other.terms, sign)
        return self._raw(self.ring, out)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._raw(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Rational):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        self._check_ring(other)
        return self._raw(self.ring, self._canonical(self._mul(self.terms, other.terms)))

    @staticmethod
    def _canonical(terms):
        """A product's terms, in place, with each Fraction(n, 1) turned into n:
        the multiply kernels leave such values where Fractions cancel."""
        if not all(type(c) is int for c in terms.values()):
            for key, c in terms.items():
                terms[key] = canon(c)
        return terms

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = canon(c)
        if not c:
            return self._raw(self.ring, {})
        return self._raw(self.ring, {e: canon(v * c) for e, v in self.terms.items()})

    def __pow__(self, n):
        """Square-and-multiply."""
        n = int(n)
        if n < 0:
            raise ValueError("negative power")
        result = self.constant(1, self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Rational):
            other = self.constant(other, self.ring)
        elif type(other) is not type(self):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    # -- presentation --------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical (graded-lex descending) order."""
        return sorted(self.exps_terms().items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        return fmt_terms(self.sorted_terms(), self._letter)

    def __repr__(self):
        return f"{type(self).__name__}({self.ring!r}, {self})"

    def to_json(self):
        return terms_to_json(self.sorted_terms())

    @classmethod
    def from_json(cls, data, ring):
        """Read a term list; the coefficients of a repeated monomial add up."""
        terms = {}
        for t in data:
            exps = tuple(t["exponents"])
            if any(type(x) is not int for x in exps):
                raise ValueError(f"exponents {list(exps)} are not all integers")
            terms[exps] = terms.get(exps, 0) + parse_q(t["coeff"])
        return cls(ring, terms)
