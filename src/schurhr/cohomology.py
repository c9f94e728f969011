"""Truncated cohomology of a product of projective spaces.

The ring for factors (n_1, ..., n_k) is generated by the hyperplane
pullbacks tau_1, ..., tau_k subject to tau_j^(n_j + 1) = 0; integration
reads off the coefficient of the top monomial tau_1^n_1 * ... * tau_k^n_k.
Classes are stored sparsely and truncated eagerly on multiplication.
"""

from fractions import Fraction

from . import kernels
from .errors import SpaceMismatchError
from .rationals import canon, fmt_terms, parse_q, terms_to_json


class Space:
    """Product of projective spaces, given by the list of factor dimensions."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(int(n) for n in factors)
        if not factors:
            raise ValueError("need at least one projective factor")
        if any(n < 1 for n in factors):
            raise ValueError(f"factor dimensions must be positive: {factors}")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("Space is immutable")

    @property
    def k(self):
        return len(self.factors)

    @property
    def dim(self):
        return sum(self.factors)

    def __eq__(self, other):
        return isinstance(other, Space) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"Space({list(self.factors)})"

    def to_json(self):
        return {"factors": list(self.factors)}

    @classmethod
    def from_json(cls, data):
        return cls(data["factors"])

    def h11_basis(self):
        """The hyperplane classes (tau_1, ..., tau_k)."""
        return [CohClass.hyperplane(self, j) for j in range(self.k)]


class CohClass:
    """Element of the truncated cohomology ring of a Space."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        if not isinstance(space, Space):
            raise TypeError("space must be a Space")
        clean = {}
        if terms:
            caps = space.factors
            for exps, c in terms.items():
                exps = tuple(int(x) for x in exps)
                if len(exps) != space.k:
                    raise ValueError(f"exponent {exps} does not match {space!r}")
                if any(x < 0 for x in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if any(x > cap for x, cap in zip(exps, caps)):
                    continue  # beyond the truncation: the class is zero there
                c = canon(c)
                if c:
                    clean[exps] = clean.get(exps, 0) + c
                    if not clean[exps]:
                        del clean[exps]
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, space, terms):
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CohClass is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space):
        return cls._raw(space, {})

    @classmethod
    def unit(cls, space):
        return cls._raw(space, {(0,) * space.k: 1})

    @classmethod
    def hyperplane(cls, space, j):
        if not 0 <= j < space.k:
            raise ValueError(f"factor index {j} out of range")
        e = tuple(1 if i == j else 0 for i in range(space.k))
        return cls._raw(space, {e: 1})

    @classmethod
    def linear(cls, space, coeffs):
        """Degree-1 class sum(coeffs[j] * tau_j)."""
        coeffs = [parse_q(c) for c in coeffs]
        if len(coeffs) != space.k:
            raise ValueError(f"need {space.k} coefficients")
        terms = {}
        for j, c in enumerate(coeffs):
            if c:
                terms[tuple(1 if i == j else 0 for i in range(space.k))] = c
        return cls._raw(space, terms)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, exps):
        exps = tuple(int(x) for x in exps)
        return self.terms.get(exps, 0)

    def degrees(self):
        return sorted({sum(e) for e in self.terms})

    @property
    def is_homogeneous(self):
        return len({sum(e) for e in self.terms}) <= 1

    def degree(self):
        """Common degree of the terms; -1 for zero, error if mixed."""
        degs = {sum(e) for e in self.terms}
        if not degs:
            return -1
        if len(degs) > 1:
            raise ValueError(f"class is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def integrate(self):
        """Coefficient of the top monomial (zero on everything else)."""
        return self.terms.get(self.space.factors, 0)

    # -- arithmetic --------------------------------------------------------

    def _check_space(self, other):
        if self.space != other.space:
            raise SpaceMismatchError(f"{self.space!r} vs {other.space!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CohClass.unit(self.space).scale(other)
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_space(other)
        out = dict(self.terms)
        kernels.add_scaled(out, other.terms)
        return CohClass._raw(self.space, out)

    __radd__ = __add__

    def __neg__(self):
        return CohClass._raw(self.space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CohClass.unit(self.space).scale(other)
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_space(other)
        out = dict(self.terms)
        kernels.add_scaled(out, other.terms, -1)
        return CohClass._raw(self.space, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check_space(other)
        return CohClass._raw(
            self.space,
            kernels.mul_terms_capped(self.terms, other.terms, self.space.factors),
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = canon(c)
        if not c:
            return CohClass.zero(self.space)
        return CohClass._raw(
            self.space, {e: canon(v * c) for e, v in self.terms.items()}
        )

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power")
        result = CohClass.unit(self.space)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CohClass.unit(self.space).scale(other)
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    __hash__ = None

    # -- presentation ------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        return fmt_terms(self.sorted_terms(), "t")

    def __repr__(self):
        return f"CohClass({self.space!r}, {self})"

    def to_json(self):
        return terms_to_json(self.sorted_terms())

    @classmethod
    def from_json(cls, data, space):
        return cls(space, {tuple(t["exponents"]): parse_q(t["coeff"]) for t in data})


def class_det(rows):
    """Determinant of a square CohClass matrix.

    The truncated ring has zero divisors, so elimination methods do not
    apply; the entries go through the division-free ``kernels.det_terms``.
    Every entry must live on the same space.
    """
    if not rows:
        raise ValueError("empty matrix")
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    first = rows[0][0]
    for r in rows:
        for x in r:
            first._check_space(x)
    space = first.space
    caps = space.factors
    terms = kernels.det_terms([[x.terms for x in r] for r in rows],
                              lambda a, b: kernels.mul_terms_capped(a, b, caps))
    return CohClass._raw(space, terms)
