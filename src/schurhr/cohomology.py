"""Truncated cohomology of a product of projective spaces.

The ring for factors (n_1, ..., n_k) is generated by the hyperplane
pullbacks tau_1, ..., tau_k subject to tau_j^(n_j + 1) = 0; integration
reads off the coefficient of the top monomial tau_1^n_1 * ... * tau_k^n_k.
Classes are stored sparsely and truncated eagerly on multiplication.
"""

from . import kernels
from .errors import SpaceMismatchError
from .rationals import parse_q


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

    def __reduce__(self):
        return Space, (self.factors,)

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


class CohClass(kernels.TermElement):
    """Element of the truncated cohomology ring of a Space.

    The ring is the ``space``; arithmetic, printing and JSON come from
    ``kernels.TermElement``, with the multiply capped at the factor
    dimensions.
    """

    __slots__ = ()
    space = kernels.TermElement.ring  # the ring slot, under this class's name
    _mismatch = SpaceMismatchError
    _letter = "t"

    @staticmethod
    def _shape(space):
        if not isinstance(space, Space):
            raise TypeError("space must be a Space")
        return space, space.k, space.factors

    def _mul(self, a, b):
        return kernels.mul_terms_capped(a, b, self.space.factors)

    # -- constructors ------------------------------------------------------

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

    def degrees(self):
        return sorted({sum(e) for e in self.terms})

    def integrate(self):
        """Coefficient of the top monomial (zero on everything else)."""
        return self.terms.get(self.space.factors, 0)


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
            first._check_ring(x)
    space = first.space
    caps = space.factors
    terms = kernels.det_terms([[x.terms for x in r] for r in rows],
                              lambda a, b: kernels.mul_terms_capped(a, b, caps))
    return CohClass._raw(space, terms)
