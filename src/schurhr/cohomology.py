"""Truncated cohomology of a product of projective spaces.

The ring for factors (n_1, ..., n_k) is generated by the hyperplane
pullbacks tau_1, ..., tau_k subject to tau_j^(n_j + 1) = 0; integration
reads off the coefficient of the top monomial tau_1^n_1 * ... * tau_k^n_k.
Classes are stored sparsely and truncated eagerly on multiplication.
Terms are keyed by packed exponent vectors (Monagan and Pearce, CASC 2007).
Polynomials given as term dicts are evaluated at classes, each monomial
formed once for all of them (``evaluate_terms``).
"""

from . import kernels
from .errors import SpaceMismatchError
from .polyring import FIELD
from .rationals import canon, parse_q


class Space:
    """Product of projective spaces, given by the list of factor dimensions.

    It lays out the packed keys: factor j gets n_j.bit_length() + 1 bits at
    ``shifts[j]``, from the low bits up, room for a sum of two exponents in
    the cap.  Adding ``bias`` to a sum sets a ``guard`` bit where it exceeds n_j.
    The fields are not ``polyring``'s fixed 8 bits: on those the ``geometry``
    benchmark ran slower (wall_s 0.2085 to 0.2256 s, lower in 0 of 10 paired
    runs on 2 cores, Python 3.11).
    """

    __slots__ = ("factors", "shifts", "bias", "guard", "top")

    def __init__(self, factors):
        factors = tuple(int(n) for n in factors)
        if not factors:
            raise ValueError("need at least one projective factor")
        if any(n < 1 for n in factors):
            raise ValueError(f"factor dimensions must be positive: {factors}")
        shifts, bias, guard, s = [], 0, 0, 0
        for n in factors:
            h = 1 << n.bit_length()  # the guard bit of a field of 2h values
            shifts.append(s)
            bias += (h - 1 - n) << s
            guard += h << s
            s += n.bit_length() + 1
        for name, value in [("factors", factors), ("shifts", tuple(shifts)),
                            ("bias", bias), ("guard", guard)]:
            object.__setattr__(self, name, value)
        object.__setattr__(self, "top", self.pack(factors))

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

    @classmethod
    def from_json(cls, data):
        return cls(data["factors"])

    def pack(self, exps):
        """The key of an exponent tuple within the caps."""
        return sum(x << s for x, s in zip(exps, self.shifts))

    def unpack(self, key):
        return tuple([(key >> s) & ((2 << n.bit_length()) - 1)
                      for s, n in zip(self.shifts, self.factors)])

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
        return kernels.mul_terms_capped(a, b, self.space.bias, self.space.guard)

    def _key(self, exps):
        return self.space.pack(exps)

    def _exps(self, key):
        return self.space.unpack(key)

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, space):
        return cls._raw(space, {0: 1})

    @classmethod
    def hyperplane(cls, space, j):
        if not 0 <= j < space.k:
            raise ValueError(f"factor index {j} out of range")
        return cls._raw(space, {1 << space.shifts[j]: 1})

    @classmethod
    def linear(cls, space, coeffs):
        """Degree-1 class sum(coeffs[j] * tau_j)."""
        coeffs = [parse_q(c) for c in coeffs]
        if len(coeffs) != space.k:
            raise ValueError(f"need {space.k} coefficients")
        return cls._raw(space, {1 << s: c for s, c in zip(space.shifts, coeffs) if c})

    # -- queries -----------------------------------------------------------

    def integrate(self):
        """Coefficient of the top monomial (zero on everything else)."""
        return self.terms.get(self.space.top, 0)

    def pairing(self, other):
        """The integral of self * other, read without forming the product.

        Only the top monomial of the product counts, and the key of the
        monomial that completes a key k to the top is top - k (no field
        borrows, as every field of k is within its cap), so the integral is
        the sum over k of self[k] * other[top - k].
        """
        self._check_ring(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        top = self.space.top
        get = b.get
        total = 0
        for k, c in a.items():
            v = get(top - k)
            if v is not None:
                total += c * v
        return canon(total)


def evaluate_terms(polys, classes):
    """[p(classes) for p in polys], all on the space of the classes.

    Each p is a term dict keyed by the exponents (a_1, ..., a_r), one per
    class, packed as ``polyring`` packs them, and p(classes) is the sum of
    c * x_1^a_1 * ... * x_r^a_r with x_j = classes[j - 1].  Every monomial
    that some p uses is formed once for all of polys, as x_j times its
    parent, the monomial with a_j one lower for the smallest j with a_j > 0
    (the field of the key's lowest set bit).  The tree of parents is
    walked depth first, so only the monomials on one path are held at once.
    ``bundles._slices_at`` uses this, not ``MultiPoly.substitute``, as its
    slices share monomials: one Horner substitution per slice made the
    ``geometry`` benchmark (seed 7) 1.7-2 times as slow (3 paired runs on 2
    cores, Python 3.11).
    """
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class")
    first = classes[0]
    for x in classes:
        first._check_ring(x)
    space = first.space
    xs = [x.terms for x in classes]
    bias, guard = space.bias, space.guard
    uses, placed, children = {}, {0}, {}
    for k, p in enumerate(polys):
        for exps, c in p.items():
            uses.setdefault(exps, []).append((k, c))
            while exps not in placed:
                placed.add(exps)
                j = ((exps & -exps).bit_length() - 1) // FIELD
                up = exps - (1 << FIELD * j)
                children.setdefault(up, []).append((exps, j))
                exps = up
    out = [{} for _ in polys]
    stack = [(0, None, CohClass.unit(space).terms)]
    while stack:
        exps, j, value = stack.pop()
        if j is not None:  # value is the parent's monomial until here
            value = kernels.mul_terms_capped(value, xs[j], bias, guard)
        for k, c in uses.get(exps, ()):
            kernels.add_scaled(out[k], value, c)
        for child, i in children.get(exps, ()):
            stack.append((child, i, value))
    return [CohClass._raw(space, terms) for terms in out]
