"""Intersection forms on the degree-(1,1) lattice and exact inertia.

Eigenvalues of a rational symmetric matrix are irrational in general, but
the inertia triple (positive, negative, zero counts) is computable exactly
by congruence reduction, and the Hodge-Riemann style predicates are read
off the triple.
"""

from dataclasses import dataclass

from .errors import DegreeMismatchError, SpaceMismatchError
from .rationals import common_denominator, fmt_q, parse_q


@dataclass(frozen=True)
class InertiaTriple:
    """Counts of positive, negative and zero eigenvalues."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def is_hr(self):
        """Nondegenerate with exactly one positive eigenvalue."""
        return self.n_zero == 0 and self.n_plus == 1

    @property
    def is_weak_hr(self):
        """At most one positive eigenvalue and not negative definite."""
        return self.n_plus <= 1 and (self.n_plus == 1 or self.n_zero >= 1)

    def to_json(self):
        return {"n_plus": self.n_plus, "n_minus": self.n_minus, "n_zero": self.n_zero}


def intersection_form(omega, space=None):
    """Matrix of (a, b) -> integral of a * omega * b over the hyperplane basis.

    omega must be homogeneous of degree dim - 2; anything else is rejected
    (silent projection would hide bugs upstream).  Each of the k(k+1)/2
    entries is one lookup of a packed key of omega, with no product.
    """
    if space is None:
        space = omega.space
    elif omega.space != space:
        raise SpaceMismatchError(f"{omega.space!r} vs {space!r}")
    degs = omega.degrees()
    if len(degs) > 1:
        raise DegreeMismatchError(f"class has mixed degrees {degs}, expected {space.dim - 2}")
    if degs and degs[0] != space.dim - 2:
        raise DegreeMismatchError(f"class has degree {degs[0]}, expected {space.dim - 2}")
    # integral of tau_i * omega * tau_j: omega's coefficient at top - e_i - e_j,
    # read off the packed key (no field borrows unless i = j and n_i < 2,
    # where the monomial does not exist)
    top, shifts, get = space.top, space.shifts, omega.terms.get
    k = space.k
    mat = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if i != j or space.factors[i] > 1:
                mat[i][j] = mat[j][i] = get(top - (1 << shifts[i]) - (1 << shifts[j]), 0)
    return tuple(tuple(row) for row in mat)


def inertia(m):
    """Exact inertia by symmetric congruence reduction, over the integers.

    A positive scaling keeps the inertia, so the denominators are cleared
    once and the elimination is fraction-free (Bareiss, *Sylvester's
    identity and multistep integer-preserving Gaussian elimination*, Math.
    Comp. 22, 1968): after a pivot d, the active block is d times the Schur
    complement, each entry updated by an exact division by the pivot before
    it.  A nonzero entry of the active diagonal is a 1x1 pivot: relative to
    the pivot before it, its sign counts one positive or negative
    eigenvalue.  When the active diagonal is all zero but some a[p][q] = b
    is not, adding row q to row p and then column q to column p is a
    congruence that puts 2b on the diagonal, and that becomes the pivot.
    When the active block is all zero, its size is the count of zero
    eigenvalues.  Rejects a matrix that is not square or not symmetric with
    ``ValueError``.
    """
    a = [[parse_q(x) for x in row] for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
    den = common_denominator(x for row in a for x in row)
    if den > 1:
        a = [[x.numerator * (den // x.denominator) for x in row] for row in a]
    active = list(range(n))
    n_plus = n_minus = 0
    prev = 1  # the pivot before: the active block is prev times the Schur complement
    while active:
        pivot = next((p for p in active if a[p][p]), None)
        if pivot is None:
            # the diagonal is zero, so a nonzero a[p][q] has p != q
            pair = next(((p, q) for p in active for q in active if a[p][q]), None)
            if pair is None:
                break
            pivot, q = pair
            for r in active:
                a[pivot][r] += a[q][r]
            for r in active:
                a[r][pivot] += a[r][q]
        d = a[pivot][pivot]
        if (d > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        rest = [q for q in active if q != pivot]
        row_p = a[pivot]
        for i in rest:
            row_i = a[i]
            ci = row_i[pivot]
            for j in rest:
                row_i[j] = (d * row_i[j] - ci * row_p[j]) // prev
        prev = d
        active = rest
    return InertiaTriple(n_plus, n_minus, len(active))


def matrix_to_json(m):
    return [[fmt_q(x) for x in row] for row in m]
