"""Schur polynomials in the elementary-symmetric determinant convention.

Two independent routes are provided: the determinant of the matrix with
entries c_{lam_r - r + s} (c_i = i-th elementary symmetric polynomial), in
the c_i and then substituted, and the monomial expansion whose coefficient
at x^alpha counts semistandard tableaux of the conjugate shape.  In this
convention s_lam in e variables vanishes exactly when lam_1 > e.

Shift expansions: s_lam(x_1 + t, ..., x_e + t) = sum_i s_lam^(i)(x) t^i
defines the derived polynomials s_lam^(i), homogeneous of degree |lam| - i.
They are computed from the operator D = sum_j d/dx_j: by Taylor's formula
along (1, ..., 1), s_lam^(i) = D s_lam^(i-1) / i, an exact integer division.
The same slices written in the elementary symmetric polynomials e_1, ..., e_e
come from the same operator, which acts there by D e_k = (e - k + 1) e_(k-1).
One expansion, ``_taylor_slices``, applies D in either basis from its images
on the generators, over the packed keys of ``polyring``; so does
``analysis._epsilon_shift``.
"""

import functools
import threading
from math import comb

from . import kernels
from .errors import ExponentOverflowError, PreconditionError
from .partitions import Partition, dual_in_box, ssyt_weight_counts
from .polyring import (FIELD, MASK, MAX_EXP, MultiPoly, _unpack, elementary,
                       variable_count)
from .rationals import fmt_terms

_cache_lock = threading.Lock()
_jt_cache = {}
_derived_cache = {}
_derived_chern_cache = {}


def clear_caches():
    with _cache_lock:
        _jt_cache.clear()
        _derived_cache.clear()
        _derived_chern_cache.clear()


def _cached(cache):
    """Memoize f(lam, e) in cache under (lam.normalized, e), one entry per
    miss; f gets lam as a Partition and e as a checked variable count.  The
    lock is not held while f runs, since f may read another cache."""

    def decorate(f):
        @functools.wraps(f)
        def cached(lam, e):
            lam, e = Partition(lam), variable_count(e)
            key = (lam.normalized, e)
            with _cache_lock:
                hit = cache.get(key)
            if hit is None:
                # no exponent of a minor or a slice exceeds the row count:
                # a Taylor step never adds a factor to a monomial
                if lam.length > MAX_EXP:
                    raise ExponentOverflowError(f"{lam.length} rows: exponents past {MAX_EXP}")
                hit = f(lam, e)
                with _cache_lock:
                    cache[key] = hit
            return hit

        return cached

    return decorate


@_cached(_jt_cache)
def schur_jt(lam, e):
    """Schur polynomial via the elementary-symmetric determinant in c_k
    (``_jt_elementary``) at c_k = elementary(k, e)."""
    basis = MultiPoly._raw(e, _jt_elementary(lam.normalized, e))
    return basis.substitute([elementary(k, e) for k in range(1, e + 1)])


def _jt_elementary(parts, e):
    """The Jacobi-Trudi determinant over the c_k, each c_k keyed as
    ``polyring`` keys x_k."""
    n = len(parts)

    def entry(k):
        return {1 << FIELD * (k - 1) if k else 0: 1} if 0 <= k <= e else {}

    if n == 0:
        return {0: 1}
    rows = [[entry(parts[r] - r + s) for s in range(n)] for r in range(n)]
    return kernels.det_terms(rows, kernels.mul_terms)


def schur_ssyt(lam, e):
    """Schur polynomial via semistandard tableaux of the conjugate shape."""
    lam = Partition(lam)
    e = int(e)
    counts = ssyt_weight_counts(lam.conjugate(), e)
    return MultiPoly(e, counts)


@_cached(_derived_cache)
def derived_all(lam, e):
    """All shift-expansion coefficients (s_lam^(0), ..., s_lam^(|lam|)): the
    Taylor slices D^i s_lam / i!, integral as s_lam(x + t) is."""
    slices = _taylor_slices(schur_jt(lam, e).terms, e, lam.weight)
    return tuple(MultiPoly._raw(e, t) for t in slices)


def _taylor_slices(terms, e, top, images=None):
    """[D^i terms / i! for i in 0..top], the Taylor slices along (1, ..., 1)
    of integer terms in e variables, D = sum_j d/dx_j unless ``images``
    (``_taylor_step``) give another derivation."""
    images = images or [(1, -(1 << FIELD * j)) for j in range(e)]
    slices = [terms]
    for i in range(1, top + 1):
        slices.append(_taylor_step(slices[-1], i, images))
    return slices


def _taylor_step(terms, i, images):
    """D(terms) / i for integer coefficients, D the derivation given by its
    images on the generators: images[j] = (d, move) sends generator j to d
    times the monomial whose key is its own plus move (generator k, at
    unit_k - unit_j, or the constant, at -unit_j; unit_j = 1 << FIELD*j).

    Raises ArithmeticError if a coefficient of D(terms) is not a multiple of
    i: the shift expansion of an integer polynomial never does that.
    """
    out = {}
    get = out.get
    fields = [(FIELD * j, d, move) for j, (d, move) in enumerate(images)]
    for exps, c in terms.items():
        for shift, d, move in fields:
            a = exps >> shift & MASK
            if a:
                key = exps + move
                out[key] = get(key, 0) + c * a * d
    result = {}
    for key, v in out.items():
        q, r = divmod(v, i)
        if r:
            raise ArithmeticError(f"Taylor step {i}: {v} at {key} is not a multiple of {i}")
        if q:
            result[key] = q
    return result


@_cached(_derived_chern_cache)
def derived_chern(lam, e):
    """The slices s_lam^(0), ..., s_lam^(|lam|) in e_1, ..., e_e.

    Slice 0 is ``_jt_elementary``, and slice i is D(slice i-1) / i, D in
    the e-basis: D e_1 = e and D e_(j+1) = (e - j) e_j.  Substituting
    e_k = elementary(k, e) gives ``derived_all``.
    """
    images = [(e - j, (1 << FIELD * j >> FIELD) - (1 << FIELD * j)) for j in range(e)]
    return tuple(_taylor_slices(_jt_elementary(lam.normalized, e), e, lam.weight, images))


def derived_schur(lam, i, e):
    """s_lam^(i) in e variables; zero outside 0 <= i <= |lam|."""
    lam = Partition(lam)
    i = int(i)
    if i < 0 or i > lam.weight:
        return MultiPoly.zero(int(e))
    return derived_all(lam, e)[i]


def dual_reversal_check(lam, e, N):
    """Exact check of s_lam(x) = (x1*...*xe)^N * s_dual(1/x) in the e x N box."""
    lam = Partition(lam)
    e, N = int(e), int(N)
    if lam.first > e:
        raise PreconditionError(f"largest part {lam.first} exceeds {e}")
    if lam.length > N:
        raise PreconditionError(f"partition needs more than {N} rows")
    bar = dual_in_box(lam, e, N)
    return schur_jt(bar, e).box_reverse(N) == schur_jt(lam, e)


# -- symbolic identities for small weights ---------------------------------

def _low_degree_identities(e):
    """The closed forms of every derived Schur polynomial of weight <= 3."""
    one = MultiPoly.one(e)
    c1, c2, c3 = [elementary(i, e) for i in (1, 2, 3)]
    return [
        ("s(1)", (1,), 0, c1),
        ("s(1)^1", (1,), 1, e * one),
        ("s(2)", (2,), 0, c2),
        ("s(2)^1", (2,), 1, (e - 1) * c1),
        ("s(2)^2", (2,), 2, comb(e, 2) * one),
        ("s(1,1)", (1, 1), 0, c1 * c1 - c2),
        ("s(1,1)^1", (1, 1), 1, (e + 1) * c1),
        ("s(1,1)^2", (1, 1), 2, comb(e + 1, 2) * one),
        ("s(3)", (3,), 0, c3),
        ("s(3)^1", (3,), 1, (e - 2) * c2),
        ("s(3)^2", (3,), 2, comb(e - 1, 2) * c1),
        ("s(3)^3", (3,), 3, comb(e, 3) * one),
        ("s(2,1)", (2, 1), 0, c1 * c2 - c3),
        ("s(2,1)^1", (2, 1), 1, 2 * c2 + (e - 1) * (c1 * c1)),
        ("s(2,1)^2", (2, 1), 2, (e * e - 1) * c1),
        ("s(2,1)^3", (2, 1), 3, 2 * comb(e + 1, 3) * one),
        ("s(1,1,1)", (1, 1, 1), 0, c1 * c1 * c1 - 2 * (c1 * c2) + c3),
        ("s(1,1,1)^1", (1, 1, 1), 1, (e + 2) * (c1 * c1 - c2)),
        ("s(1,1,1)^2", (1, 1, 1), 2, comb(e + 2, 2) * c1),
        ("s(1,1,1)^3", (1, 1, 1), 3, comb(e + 2, 3) * one),
    ]


def derived_table_check(e):
    """Verify the weight <= 3 closed forms against the shift expansion.

    Returns a list of (identity name, bool); requires e >= 3 so that none
    of the closed forms degenerate.
    """
    e = int(e)
    if e < 3:
        raise PreconditionError("the closed-form table needs at least 3 variables")
    report = []
    for name, lam, i, rhs in _low_degree_identities(e):
        report.append((name, derived_schur(lam, i, e) == rhs))
    return report


def elementary_row_check(p, e):
    """Verify s_(p)^(i) = binom(e-p+i, i) * c_{p-i} for all 0 <= i <= p <= e."""
    p, e = int(p), int(e)
    if not 0 <= p <= e:
        raise PreconditionError("need 0 <= p <= e")
    ok = True
    for i in range(p + 1):
        expected = comb(e - p + i, i) * elementary(p - i, e)
        ok = ok and derived_schur((p,), i, e) == expected
    return ok


def format_elementary(basis_terms, e):
    """Human-readable rendering of a term dict in c_1, ..., c_e, such as a
    slice of ``derived_chern(lam, e)``."""
    terms = [(_unpack(key, e), c) for key, c in basis_terms.items()]

    def weighted(kv):
        return (sum((i + 1) * x for i, x in enumerate(kv[0])), kv[0])

    return fmt_terms(sorted(terms, key=weighted, reverse=True), "c")
