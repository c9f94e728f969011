"""MultiPoly on packed exponent keys against a tuple-keyed reference.

The reference below keys its terms by exponent tuples and shares no code
with the package; every operation of MultiPoly must give its terms, read
back with ``exps_terms``.  The examples run to the Hypothesis profile:
``--hypothesis-profile=ci`` (``conftest.py``) runs 500 of each.
"""

import itertools
import pickle
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from schurhr.analysis import lemma_bridge_check, lorentzian_check
from schurhr.errors import ExponentOverflowError
from schurhr.polyring import MAX_EXP, MultiPoly
from schurhr.schur import derived_chern, schur_jt


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out)


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _clean(out)


def _ref_substitute(p, reps, m):
    total = {}
    for exps, c in p.items():
        term = {(0,) * m: c}
        for r, k in zip(reps, exps):
            for _ in range(k):
                term = _ref_mul(term, r)
        total = _ref_add(total, term)
    return total


def _overflows(terms):
    return any(x > MAX_EXP for e in terms for x in e)


_coeffs = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=4))
# small exponents, and exponents next to the top of a field
_exps = st.one_of(st.integers(0, 4), st.integers(MAX_EXP - 3, MAX_EXP))


def _terms(n, exps=_exps, max_size=5):
    return st.dictionaries(st.tuples(*[exps] * n), _coeffs, max_size=max_size).map(_clean)


_pair = st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), _terms(n), _terms(n)))


@settings(deadline=None)
@given(_pair)
def test_sums_and_products_match_the_tuple_reference(case):
    n, a, b = case
    p, q = MultiPoly(n, a), MultiPoly(n, b)
    assert p.exps_terms() == a
    assert (p + q).exps_terms() == _ref_add(a, b)
    assert (p - q).exps_terms() == _ref_add(a, {e: -c for e, c in b.items()})
    want = _ref_mul(a, b)
    if _overflows(want):
        with pytest.raises(ExponentOverflowError):
            p * q
    else:
        assert (p * q).exps_terms() == want


@st.composite
def _substitutions(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    small = st.integers(0, 3)
    p = draw(_terms(n, small, 4))
    reps = [draw(_terms(m, small, 3)) for _ in range(n)]
    return n, m, p, reps


@settings(deadline=None)
@given(_substitutions())
def test_substitute_matches_the_tuple_reference(case):
    n, m, p, reps = case
    got = MultiPoly(n, p).substitute([MultiPoly(m, r) for r in reps])
    assert got.exps_terms() == _ref_substitute(p, reps, m)


@settings(deadline=None)
@given(_pair, st.integers(0, 2))
def test_box_reverse_normalize_and_coefficients_match_the_tuple_reference(case, pad):
    n, a, _ = case
    p = MultiPoly(n, a)
    box = max((x for e in a for x in e), default=0) + pad
    mirror = {tuple(box - x for x in e): c for e, c in a.items()}
    if _overflows(mirror):
        with pytest.raises(ExponentOverflowError):
            p.box_reverse(box)
    else:
        assert p.box_reverse(box).exps_terms() == mirror
    factorials = {e: prod(map(factorial, e)) for e in a}
    assert p.normalize().exps_terms() == {e: Fraction(c) / factorials[e] for e, c in a.items()}
    assert p.denormalize().exps_terms() == {e: c * factorials[e] for e, c in a.items()}
    degs = [max((e[j] for e in a), default=0) for j in range(n)]
    assert p.per_variable_degrees() == tuple(degs)
    # past MAX_EXP too: a monomial that cannot be stored reads 0
    for e in itertools.islice(itertools.product(*[range(d + 2) for d in degs]), 50):
        assert p.coefficient(e) == a.get(e, 0)


@st.composite
def _homogeneous(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    monos = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
    terms = _clean(draw(st.dictionaries(st.sampled_from(monos), _coeffs, min_size=1,
                                        max_size=6)))
    alpha = [0] * n
    for j in draw(st.lists(st.integers(0, n - 1), min_size=d - 2, max_size=d - 2)):
        alpha[j] += 1
    return n, terms, tuple(alpha)


@settings(deadline=None)
@given(_homogeneous())
def test_hessian_of_partial_matches_the_tuple_reference(case):
    n, a, alpha = case
    p = MultiPoly(n, a)
    if p.is_zero:
        return
    want = [[0] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        gamma = list(alpha)
        gamma[i] += 1
        gamma[j] += 1
        want[i][j] = prod(map(factorial, gamma)) * a.get(tuple(gamma), 0)
    assert p.hessian_of_partial(alpha) == tuple(map(tuple, want))


@settings(deadline=None)
@given(_pair, st.sampled_from(["none", "all", "swap", "cycle"]))
def test_is_symmetric_matches_the_tuple_reference(case, group):
    n, a, _ = case
    perms = list(itertools.permutations(range(n)))
    # one coefficient on each orbit of exponents under a group of permutations
    if group != "none" and n > 1:
        perms_of = {"all": perms, "swap": [tuple(range(n)), (1, 0, *range(2, n))],
                    "cycle": [tuple((k + r) % n for k in range(n)) for r in range(n)]}
        sym = {}
        for e, c in a.items():
            if e not in sym:
                sym.update({tuple(e[k] for k in perm): c for perm in perms_of[group]})
        a = sym
    want = all(a.get(tuple(e[k] for k in perm), 0) == c for e, c in a.items() for perm in perms)
    assert MultiPoly(n, a).is_symmetric() == want


@settings(deadline=None)
@given(_pair)
def test_pickle_round_trip_keeps_the_terms(case):
    n, a, _ = case
    p = MultiPoly(n, a)
    back = pickle.loads(pickle.dumps(p))
    assert back == p and back.exps_terms() == a


def test_an_exponent_past_its_field_raises_at_construction():
    assert MultiPoly(2, {(0, MAX_EXP): 1}).coefficient((0, MAX_EXP)) == 1
    for exps in [(MAX_EXP + 1,), (0, MAX_EXP + 1), (2 * MAX_EXP + 2, 0)]:
        with pytest.raises(ExponentOverflowError):
            MultiPoly(len(exps), {exps: 1})
    # a usage error for the command line, and an overflow for arithmetic
    assert issubclass(ExponentOverflowError, ValueError)
    assert issubclass(ExponentOverflowError, OverflowError)


def test_a_product_past_a_field_raises_and_never_wraps():
    x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    top = x ** MAX_EXP
    assert (x ** (MAX_EXP - 1) * x).exps_terms() == {(MAX_EXP, 0): 1}
    with pytest.raises(ExponentOverflowError):
        top * x
    # the largest sum of two fields does not reach the next field
    with pytest.raises(ExponentOverflowError):
        top * top
    # past the field of the last variable too
    assert (y ** 100 * (x * y ** 27)).exps_terms() == {(1, MAX_EXP): 1}
    with pytest.raises(ExponentOverflowError):
        y ** 100 * (x * y ** 28)


def test_a_box_mirror_raises_only_when_a_mirrored_exponent_overflows():
    x = MultiPoly.variable(0, 1)
    assert x ** 100 == (x ** 100).box_reverse(200)
    assert MultiPoly.zero(2).box_reverse(1000).is_zero
    p = MultiPoly(2, {(100, MAX_EXP): 1})
    assert p.box_reverse(MAX_EXP + 1).exps_terms() == {(28, 1): 1}
    for box in [2 * MAX_EXP + 1, 2 * MAX_EXP + 2, 300]:
        with pytest.raises(ExponentOverflowError):
            p.box_reverse(box)
    with pytest.raises(ExponentOverflowError):
        MultiPoly(2, {(0, MAX_EXP): 1}).box_reverse(MAX_EXP + 1)
    for box in [MAX_EXP + 1, 255, 256, 300, 1000]:  # past a field, in its neighbour
        with pytest.raises(ExponentOverflowError):
            MultiPoly.one(1).box_reverse(box)


def test_lookups_past_a_field_read_zero():
    # every exponent fits its field, but the degree 130 does not: the checks
    # look up (130, 0), alpha = (128, 0) and the like, and find them absent
    p = MultiPoly(2, {(65, 65): 1})
    assert p.coefficient((MAX_EXP + 3, 0)) == 0 == p.coefficient((200, 7))
    assert p.hessian_of_partial((128, 0)) == ((0, 0), (0, 0))
    assert p.hessian_of_partial((64, 64)) == ((0, factorial(65) ** 2), (factorial(65) ** 2, 0))
    rep = lorentzian_check(p, "strict")
    assert not rep.ok
    assert rep.nonpositive_coefficients[:3] == ((0, 130), (1, 129), (2, 128))
    assert len(rep.nonpositive_coefficients) == len(rep.bad_hessians) == 16
    alpha, t = rep.bad_hessians[0]
    assert alpha == (128, 0) and (t.n_plus, t.n_minus, t.n_zero) == (0, 0, 2)
    for eprime, alpha in [(100, (128, 0)), (100, (64, 64)), (65, (63, 65))]:
        assert lemma_bridge_check(p, eprime, alpha)


def test_too_many_rows_raise_before_any_product():
    rows = (1,) * (MAX_EXP + 1)
    with pytest.raises(ExponentOverflowError):
        schur_jt(rows, 1)
    with pytest.raises(ExponentOverflowError):
        derived_chern(rows, 1)
    assert schur_jt((1,) * MAX_EXP, 1).exps_terms() == {(MAX_EXP,): 1}
