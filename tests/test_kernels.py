"""The term kernels must agree exactly with a naive oracle on random inputs."""

import gc
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurhr import CohClass, MultiPoly, Space, kernels


def _rand_terms(rng, nvars, nterms, rational=False, caps=None):
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 4 if caps is None else caps[j]) for j in range(nvars))
        c = (
            Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if rational
            else rng.randint(-9, 9)
        )
        if c:
            out[e] = c
    return out


def _oracle_mul(a, b, caps=None):
    # sum every product into a dict, then drop the zeros
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if caps is None or all(x <= cap for x, cap in zip(e, caps)):
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def test_mul_terms_matches_oracle():
    rng = random.Random(1)
    for trial in range(200):
        nvars = rng.randint(1, 5)
        a = _rand_terms(rng, nvars, rng.randint(0, 8), rational=trial % 3 == 0)
        b = _rand_terms(rng, nvars, rng.randint(0, 8), rational=trial % 2 == 0)
        # packed by MultiPoly, multiplied by the kernel, read back as tuples
        out = kernels.mul_terms(MultiPoly(nvars, a).terms, MultiPoly(nvars, b).terms)
        assert MultiPoly._raw(nvars, out).exps_terms() == _oracle_mul(a, b)


def _capped_mul(a, b, caps):
    # the packed kernel, on operands and product keyed by exponent tuples
    X = Space(caps)
    a, b = ({X.pack(e): c for e, c in t.items()} for t in (a, b))
    out = kernels.mul_terms_capped(a, b, X.bias, X.guard)
    return {X.unpack(key): c for key, c in out.items()}


def test_mul_terms_capped_matches_oracle():
    rng = random.Random(2)
    for trial in range(200):
        nvars = rng.randint(1, 5)
        caps = tuple(rng.randint(1, 5) for _ in range(nvars))
        a = _rand_terms(rng, nvars, rng.randint(0, 8), caps=caps)
        b = _rand_terms(rng, nvars, rng.randint(0, 8), rational=trial % 2 == 0, caps=caps)
        assert _capped_mul(a, b, caps) == _oracle_mul(a, b, caps)


# caps at 2^k - 1 fill their field's low bits; caps at 2^k widen it by one
_caps = st.lists(st.integers(1, 4).flatmap(lambda k: st.sampled_from([2 ** k - 1, 2 ** k])),
                 min_size=1, max_size=5)


@st.composite
def _caps_and_terms(draw):
    caps = draw(_caps)
    terms = st.dictionaries(st.tuples(*(st.integers(0, n) for n in caps)),
                            st.fractions(min_value=-3, max_value=3, max_denominator=3)
                            .filter(bool), max_size=6)
    return caps, draw(terms), draw(terms)


@settings(max_examples=200, deadline=None)
@given(_caps_and_terms())
def test_packed_capped_mul_matches_oracle(case):
    caps, a, b = case
    assert _capped_mul(a, b, caps) == _oracle_mul(a, b, caps)


@settings(max_examples=200, deadline=None)
@given(_caps_and_terms())
# x/2 times 2, and tau/2 times 2 tau on P^2: each product cancels to 1
@example(([2], {(1,): Fraction(1, 2)}, {(0,): 2}))
@example(([2], {(1,): Fraction(1, 2)}, {(1,): 2}))
def test_products_have_canonical_coefficients(case):
    caps, a, b = case
    n, X = len(caps), Space(caps)
    for prod in (MultiPoly(n, a) * MultiPoly(n, b), CohClass(X, a) * CohClass(X, b)):
        assert all(type(c) is int or c.denominator > 1 for c in prod.terms.values())


@settings(max_examples=100, deadline=None)
@given(_caps.flatmap(lambda caps: st.tuples(st.just(caps), st.tuples(
    *(st.integers(0, n) for n in caps)))))
def test_unpack_inverts_pack(case):
    caps, e = case
    X = Space(caps)
    assert X.unpack(X.pack(e)) == e
    assert X.pack(caps) == X.top


def test_add_scaled_matches_oracle():
    rng = random.Random(3)
    for trial in range(200):
        nvars = rng.randint(1, 4)
        acc = _rand_terms(rng, nvars, 5)
        terms = _rand_terms(rng, nvars, 5)
        coeff = rng.choice([0, 1, -1, 2, Fraction(1, 2)])
        expected = dict(acc)
        for e, c in terms.items():
            expected[e] = expected.get(e, 0) + coeff * c
        expected = {e: c for e, c in expected.items() if c}
        assert kernels.add_scaled(acc, terms, coeff) is acc
        assert acc == expected
        assert all(type(c) is int or c.denominator > 1 for c in acc.values())
    # a sum and a scaled term that are whole numbers are stored as ints
    half = Fraction(1, 2)
    acc = kernels.add_scaled({(1, 0): half, (0, 1): half}, {(1, 0): half, (0, 2): 4}, 1)
    acc = kernels.add_scaled(acc, {(0, 2): 4, (3, 0): 6}, half)
    assert acc == {(1, 0): 1, (0, 1): half, (0, 2): 6, (3, 0): 3}
    assert all(type(c) is int for e, c in acc.items() if e != (0, 1))


def test_capped_mul_drops_overflow():
    a = {(2, 0): 1, (0, 1): 1}
    b = {(1, 0): 1}
    assert _capped_mul(a, b, (2, 1)) == {(1, 1): 1}


def test_cancellation_removes_entries():
    # in one variable a packed key is the exponent itself
    a = {1: 1, 0: 1}
    b = {1: 1, 0: -1}
    # (x + 1)(x - 1) = x^2 - 1: the x-terms cancel and must not be stored
    out = kernels.mul_terms(a, b)
    assert out == {2: 1, 0: -1}


def test_det_terms_leaves_no_cyclic_garbage():
    # the memo of minors must die with the call, not wait for the cyclic GC
    rng = random.Random(4)
    rows = [[MultiPoly(2, _rand_terms(rng, 2, 3)).terms for _ in range(4)] for _ in range(4)]
    gc.collect()
    gc.disable()
    try:
        kernels.det_terms(rows, kernels.mul_terms)
        assert gc.collect() == 0
    finally:
        gc.enable()
