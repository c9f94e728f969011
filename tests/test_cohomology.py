"""The truncated ring: relations, integration, pairing."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schurhr import kernels
from schurhr.bundles import SplitBundle
from schurhr.cohomology import CohClass, Space, evaluate_terms
from schurhr.errors import SpaceMismatchError
from schurhr.polyring import MultiPoly


def test_space_validation():
    with pytest.raises(ValueError):
        Space([])
    with pytest.raises(ValueError):
        Space([2, 0])
    assert Space([2, 3]).dim == 5


def test_truncation_relations():
    X = Space([2, 3])
    a, b = X.h11_basis()
    assert (a * a * a).is_zero
    assert a * (a * a) == CohClass.zero(X)
    assert (a * a * b * b) * b == CohClass(X, {(2, 3): 1})
    P2 = Space([2])
    t = P2.h11_basis()[0]
    assert t * t == CohClass(P2, {(2,): 1})


def test_integration():
    X = Space([2, 3])
    a, b = X.h11_basis()
    assert (a**2 * b**3).integrate() == 1
    assert (a**2 * b**2).integrate() == 0
    P4 = Space([4])
    t = P4.h11_basis()[0]
    assert (7 * t**4).integrate() == 7


def test_h11_basis():
    assert len(Space([2, 3]).h11_basis()) == 2
    assert len(Space([5]).h11_basis()) == 1
    assert len(Space([1, 1, 1]).h11_basis()) == 3


def _random_class(rng, X, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, n) for n in X.factors)
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return CohClass(X, terms)


def test_ring_axioms_on_random_classes():
    rng = random.Random(3)
    X = Space([2, 2, 1])
    for _ in range(30):
        u, v, w = (_random_class(rng, X) for _ in range(3))
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert (u * v).integrate() == (v * u).integrate()


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatchError):
        Space([2]).h11_basis()[0] * Space([3]).h11_basis()[0]


def _monomials_of_degree(X, p):
    out = []
    for exps in itertools.product(*(range(n + 1) for n in X.factors)):
        if sum(exps) == p:
            out.append(exps)
    return sorted(out)


def test_poincare_pairing_is_a_permutation_matrix():
    for factors in [(2, 3), (1, 1, 2), (4,)]:
        X = Space(factors)
        d = X.dim
        for p in range(d + 1):
            rows = _monomials_of_degree(X, p)
            cols = _monomials_of_degree(X, d - p)
            mat = [
                [
                    (CohClass(X, {r: 1}) * CohClass(X, {c: 1})).integrate()
                    for c in cols
                ]
                for r in rows
            ]
            # exactly one 1 in each row and column
            for row in mat:
                assert sorted(row) == [0] * (len(cols) - 1) + [1]
            for j in range(len(cols)):
                col = [mat[i][j] for i in range(len(rows))]
                assert sorted(col) == [0] * (len(rows) - 1) + [1]


def _class_det(rows):
    """The determinant of a square matrix of classes of one space, by
    ``kernels.det_terms`` over the ring's capped multiply."""
    space = rows[0][0].space

    def mul(a, b):
        return kernels.mul_terms_capped(a, b, space.bias, space.guard)

    return CohClass._raw(space, kernels.det_terms([[x.terms for x in r] for r in rows], mul))


def test_det_terms_over_classes_matches_expansion_by_hand():
    X = Space([2, 2])
    a, b = X.h11_basis()
    assert _class_det([[a, b], [b, a]]) == a * a - b * b
    assert _class_det([[a, CohClass.zero(X)], [b, b]]) == a * b
    with pytest.raises(ValueError, match="empty"):
        kernels.det_terms([], kernels.mul_terms)
    with pytest.raises(ValueError, match="not square"):
        kernels.det_terms([[a.terms, b.terms], [a.terms]], kernels.mul_terms)
    with pytest.raises(ValueError, match="not square"):
        kernels.det_terms([[]], kernels.mul_terms)


# P^2 x P^1: a small ring with zero divisors (tau_1^3 = tau_2^2 = 0)
_X21 = Space([2, 1])
_classes = st.builds(
    lambda d: CohClass(_X21, d),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                    st.integers(-3, 3), max_size=4),
)


def _square_pair(n):
    mat = st.lists(st.lists(_classes, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(mat, mat)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(_square_pair))
def test_det_terms_over_classes_is_multiplicative(pair):
    a, b = pair
    n = len(a)
    ab = [[sum((a[i][k] * b[k][j] for k in range(n)), CohClass.zero(_X21))
           for j in range(n)] for i in range(n)]
    assert _class_det(ab) == _class_det(a) * _class_det(b)


def _term_dicts(r):
    coeffs = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * r), coeffs, max_size=5)
    return st.tuples(st.lists(terms, max_size=3),
                     st.lists(_classes, min_size=r, max_size=r))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(_term_dicts))
def test_evaluate_terms_matches_horner_substitution(inst):
    # each monomial formed once for every polynomial, against the Horner
    # scheme of MultiPoly.substitute, one polynomial at a time
    polys, classes = inst
    polys = [MultiPoly(len(classes), p) for p in polys]
    want = [p.substitute(classes) for p in polys]
    assert evaluate_terms([p.terms for p in polys], classes) == want


def test_evaluate_terms_needs_classes_of_one_space():
    a = Space([2]).h11_basis()[0]
    with pytest.raises(ValueError):
        evaluate_terms([{(): 1}], [])
    with pytest.raises(SpaceMismatchError):
        evaluate_terms([{(1, 1): 1}], [a, Space([3]).h11_basis()[0]])
    assert evaluate_terms([], [a]) == []
    want = [5 * CohClass.unit(a.space), a * a]
    # in one variable a packed key is the exponent itself
    assert evaluate_terms([{0: 5}, {2: 1, 3: 7}], [a]) == want


def test_serialization_round_trip():
    X = Space([2, 3])
    u = CohClass(X, {(1, 2): Fraction(5, 3), (0, 0): -2})
    assert CohClass.from_json(u.to_json(), X) == u
    assert Space.from_json({"factors": [2, 3]}) == X


def test_value_types_pickle_and_copy():
    X = Space([2, 3])
    values = [
        MultiPoly(2, {(2, 0): Fraction(1, 3), (0, 1): -4}),
        CohClass(X, {(1, 2): Fraction(5, 3), (0, 0): -2}),
        X,
        SplitBundle(X, [(1, 0), (0, 2)], (Fraction(1, 2), 0)),
    ]
    for v in values:
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v)):
            assert type(twin) is type(v) and twin == v
            with pytest.raises(AttributeError, match="immutable"):
                twin.space = None


def test_construction_truncates_eagerly():
    X = Space([1, 1])
    u = CohClass(X, {(2, 0): 7, (1, 1): 1})
    assert u == CohClass(X, {(1, 1): 1})


# CohClass is MultiPoly modulo tau_j^(n_j + 1): the two subclasses of
# kernels.TermElement must agree once the terms past the factors are dropped.

@st.composite
def _space_and_polys(draw):
    factors = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    k = len(factors)
    poly = st.dictionaries(
        st.tuples(*(st.integers(0, n + 1) for n in factors)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        max_size=4,
    ).map(lambda terms: MultiPoly(k, terms))
    return Space(factors), draw(poly), draw(poly)


def _truncated(p, X):
    return MultiPoly(X.k, {e: c for e, c in p.exps_terms().items()
                           if all(x <= n for x, n in zip(e, X.factors))})


@settings(max_examples=120, deadline=None)
@given(_space_and_polys(), st.integers(0, 4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_cohclass_agrees_with_truncated_multipoly(case, n, c):
    X, p, q = case
    u, v = CohClass(X, p.exps_terms()), CohClass(X, q.exps_terms())
    assert MultiPoly(X.k, u.exps_terms()) == _truncated(p, X)
    pairs = [(u + v, p + q), (u - v, p - q), (u * v, p * q), (u ** n, p ** n),
             (u.scale(c), p.scale(c)), (-u, -p), (u + c, p + c), (c - u, c - p)]
    for coh, poly in pairs:
        assert coh.space == X
        assert MultiPoly(X.k, coh.exps_terms()) == _truncated(poly, X)
    const = _truncated(p, X).coefficient((0,) * X.k)
    for m in (0, 1, const, const + 1):
        assert (u == m) == (_truncated(p, X) == m)


def test_multipoly_and_cohclass_do_not_mix():
    X = Space([2])
    u, p = CohClass.unit(X), MultiPoly.one(1)
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(p, u)
        with pytest.raises(TypeError):
            op(u, p)
    assert u != p


@st.composite
def _classes_to_pair(draw):
    factors = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    X = Space(factors)
    cls = st.dictionaries(
        st.tuples(*(st.integers(0, n) for n in factors)),
        st.one_of(st.integers(-4, 4),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4)),
        max_size=5,
    ).map(lambda terms: CohClass(X, terms))
    return draw(cls), draw(cls)


@settings(max_examples=200, deadline=None)
@given(_classes_to_pair())
def test_pairing_is_the_integral_of_the_product(pair):
    # zero classes and degrees that do not add up to dim are among the draws
    a, b = pair
    want = (a * b).integrate()
    assert a.pairing(b) == want and b.pairing(a) == want
    assert type(a.pairing(b)) is int or a.pairing(b).denominator > 1


def test_pairing_reads_zero_off_the_top_degree():
    X = Space([2, 1])
    t1, t2 = X.h11_basis()
    assert (t1 * t2).pairing(t1) == 1
    assert t1.pairing(t1) == 0  # degrees 1 + 1 < dim 3
    assert (t1 * t1).pairing(t1 * t2) == 0  # past the top
    assert CohClass.zero(X).pairing(t1 * t2) == 0
    with pytest.raises(SpaceMismatchError):
        t1.pairing(Space([3]).h11_basis()[0])
