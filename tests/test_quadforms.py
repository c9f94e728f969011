"""Intersection forms and exact inertia."""

import random
from fractions import Fraction

import pytest

from schurhr.bundles import SplitBundle, schur_class
from schurhr.cohomology import CohClass, Space
from schurhr.errors import DegreeMismatchError
from schurhr.partitions import partitions_of
from schurhr.quadforms import (InertiaTriple, inertia, intersection_form, is_hr,
                               is_weak_hr)


def test_convex_mix_matrix():
    from schurhr.analysis import p2p3_convex_example

    for t in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3)):
        res = p2p3_convex_example(t)
        assert res["matrix"] == ((t, 2 * t), (2 * t, 1 + 2 * t))
        assert res["inertia"] == InertiaTriple(2, 0, 0)
        assert not res["is_hr"]


def test_intersection_form_examples():
    X = Space([2, 3])
    a, b = X.h11_basis()
    omega = a * a * b
    assert intersection_form(omega, X) == ((0, 0), (0, 1))
    P4 = Space([4])
    t = P4.h11_basis()[0]
    assert intersection_form(t * t, P4) == ((1,),)


def test_intersection_form_rejects_wrong_degree():
    X = Space([2, 3])
    a, b = X.h11_basis()
    with pytest.raises(DegreeMismatchError):
        intersection_form(a * b, X)  # degree 2, need 3
    with pytest.raises(DegreeMismatchError):
        intersection_form(a * a * b + a, X)  # mixed degrees


def test_inertia_examples():
    assert inertia(((1, 0), (0, -1))) == InertiaTriple(1, 1, 0)
    assert inertia(
        ((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 2)))
    ) == InertiaTriple(2, 0, 0)
    assert inertia(((0, 0), (0, 0))) == InertiaTriple(0, 0, 2)
    # zero diagonal forces the hyperbolic block path
    assert inertia(((0, 5), (5, 0))) == InertiaTriple(1, 1, 0)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        inertia(((0, 1), (2, 0)))


def test_hr_predicates():
    assert is_hr(((1, 2), (2, 3)))
    assert not is_hr(((0, 0), (0, 1)))
    assert is_weak_hr(((0, 0), (0, 1)))
    assert not is_hr(((1, 0), (0, 1)))
    assert not is_weak_hr(((1, 0), (0, 1)))
    assert not is_weak_hr(((-1, 0), (0, -1)))  # negative definite
    assert is_weak_hr(((0, 0), (0, 0)))


def test_hr_scale_invariance():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = tuple(tuple(c * x for x in row) for row in m)
        assert is_hr(m) == is_hr(scaled)
        assert is_weak_hr(m) == is_weak_hr(scaled)


def _random_invertible(rng, n):
    # product of elementary operations keeps the determinant visibly nonzero
    s = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            c = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
            for k in range(n):
                s[i][k] *= c
        else:
            c = Fraction(rng.randint(-2, 2))
            for k in range(n):
                s[i][k] += c * s[j][k]
    return s


def _congruence(m, s):
    """S^T M S."""
    n = len(m)
    ms = [[sum(m[i][k] * s[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(s[k][i] * ms[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_sylvester_congruence_invariance():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        s = _random_invertible(rng, n)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert inertia(_congruence(identity, s)).n_plus == n  # S^T S > 0
        assert inertia(m) == inertia(_congruence(m, s))


def test_ample_powers_have_one_positive_eigenvalue():
    # classical fact on every product with total dimension at most 7
    rng = random.Random(37)
    for d in range(2, 8):
        for shape in partitions_of(d):
            X = Space(shape.normalized)
            h = CohClass.linear(X, [rng.randint(1, 3) for _ in range(X.k)])
            omega = h ** (d - 2)
            assert is_hr(intersection_form(omega, X))


def test_intersection_form_symmetry_by_construction():
    X = Space([2, 2, 2])
    E = SplitBundle(X, [(1, 1, 0), (0, 1, 1)])
    m = intersection_form(schur_class((2, 2), E), X)
    for i in range(3):
        for j in range(3):
            assert m[i][j] == m[j][i]
