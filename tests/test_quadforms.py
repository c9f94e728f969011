"""Intersection forms and exact inertia."""

import random
from fractions import Fraction

import pytest

from schurhr.bundles import SplitBundle, schur_class
from schurhr.cohomology import CohClass, Space
from schurhr.errors import DegreeMismatchError
from schurhr.partitions import partitions_of
from schurhr.quadforms import InertiaTriple, inertia, intersection_form


def test_convex_mix_matrix():
    from schurhr.analysis import p2p3_convex_example

    for t in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3)):
        res = p2p3_convex_example(t)
        assert res["matrix"] == ((t, 2 * t), (2 * t, 1 + 2 * t))
        assert inertia(res["matrix"]) == InertiaTriple(2, 0, 0)
        assert not inertia(res["matrix"]).is_hr


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
    # zero diagonal forces the congruence step
    assert inertia(((0, 5), (5, 0))) == InertiaTriple(1, 1, 0)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        inertia(((0, 1), (2, 0)))


def test_hr_predicates():
    assert inertia(((1, 2), (2, 3))).is_hr
    assert not inertia(((0, 0), (0, 1))).is_hr
    assert inertia(((0, 0), (0, 1))).is_weak_hr
    assert not inertia(((1, 0), (0, 1))).is_hr
    assert not inertia(((1, 0), (0, 1))).is_weak_hr
    assert not inertia(((-1, 0), (0, -1))).is_weak_hr  # negative definite
    assert inertia(((0, 0), (0, 0))).is_weak_hr


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
        assert inertia(m).is_hr == inertia(scaled).is_hr
        assert inertia(m).is_weak_hr == inertia(scaled).is_weak_hr


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
            assert inertia(intersection_form(omega, X)).is_hr


def test_intersection_form_symmetry_by_construction():
    X = Space([2, 2, 2])
    E = SplitBundle(X, [(1, 1, 0), (0, 1, 1)])
    m = intersection_form(schur_class((2, 2), E), X)
    for i in range(3):
        for j in range(3):
            assert m[i][j] == m[j][i]


def _charpoly(m):
    """Coefficients c_0..c_n of det(x I - M) by Faddeev-LeVerrier."""
    n = len(m)
    c = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = M M_{k-1} + c_{n-k+1} I, then c_{n-k} = -tr(M M_k) / k
        mk = [[sum(m[i][l] * mk[l][j] for l in range(n)) + (c[n - k + 1] if i == j else 0)
               for j in range(n)] for i in range(n)]
        tr = sum(m[i][l] * mk[l][i] for i in range(n) for l in range(n))
        c[n - k] = -tr / k
    return c


def _sign_changes(coeffs):
    signs = [x > 0 for x in coeffs if x != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _descartes_inertia(m):
    """Inertia from the characteristic polynomial.  Its roots are all real,
    so Descartes' rule counts them exactly: sign changes of p(x) give the
    positive roots, those of p(-x) the negative ones, and the zero roots are
    the vanishing low-order coefficients."""
    c = _charpoly(m)
    n_zero = next(i for i, x in enumerate(c) if x != 0)
    reflected = [x if i % 2 == 0 else -x for i, x in enumerate(c)]
    return InertiaTriple(_sign_changes(c), _sign_changes(reflected), n_zero)


def test_inertia_agrees_with_descartes_rule():
    rng = random.Random(43)
    for trial in range(600):
        n = rng.randint(1, 8)
        # small entries, and entries up to 10^9 over denominators up to 997
        hi, den = (4, 3) if trial % 4 else (10 ** 9, 997)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.6:
                    m[i][j] = m[j][i] = Fraction(rng.randint(-hi, hi), rng.randint(1, den))
        if trial % 2:
            for i in range(n):  # every pivot needs the congruence step
                m[i][i] = Fraction(0)
        if trial % 5 == 0 and n > 1:  # a zero block on the diagonal
            b = rng.randint(1, n - 1)
            for i in range(b):
                for j in range(b):
                    m[i][j] = Fraction(0)
        if trial % 3 == 0:  # low rank: S^T M S with a singular S
            s = [[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
            s[rng.randrange(n)] = [Fraction(0)] * n
            m = _congruence(m, s)
        t, want = inertia(m), _descartes_inertia(m)
        assert t == want, m
        # the predicates, from the oracle's counts
        assert t.is_hr == (want.n_zero == 0 and want.n_plus == 1), m
        assert t.is_weak_hr == (want.n_plus <= 1 and (want.n_plus == 1 or want.n_zero >= 1)), m


def test_inertia_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="not square"):
        inertia(((1, 2), (2,)))
