"""Frequency-sequence tests: matrix route, root route, combinations."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from schurhr import kernels
from schurhr.analysis import (_first_negative_shape, _virtual_h,
                              p2p3_convex_example, polya_check_minors,
                              polya_check_roots, polya_combination_class)
from schurhr.bundles import SplitBundle, schur_class
from schurhr.cohomology import CohClass, Space
from schurhr.errors import PreconditionError
from schurhr.partitions import dual_in_box, partitions_in_box, partitions_of
from schurhr.quadforms import inertia, intersection_form
from schurhr.realroots import _root_counts, has_only_real_roots


def _combination(mus):
    # s_(1)^(i)(E) h^i on P^1 x P^2, E = O(1,0) + O(0,1), h = H1 + H2
    space = Space((1, 2))
    E = SplitBundle(space, [(1, 0), (0, 1)])
    return polya_combination_class((1,), E, CohClass.linear(space, (1, 1)), mus)


def test_polya_sequence_validation():
    for verify in (polya_check_minors, polya_check_roots, _combination):
        with pytest.raises(PreconditionError, match="entries must be nonnegative"):
            verify([1, -1])
        verify(["1/2", 2])  # entries may be rational strings


def test_minor_route_examples():
    assert polya_check_minors([1, 2, 1])
    assert not polya_check_minors([1, 0, 1])
    assert polya_check_minors([1])


def test_root_route_examples():
    assert polya_check_roots([1, 2, 1])
    assert not polya_check_roots([1, 0, 1])
    assert polya_check_roots([2, 3, 1])


def test_minor_route_length_cap():
    with pytest.raises(PreconditionError):
        polya_check_minors([1] * 9)


def test_sturm_machinery():
    # (z+1)^2 (z+2): three real roots, two distinct
    poly = [2, 5, 4, 1]
    assert _root_counts(poly)[0] == 2
    assert has_only_real_roots(poly)
    assert not has_only_real_roots([1, 0, 0, 1])
    assert has_only_real_roots([0, 0, 1])  # z^2
    assert has_only_real_roots([5])
    assert has_only_real_roots([])
    # repeated complex pair: (1 + z^2)^2
    assert not has_only_real_roots([1, 0, 2, 0, 1])
    # rational coefficients
    assert has_only_real_roots([Fraction(1, 2), Fraction(3, 2), 1])
    # z^3 + z = z (z^2 + 1): one real root of three
    assert _root_counts([0, 1, 0, 1])[0] == 1
    assert not has_only_real_roots([0, 1, 0, 1])
    # z^2 (z^2 + 1): a double root at zero and a complex pair
    assert _root_counts([0, 0, 1, 0, 1])[0] == 1
    assert not has_only_real_roots([0, 0, 1, 0, 1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=6),
                min_size=1, max_size=5))
def test_sturm_counts_products_of_linear_factors(roots):
    # prod (z + r_i), low degree first: its real roots are exactly the -r_i
    poly = [Fraction(1)]
    for r in roots:
        poly = [a * r + b for a, b in zip(poly + [0], [0] + poly)]
    assert _root_counts(poly)[0] == len(set(roots))
    assert has_only_real_roots(poly)


_factor_roots = st.lists(st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                                   st.integers(1, 3)), max_size=4)


@settings(max_examples=150, deadline=None)
@given(_factor_roots, st.integers(0, 3),
       st.fractions(min_value=0, max_value=5, max_denominator=4).filter(bool),
       st.integers(0, 2))
def test_sturm_counts_repeated_roots(factors, j, c, k):
    # prod (z + r_i)^(m_i) * z^j * (z^2 + c)^k: the distinct real roots are
    # the -r_i and, when j > 0, zero; it is real-rooted exactly when k = 0
    poly = [1]
    for r, m in factors:
        for _ in range(m):
            poly = [a * r + b for a, b in zip(poly + [0], [0] + poly)]
    for _ in range(k):
        poly = [a * c + b for a, b in zip(poly + [0, 0], [0, 0] + poly)]
    poly = [0] * j + poly
    roots = {-r for r, _ in factors} | ({0} if j else set())
    assert _root_counts(poly)[0] == len(roots)
    assert has_only_real_roots(poly) == (k == 0)


def _shapes(width, rows, prefix=()):
    # shapes of 1..rows parts <= width; parent before children, widest first
    for w in range(prefix[-1] if prefix else width, 0, -1):
        lam = prefix + (w,)
        yield lam
        if len(lam) < rows:
            yield from _shapes(width, rows, lam)


def _jt_det(g, lam):
    # det(g[lam_i - i + j]) over constant term dicts, one shape at a time
    k = len(lam)
    idx = [[lam[i] - i + j for j in range(k)] for i in range(k)]
    rows = [[{(): g[t]} if t >= 0 and g[t] else {} for t in r] for r in idx]
    return kernels.det_terms(rows, kernels.mul_terms).get((), 0)


def test_minor_walk_finds_the_first_negative_shape():
    # signed g, so negative determinants turn up at every depth; the walk
    # shares prefix minors and must agree with one determinant per shape
    rng = random.Random(73)
    depths = set()
    for _ in range(300):
        rows, width = rng.randint(1, 5), rng.randint(1, 5)
        lo = rng.choice((-4, -1, 0))
        g = [1] + [rng.randint(lo, 6) for _ in range(width + rows)]
        want = next((lam for lam in _shapes(width, rows)
                     if len(lam) >= 2 and _jt_det(g, lam) < 0), None)
        got = _first_negative_shape(g, rows, width)
        assert got == want, (g, rows, width)
        depths.add(len(got) if got else None)
    assert depths == {None, 2, 3, 4, 5}


def test_window_walk_checks_every_minor():
    # the forward walk stands in for the square window: by Littlewood-Richardson
    # a window minor is a positive sum of shapes it visits, so any negative
    # minor, found here one determinant at a time, must fail the sequence
    rng = random.Random(29)
    negative = 0
    for _ in range(300):
        L = rng.randint(1, 5)
        mu = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(L)]
        T = [[{(): mu[i - j]} if i >= j and mu[i - j] else {} for j in range(L)]
             for i in range(L)]
        if any(
            kernels.det_terms([[T[r][c] for c in cols] for r in rows],
                              kernels.mul_terms).get((), 0) < 0
            for k in range(1, L + 1)
            for rows in itertools.combinations(range(L), k)
            for cols in itertools.combinations(range(L), k)
        ):
            negative += 1
            assert not polya_check_minors(mu), mu
    assert 0 < negative < 300


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=6, max_denominator=3),
                min_size=1, max_size=6))
@example([1, 7, 7, 2])  # reversed h < 0 from 13 on, past the width cap
def test_minor_route_is_reversal_invariant(mus):
    # the reversed sequence has no walk of its own; the verdict must not see it
    assert polya_check_minors(mus) == polya_check_minors(mus[::-1])


def _sign(x):
    return (x > 0) - (x < 0)


def test_reversal_complements_shapes_in_the_box():
    # s_nu(1/x) (x_1...x_n)^N = s_nubar(x): the reversed virtual Schur
    # determinant at nu has the sign of the forward one at the complement of
    # nu in the n x N box, whatever the signs of the inner entries
    rng = random.Random(83)
    for _ in range(60):
        n, N = rng.randint(1, 4), rng.randint(1, 4)
        mu = ([rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(n - 1)]
              + [rng.randint(1, 5)])
        fwd = _virtual_h(mu, N + n)
        rev = _virtual_h(mu[::-1], N + n)
        for nu in partitions_in_box(N, n):
            want = _sign(_jt_det(fwd, dual_in_box(nu, N, n).padded(n)))
            assert _sign(_jt_det(rev, nu.padded(n))) == want, (mu, nu)


def test_routes_agree_on_log_concave_traps():
    # these pass every small-window minor yet have complex roots; the
    # deepened matrix route must still reject them
    for seq in [(1, 1, 1), (2, 3, 2), (5, 6, 2), (2, 6, 5), (1, 1, 1, 1),
                (3, 9, 7), (1, 2, 2, 1), (1, 1, 1, 1, 1, 1), (5, 4, 1)]:
        assert not polya_check_roots(seq)
        assert not polya_check_minors(seq)


def test_routes_agree_on_random_corpus():
    rng = random.Random(59)
    checked = 0
    for _ in range(300):
        L = rng.randint(1, 6)
        seq = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(L)]
        assert polya_check_minors(seq) == polya_check_roots(seq)
        checked += 1
    assert checked == 300


def test_products_of_linear_factors_pass_both_routes():
    rng = random.Random(61)
    for _ in range(40):
        coeffs = [Fraction(1)]
        for _ in range(rng.randint(1, 5)):
            t = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for j, a in enumerate(coeffs):
                nxt[j] += a * t
                nxt[j + 1] += a
            coeffs = nxt
        assert polya_check_roots(coeffs)
        assert polya_check_minors(coeffs)


def test_binomial_rows_are_frequency_sequences():
    for n in range(1, 8):  # n = 7 is the longest row the minor route takes
        row = [comb(n, k) for k in range(n + 1)]
        assert polya_check_minors(row)
        assert polya_check_roots(row)


def test_combination_class_single_term():
    X = Space([2, 2])
    E = SplitBundle(X, [(1, 0), (0, 1)])
    h = sum(X.h11_basis(), CohClass.zero(X))
    omega = polya_combination_class((1, 1), E, h, [1, 0, 0])
    assert omega == schur_class((1, 1), E)


def test_combination_class_weak_hr_for_binomial_weights():
    rng = random.Random(67)
    for _ in range(15):
        X = Space([2, rng.randint(2, 3)])
        d = X.dim
        E = SplitBundle(
            X,
            [tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(rng.randint(1, 3))],
        )
        lam = rng.choice(list(partitions_of(d - 2, max_part=E.rank)))
        h = CohClass.linear(X, [rng.randint(0, 2) for _ in range(2)])
        mus = [comb(d - 2, k) for k in range(d - 1)]
        omega = polya_combination_class(lam, E, h, mus)
        assert inertia(intersection_form(omega, X)).is_weak_hr


def test_combination_class_preconditions():
    X = Space([2, 2])
    E = SplitBundle(X, [(1, 0)])
    h = X.h11_basis()[0]
    with pytest.raises(Exception):
        polya_combination_class((1, 1, 1), E, h, [1])  # wrong weight
    bad = SplitBundle(X, [(-1, 0)])
    with pytest.raises(PreconditionError):
        polya_combination_class((1, 1), bad, h, [1])


def test_failing_convex_mix_is_not_weak_hr():
    for t in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
        res = p2p3_convex_example(t)
        assert not inertia(res["matrix"]).is_weak_hr
        assert inertia(res["matrix"]).n_plus == 2
