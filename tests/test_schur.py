"""Schur polynomials: determinant route, tableau route, shift expansions."""

import functools
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schurhr import schur
from schurhr.partitions import Partition, partitions_in_box, partitions_up_to
from schurhr.polyring import FIELD, MultiPoly, elementary
from schurhr.schur import (_taylor_step, derived_all,
                           derived_chern, derived_schur, derived_table_check,
                           dual_reversal_check, elementary_row_check,
                           format_elementary, schur_jt, schur_ssyt)


def test_jt_examples():
    assert schur_jt((1, 1), 2) == MultiPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    c1, c2, c3 = (elementary(i, 3) for i in (1, 2, 3))
    assert schur_jt((1, 1, 1), 3) == c1 * c1 * c1 - 2 * (c1 * c2) + c3
    assert schur_jt((2, 1), 2) == MultiPoly(2, {(2, 1): 1, (1, 2): 1})


def test_jt_vanishes_iff_first_part_exceeds_vars():
    for lam in partitions_up_to(6):
        for e in (1, 2, 3):
            assert schur_jt(lam, e).is_zero == (lam.first > e)


def test_jt_stable_under_trailing_zeros():
    assert schur_jt((2, 1), 2) == schur_jt((2, 1, 0, 0), 2)


def _jt_by_laplace(parts, e):
    """det(elementary(lam_r - r + s, e)) over MultiPoly entries, expanded
    along the first remaining row; minors are memoised on their columns."""
    n = len(parts)

    @functools.lru_cache(maxsize=None)
    def det(cols):
        r = n - len(cols)
        if r == n:
            return MultiPoly.one(e)
        total = MultiPoly.zero(e)
        for pos, s in enumerate(cols):
            entry = elementary(parts[r] - r + s, e)
            if not entry.is_zero:
                total = total + (-1) ** pos * entry * det(cols[:pos] + cols[pos + 1:])
        return total

    return det(tuple(range(n)))


@pytest.mark.parametrize("e", range(5))
def test_jt_is_the_determinant_over_elementary_entries(e):
    # every shape of weight <= 8: the empty one, and many with lam_1 > e
    for lam in partitions_up_to(8):
        assert schur_jt(lam, e) == _jt_by_laplace(lam.parts, e), (lam, e)


def test_ssyt_route_examples():
    assert schur_ssyt((1, 1), 2) == schur_jt((1, 1), 2)
    # in the elementary-determinant convention the single column carries the
    # pure power; the single row dies once its first part exceeds the
    # variable count
    assert schur_ssyt((1, 1, 1), 1) == MultiPoly(1, {(3,): 1})
    assert schur_ssyt((3,), 1).is_zero
    p = schur_ssyt((2, 1), 3)
    # seven support monomials carrying eight tableaux in total
    assert len(p.terms) == 7
    assert sum(p.terms.values()) == 8
    assert p.coefficient((1, 1, 1)) == 2
    assert p.coefficient((2, 1, 0)) == 1


def test_two_routes_agree_small_sweep():
    for lam in partitions_up_to(6):
        for e in (1, 2, 3):
            assert schur_jt(lam, e) == schur_ssyt(lam, e)


def test_derived_examples_match_closed_forms():
    assert derived_schur((1, 1), 1, 2) == 3 * elementary(1, 2)
    assert derived_schur((1, 1), 2, 2) == MultiPoly.constant(3, 2)
    assert derived_schur((2,), 1, 4) == 3 * elementary(1, 4)


def test_derived_out_of_range_is_zero():
    assert derived_schur((2, 1), -1, 2).is_zero
    assert derived_schur((2, 1), 4, 2).is_zero
    assert derived_schur((2, 1), 0, 2) == schur_jt((2, 1), 2)


def test_derived_defining_identity_at_random_points():
    rng = random.Random(11)
    for lam in [(2, 1), (1, 1, 1), (3, 2)]:
        for e in (2, 3):
            polys = derived_all(lam, e)
            for _ in range(5):
                point = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(e)]
                t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                lhs = schur_jt(lam, e).evaluate([v + t for v in point])
                rhs = sum(p.evaluate(point) * t**i for i, p in enumerate(polys))
                assert lhs == rhs


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def shape_point_shift(draw):
    lam = draw(st.sampled_from(list(partitions_up_to(8))))
    e = draw(st.integers(1, 5))
    return lam, e, draw(st.lists(_rationals, min_size=e, max_size=e)), draw(_rationals)


@settings(max_examples=150, deadline=None)
@given(shape_point_shift())
def test_derived_slices_sum_to_the_shifted_polynomial(case):
    # the defining identity, with schur_jt's own evaluation as the oracle
    lam, e, x, t = case
    slices = derived_all(lam, e)
    assert len(slices) == lam.weight + 1
    assert slices[0] == schur_jt(lam, e)
    for i, p in enumerate(slices):
        assert p.is_zero or p.homogeneous_degree() == lam.weight - i
    total = sum(p.evaluate(x) * t**i for i, p in enumerate(slices))
    assert total == schur_jt(lam, e).evaluate([v + t for v in x])


def _unit(j):
    return 1 << FIELD * j


def _x_images(e):
    # D x_j = 1
    return [(1, -_unit(j)) for j in range(e)]


def _e_images(e):
    # D e_1 = e and D e_(j+1) = (e - j) e_j
    return [(e - j, (_unit(j - 1) if j else 0) - _unit(j)) for j in range(e)]


def _step(terms, i, images):
    # the step on terms keyed by exponent tuples of length 2
    return MultiPoly._raw(2, _taylor_step(MultiPoly(2, terms).terms, i, images)).exps_terms()


def test_taylor_step_rejects_an_inexact_division():
    # D(x1^2 + x1*x2) = 3*x1 + x2, and 3 is not a multiple of 2
    assert _step({(2, 0): 1, (1, 1): 1}, 1, _x_images(2)) == {(1, 0): 3, (0, 1): 1}
    with pytest.raises(ArithmeticError):
        _step({(2, 0): 1, (1, 1): 1}, 2, _x_images(2))
    # in e_1, e_2: D(e_1 * e_2) = 2 e_2 + e_1^2, and 1 is not a multiple of 2
    assert _step({(1, 1): 1}, 1, _e_images(2)) == {(0, 1): 2, (2, 0): 1}
    with pytest.raises(ArithmeticError):
        _step({(1, 1): 1}, 2, _e_images(2))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda e: st.tuples(st.just(e), st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * e), st.integers(-9, 9).filter(bool), max_size=6))))
def test_one_taylor_step_in_both_bases(case):
    # the step over the e-basis images, then e_k -> elementary(k, e), is the
    # step over the monomial images of the substituted polynomial
    e, terms = case
    elems = [elementary(k, e) for k in range(1, e + 1)]
    packed = MultiPoly(e, terms).terms
    lhs = MultiPoly._raw(e, _taylor_step(packed, 1, _e_images(e))).substitute(elems)
    x_terms = MultiPoly._raw(e, packed).substitute(elems).terms
    assert lhs == MultiPoly._raw(e, _taylor_step(x_terms, 1, _x_images(e)))


def test_e_basis_slices_are_the_shift_slices():
    # the Taylor operator in the e-basis against the one in the x-basis:
    # e_k -> elementary(k, e) takes every slice of derived_chern to the
    # slice of derived_all
    for lam in partitions_up_to(8):
        for e in range(1, 5):
            elems = [elementary(k, e) for k in range(1, e + 1)]
            formal = derived_chern(lam, e)
            slices = derived_all(lam, e)
            assert len(formal) == len(slices) == lam.weight + 1
            for terms, want in zip(formal, slices):
                assert MultiPoly._raw(e, terms).substitute(elems) == want


def test_clear_caches_drops_the_e_basis_slices():
    first = derived_chern((2, 1), 3)
    assert derived_chern((2, 1), 3) is first
    schur.clear_caches()
    again = derived_chern((2, 1), 3)
    assert again is not first and again == first


def test_derived_coefficients_nonnegative():
    for lam in partitions_up_to(6):
        for e in (1, 2, 3):
            for p in derived_all(lam, e):
                assert all(c > 0 for c in p.terms.values())


def test_derived_top_coefficient_positive_constant():
    for lam, e in [((2, 1), 3), ((1, 1), 2), ((3,), 3)]:
        lam = Partition(lam)
        top = derived_all(lam, e)[lam.weight]
        assert max(sum(exps) for exps in top.exps_terms()) == 0
        assert top.coefficient((0,) * e) > 0


def test_derived_table_all_pass():
    for e in (3, 4, 5):
        report = derived_table_check(e)
        assert len(report) == 20
        assert all(ok for _, ok in report)


def test_derived_table_needs_three_vars():
    with pytest.raises(ValueError):
        derived_table_check(2)


def test_elementary_row_identity():
    for e in range(1, 6):
        for p in range(e + 1):
            assert elementary_row_check(p, e)


def test_dual_reversal_examples():
    assert dual_reversal_check((2, 1), 2, 2)
    assert dual_reversal_check((0,), 3, 1)
    assert dual_reversal_check((2, 2), 2, 3)


def test_dual_reversal_random_boxes():
    rng = random.Random(7)
    for _ in range(40):
        e = rng.randint(1, 4)
        N = rng.randint(1, 5)
        lam = rng.choice(list(partitions_in_box(e, N)))
        assert dual_reversal_check(lam, e, N)


def test_elementary_basis_round_trip():
    p = schur_jt((1, 1, 1), 3)
    basis = derived_chern((1, 1, 1), 3)[0]
    rebuilt = MultiPoly.zero(3)
    for key, c in MultiPoly._raw(3, basis).exps_terms().items():
        term = MultiPoly.one(3)
        for i, k in enumerate(key):
            for _ in range(k):
                term = term * elementary(i + 1, 3)
        rebuilt = rebuilt + c * term
    assert rebuilt == p
    assert format_elementary(basis, 3) == "c1^3 - 2*c1*c2 + c3"


@pytest.mark.parametrize("route", [
    lambda e: schur_jt((1, 1), e),
    lambda e: schur_jt((), e),
    lambda e: schur_ssyt((1, 1), e),
    lambda e: derived_chern((1, 1), e),
    lambda e: derived_chern((), e),
    lambda e: derived_schur((2,), 5, e),
    lambda e: elementary(1, e),
])
def test_negative_variable_counts_are_rejected(route):
    with pytest.raises(ValueError, match="variable count must be nonnegative"):
        route(-1)


def test_cache_is_thread_safe():
    from schurhr import schur as schur_mod

    schur_mod.clear_caches()
    results = []

    def work():
        results.append(schur_jt((3, 2, 1), 3))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
