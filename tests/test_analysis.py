"""Positivity, index inequalities and log-concave sequences."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from schurhr.analysis import (Sequence, chern_power_sequence,
                              derived_value_sequence, fl_positivity,
                              hodge_index_check, is_log_concave,
                              is_ultra_log_concave, kt_sequence,
                              log_concavity_violations, monomial_positivity,
                              pair_value_sequence, schur_hodge_improved_check,
                              twisted_schur_form)
from schurhr.bundles import (SplitBundle, derived_schur_class,
                             derived_schur_classes, schur_class)
from schurhr.cohomology import CohClass, Space
from schurhr.errors import DegreeMismatchError, PreconditionError
from schurhr.partitions import partitions_of
from schurhr.quadforms import inertia, intersection_form
from schurhr.rationals import canon


def _p2_bundle():
    X = Space([2])
    return X, SplitBundle(X, [(1,), (1,)])


def _p2p3_bundle():
    X = Space([2, 3])
    return X, SplitBundle(X, [(1, 0), (1, 0), (0, 1)])


def test_fl_positivity_examples():
    X, E = _p2_bundle()
    assert fl_positivity(E, (1, 1), 0) == 3
    assert fl_positivity(E, (2, 1), 1) >= 0
    assert fl_positivity(E, (3,), 1) == 0  # first part above the rank


def test_fl_positivity_preconditions():
    X, E = _p2_bundle()
    with pytest.raises(DegreeMismatchError):
        fl_positivity(E, (1, 1), 1)
    bad = SplitBundle(X, [(-1,)])
    with pytest.raises(PreconditionError):
        fl_positivity(bad, (1, 1), 0)


def test_monomial_positivity_reduces_to_single():
    X, E = _p2_bundle()
    assert monomial_positivity([E], [(1, 1)], [0]) == fl_positivity(E, (1, 1), 0)


def test_monomial_positivity_example():
    X = Space([3])
    E1 = SplitBundle(X, [(1,), (1,)])
    E2 = SplitBundle(X, [(2,)])
    v = monomial_positivity([E1, E2], [(2,), (1,)], [0, 0])
    assert v >= 0
    assert monomial_positivity([E1, E2], [(3,), (0,)], [0, 0]) == 0


def test_hodge_index_equality_case():
    P3 = Space([3])
    t = P3.h11_basis()[0]
    res = hodge_index_check(t, t, t)
    assert res.lhs == res.rhs == 1
    assert res.ok


def test_hodge_index_on_product_example():
    X, E = _p2p3_bundle()
    a, b = X.h11_basis()
    omega = schur_class((1, 1, 1), E)
    res = hodge_index_check(omega, a, b)
    assert (res.lhs, res.rhs) == (3, 4)
    assert res.ok
    res2 = hodge_index_check(omega, a - 2 * b, b)
    assert (res2.lhs, res2.rhs) == (15, 16)
    assert res2.ok


def test_hodge_index_precondition_failure_is_loud():
    X = Space([2, 2])
    a, b = X.h11_basis()
    # two positive eigenvalues: the pairing of a^2 + b^2 style forms
    omega = a * a + b * b
    with pytest.raises(PreconditionError):
        hodge_index_check(omega, a, b)


def test_improved_inequality_examples():
    P3 = Space([3])
    E = SplitBundle(P3, [(1,), (1,)])
    t = P3.h11_basis()[0]
    res = schur_hodge_improved_check(E, t, (1, 1), t)
    assert (res.lhs, res.rhs) == (18, 36)
    assert res.ok
    zero = CohClass.zero(P3)
    res0 = schur_hodge_improved_check(E, t, (1, 1), zero)
    assert res0.lhs == res0.rhs == 0
    assert res0.ok


def test_improved_inequality_on_product():
    X, E = _p2p3_bundle()
    a, b = X.h11_basis()
    res = schur_hodge_improved_check(E, a + b, (2, 1, 1), a - b)
    assert res.ok


def test_kt_sequence_example():
    X, E = _p2_bundle()
    seq = kt_sequence(E, E, (1, 1), (1, 1))
    assert seq.values == (9, 36, 9)
    assert seq.start == 0
    assert is_log_concave(seq)


def test_kt_sequence_forms_no_capped_product(monkeypatch):
    # with the slices given, each value is a pairing, not a product; the
    # slices served are those of the integral bundles E_b and F_b, and the
    # values must still be those of the rational classes
    from schurhr import analysis, bundles, kernels
    X, E = _p2p3_bundle()
    F = SplitBundle(X, [(0, 1), (1, 1)], (Fraction(1, 2), 0))
    lam, mu = (2, 1), (1, 1, 1)
    sE = bundles.derived_schur_classes(lam, E)
    sF = bundles.derived_schur_classes(mu, F)
    top = 6 - X.dim  # |lam| + |mu| - dim
    want = tuple((sE[top - i] * sF[i]).integrate() for i in range(top + 1))
    served = []
    for shape, bundle in [(lam, E), (mu, F)]:
        Bb = bundles._integral_roots(bundle)[1]
        served.append((shape, Bb, bundles.derived_schur_classes(shape, Bb)))
    products, real = [], kernels.mul_terms_capped

    def spy(*args):
        products.append(args)
        return real(*args)

    def stub(lam_, bundle, imax=None):
        [slices] = [s for shape, Bb, s in served
                    if shape == tuple(lam_.parts) and Bb == bundle]
        return slices

    monkeypatch.setattr(analysis, "derived_schur_classes", stub)
    monkeypatch.setattr(kernels, "mul_terms_capped", spy)
    seq = kt_sequence(E, F, lam, mu)
    assert products == []
    assert seq.values == want and seq.start == 0


# The integer route: kt_sequence, fl_positivity and monomial_positivity work
# on the slices of the integral bundles E_b and divide each number once.  The
# oracles below are the rational slices of E itself.

@st.composite
def _nef_bundle(draw, X):
    """A nef split bundle of rank 1-3 on X, its twist of denominator 1-6."""
    rank = draw(st.integers(1, 3))
    lines = draw(st.lists(st.tuples(*[st.integers(0, 2)] * X.k),
                          min_size=rank, max_size=rank))
    den = draw(st.integers(1, 6))
    twist = draw(st.tuples(*[st.integers(0, 2 * den)] * X.k))
    return SplitBundle(X, lines, [Fraction(t, den) for t in twist])


_spaces = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(Space)


def _shape(draw, weight, rank):
    return draw(st.sampled_from(list(partitions_of(weight, max_part=rank))))


@st.composite
def _kt_instances(draw):
    """E, F, lam, mu with |lam| + |mu| >= dim; the weights reach the edges
    hi = 0 (|mu| = 0 or |lam| + |mu| = dim) and top - lo = 0."""
    X = draw(_spaces)
    E, F = draw(_nef_bundle(X)), draw(_nef_bundle(X))
    wl = draw(st.integers(0, X.dim + 1))
    wm = draw(st.integers(max(0, X.dim - wl), max(0, X.dim - wl) + 2))
    return E, F, _shape(draw, wl, E.rank), _shape(draw, wm, F.rank)


@settings(max_examples=60, deadline=None)
@given(_kt_instances())
@example((SplitBundle(Space([1, 2]), [(1, 0), (0, 1)], (Fraction(1, 6), Fraction(1, 4))),
          SplitBundle(Space([1, 2]), [(2, 1)], (Fraction(5, 3), 0)), (1, 1), (1,)))
@example((SplitBundle(Space([2]), [(1,), (0,)], (Fraction(1, 5),)),
          SplitBundle(Space([2]), [(1,)], (Fraction(1, 2),)), (), (2, 1)))
def test_kt_sequence_equals_the_pairings_of_rational_slices(inst):
    E, F, lam, mu = inst
    seq = kt_sequence(E, F, lam, mu)
    top = sum(lam) + sum(mu) - E.space.dim
    sE, sF = derived_schur_classes(lam, E), derived_schur_classes(mu, F)
    want = tuple(sE[top - i].pairing(sF[i])
                 for i in range(seq.start, min(sum(mu), top) + 1))
    assert seq.values == want
    assert all(type(v) is int or v.denominator > 1 for v in seq.values)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fl_positivity_is_the_integral_of_the_rational_slice(data):
    X = data.draw(_spaces)
    E = data.draw(_nef_bundle(X))
    i = data.draw(st.integers(0, 2))
    lam = _shape(data.draw, X.dim + i, E.rank)
    got, want = fl_positivity(E, lam, i), derived_schur_class(lam, i, E).integrate()
    assert got == want and type(got) is type(want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monomial_positivity_is_the_integral_of_the_rational_product(data):
    X = data.draw(_spaces)
    n = data.draw(st.integers(1, 3))
    cuts = sorted(data.draw(st.lists(st.integers(0, X.dim), min_size=n - 1,
                                     max_size=n - 1)))
    degrees = [b - a for a, b in zip([0, *cuts], [*cuts, X.dim])]
    bundles, lams, orders = [], [], []
    for d in degrees:
        E = data.draw(_nef_bundle(X))
        i = data.draw(st.integers(0, 2))
        bundles.append(E)
        lams.append(_shape(data.draw, d + i, E.rank))
        orders.append(i)
    want = CohClass.unit(X)
    for E, lam, i in zip(bundles, lams, orders):
        want = want * derived_schur_class(lam, i, E)
    # the product of the rational classes may hold Fraction(n, 1) (the
    # capped multiply does not canonicalize); the value must be canonical
    got, want = monomial_positivity(bundles, lams, orders), canon(want.integrate())
    assert got == want and type(got) is type(want)


def test_kt_sequence_pairs_integers_only(monkeypatch):
    # twists of denominator 6: every pairing inside kt_sequence is over ints
    X = Space([2, 2])
    E = SplitBundle(X, [(1, 0), (0, 1)], (Fraction(1, 2), Fraction(1, 3)))
    F = SplitBundle(X, [(1, 1), (0, 2)], (Fraction(5, 6), 0))
    lam, mu = (2, 1), (2, 1, 1)
    sE, sF = derived_schur_classes(lam, E), derived_schur_classes(mu, F)
    want = tuple(sE[3 - i].pairing(sF[i]) for i in range(4))
    seen, real = [], CohClass.pairing

    def spy(self, other):
        seen.extend(c for cls in (self, other) for c in cls.terms.values())
        return real(self, other)

    monkeypatch.setattr(CohClass, "pairing", spy)
    seq = kt_sequence(E, F, lam, mu)
    monkeypatch.undo()
    assert seq.values == want and any(type(v) is not int for v in want)
    assert seen and all(type(c) is int for c in seen)


def test_kt_sequence_range_and_preconditions():
    X, E = _p2_bundle()
    with pytest.raises(PreconditionError):
        kt_sequence(E, E, (1,), (0,))  # weights below the dimension
    F = SplitBundle(X, [(-1,)])
    with pytest.raises(PreconditionError):
        kt_sequence(E, F, (1, 1), (1, 1))


def test_single_row_shapes_give_elementary_slices():
    # on the single-row shape the shift slices are the lower Chern classes
    from schurhr.schur import derived_schur
    from schurhr.polyring import elementary

    for e in range(1, 5):
        for i in range(e + 1):
            assert derived_schur((e,), i, e) == elementary(e - i, e)


def test_chern_power_sequence_log_concave():
    rng = random.Random(41)
    for _ in range(20):
        X = Space([rng.randint(1, 3), rng.randint(1, 3)])
        E = SplitBundle(
            X,
            [
                tuple(rng.randint(0, 2) for _ in range(2))
                for _ in range(rng.randint(1, 4))
            ],
        )
        h = CohClass.linear(X, [rng.randint(0, 2) for _ in range(2)])
        assert is_log_concave(chern_power_sequence(E, h))


def test_is_log_concave_examples():
    assert is_log_concave(Sequence((1, 2, 3, 2, 1)))
    assert not is_log_concave(Sequence((1, 1, 2)))
    assert is_log_concave(Sequence((1, 3, 3, 1)))
    assert log_concavity_violations(Sequence((1, 1, 2))) == [("log-concavity", 1)]
    assert not is_log_concave([1, -1, 1])


def test_log_concavity_with_interior_zeros():
    # the bare defining inequality: interior zeros are fine when a
    # neighbouring product vanishes too
    assert is_log_concave([1, 0, 0, 1])
    assert not is_log_concave([1, 0, 1])


def test_derived_value_sequence_examples():
    seq = derived_value_sequence((1, 1), (1, 1))
    assert seq.values == (3, 6, 3)
    assert is_log_concave(seq)
    seq0 = derived_value_sequence((1, 1), (0, 0))
    assert seq0.values == (0, 0, 3)
    with pytest.raises(PreconditionError):
        derived_value_sequence((1, 1), (-1, 1))


def test_pair_value_sequence_examples():
    seq = pair_value_sequence((1,), (1,), 2, (1,), (1,))
    assert seq.values == (1, 1)
    assert is_log_concave(seq)
    zero = pair_value_sequence((2, 1), (1, 1), 4, (0, 0, 0), (1, 2))
    assert is_log_concave(zero)


def test_pair_value_sequence_fuzz():
    rng = random.Random(43)
    for _ in range(120):
        e1, e2 = rng.randint(1, 3), rng.randint(1, 3)
        from schurhr.acceptance import _rand_partition

        lam = _rand_partition(rng, rng.randint(1, 5), max_part=e1)
        mu = _rand_partition(rng, rng.randint(1, 5), max_part=e2)
        d = rng.randint(1, lam.weight + mu.weight)
        x = [Fraction(rng.randint(0, 10), rng.randint(1, 3)) for _ in range(e1)]
        y = [Fraction(rng.randint(0, 10), rng.randint(1, 3)) for _ in range(e2)]
        assert is_log_concave(pair_value_sequence(lam, mu, d, x, y))


def test_ultra_log_concavity_of_elementary_values():
    rng = random.Random(47)
    for e in range(1, 6):
        for _ in range(10):
            x = [Fraction(rng.randint(0, 9), rng.randint(1, 2)) for _ in range(e)]
            seq = derived_value_sequence((e,), x)
            assert is_ultra_log_concave(seq.values)


def test_twisted_forms_are_hr_for_positive_twists():
    rng = random.Random(53)
    X, E = _p2p3_bundle()
    for lam in [(3,), (1, 1, 1), (2, 1)]:
        for _ in range(5):
            t = Fraction(rng.randint(1, 8), rng.randint(1, 8))
            mat = twisted_schur_form(E, lam, (1, 1), min(t, Fraction(1)))
            assert inertia(mat).is_hr
        assert inertia(intersection_form(schur_class(lam, E), X)).is_weak_hr


def _hypothesis_cases():
    """(verifier call, the error type it documents) for every hypothesis a
    verifier states.  Where one call breaks two hypotheses, the type says
    which one the verifier checks first."""
    from schurhr import analysis as A
    from schurhr.polyring import MultiPoly
    from schurhr.schur import schur_jt

    X2, X3, X22 = Space([2]), Space([3]), Space([2, 2])
    E2, bad2 = SplitBundle(X2, [(1,), (1,)]), SplitBundle(X2, [(-1,)])
    E3 = SplitBundle(X3, [(1,), (1,)])
    E22, bad22 = SplitBundle(X22, [(1, 0), (0, 1)]), SplitBundle(X22, [(1, -1), (0, 1)])
    a, b = X22.h11_basis()
    h, bad_h = a + b, a - b
    cubic = schur_jt((2, 1), 2)
    linear = MultiPoly(2, {(1, 0): 1})
    zero = schur_jt((3,), 2)  # lambda_1 above the variable count
    mixed = MultiPoly(2, {(2, 0): 1, (1, 0): 1})
    P, D = PreconditionError, DegreeMismatchError
    cases = [
        ("fl/nef", lambda: A.fl_positivity(bad2, (1, 1), 0), P),
        ("fl/weight", lambda: A.fl_positivity(E2, (1, 1), 1), D),
        ("fl/nef-first", lambda: A.fl_positivity(bad2, (1,), 0), P),
        ("monomial/spaces", lambda: A.monomial_positivity([E2, E3], [(1,), (1,)], [0, 0]), P),
        ("monomial/nef", lambda: A.monomial_positivity([bad2], [(1, 1)], [0]), P),
        ("monomial/degree", lambda: A.monomial_positivity([E2], [(1,)], [0]), D),
        ("monomial/nef-first", lambda: A.monomial_positivity([bad2], [(1,)], [0]), P),
        ("hodge/shape", lambda: A.hodge_index_check(a * a + b * b, a, b), P),
        ("hodge/beta", lambda: A.hodge_index_check(-(a * b), a, a + b), P),
        ("improved/weight", lambda: A.schur_hodge_improved_check(E22, h, (1,), a), D),
        ("improved/nef", lambda: A.schur_hodge_improved_check(bad22, h, (2, 1), a), P),
        ("improved/h", lambda: A.schur_hodge_improved_check(E22, bad_h, (2, 1), a), P),
        ("improved/weight-first",
         lambda: A.schur_hodge_improved_check(bad22, bad_h, (1,), a), D),
        ("kt/spaces", lambda: A.kt_sequence(E2, E3, (1, 1), (1, 1)), P),
        ("kt/nef-E", lambda: A.kt_sequence(bad2, E2, (1, 1), (1, 1)), P),
        ("kt/nef-F", lambda: A.kt_sequence(E2, bad2, (1, 1), (1, 1)), P),
        ("kt/weight", lambda: A.kt_sequence(E3, E3, (1,), (1,)), P),
        ("chern-powers/nef", lambda: A.chern_power_sequence(bad22, h), P),
        ("chern-powers/h", lambda: A.chern_power_sequence(E22, bad_h), P),
        ("derived-values/point", lambda: A.derived_value_sequence((2, 1), [1, -1]), P),
        ("pair-values/d", lambda: A.pair_value_sequence((1,), (1,), 3, [1], [1]), P),
        ("pair-values/x", lambda: A.pair_value_sequence((1,), (1,), 2, [-1], [1]), P),
        ("pair-values/y", lambda: A.pair_value_sequence((1,), (1,), 2, [1], [-1]), P),
        ("twisted/nef", lambda: A.twisted_schur_form(bad22, (1, 1), (1, 1), 1), P),
        ("twisted/h", lambda: A.twisted_schur_form(E22, (1, 1), (1, -1), 1), P),
        ("twisted/ample", lambda: A.twisted_schur_form(E22, (1, 1), (1, 0), 1), P),
        ("twisted/t", lambda: A.twisted_schur_form(E22, (1, 1), (1, 1), -1), P),
        ("polya-minors/length", lambda: A.polya_check_minors([1] * 9), P),
        ("polya-class/weight", lambda: A.polya_combination_class((1,), E22, h, [1]), D),
        ("polya-class/nef", lambda: A.polya_combination_class((1, 1), bad22, h, [1]), P),
        ("polya-class/h", lambda: A.polya_combination_class((1, 1), E22, bad_h, [1]), P),
        ("polya-class/weight-first",
         lambda: A.polya_combination_class((1,), bad22, bad_h, [1]), D),
        ("lemma/eprime", lambda: A.lemma_bridge_check(cubic, 0, (1, 0)), P),
        ("lemma/alpha-length", lambda: A.lemma_bridge_check(cubic, 3, (1,)), P),
        ("lemma/alpha-sign", lambda: A.lemma_bridge_check(cubic, 3, (2, -1)), P),
        ("lemma/alpha-total", lambda: A.lemma_bridge_check(cubic, 3, (1, 1)), D),
        ("hessian/e", lambda: A.hessian_vs_intersection((3,), 2, 2, (0, 0), 0), P),
        ("hessian/rows", lambda: A.hessian_vs_intersection((1, 1, 1), 2, 2, (0, 0), 0), P),
        ("hessian/alpha-length",
         lambda: A.hessian_vs_intersection((2, 1), 2, 3, (1,), 0), P),
        ("hessian/alpha-sign",
         lambda: A.hessian_vs_intersection((2, 1), 2, 3, (2, -1), 0), P),
        ("hessian/alpha-total",
         lambda: A.hessian_vs_intersection((2, 2), 2, 2, (1, 0), 0), D),
        ("hessian/beta", lambda: A.hessian_vs_intersection((2, 2), 2, 2, (2, 0), 0), P),
    ]
    lorentzian = [
        ("strict", lambda p: A.lorentzian_check(p, "strict")),
        ("perturbed", lambda p: A.lorentzian_check(p, "perturbed")),
        ("witness", lambda p: A.lorentzian_witness(p, Fraction(1, 100))),
        ("lemma", lambda p: A.lemma_bridge_check(p, 3, (0, 0))),
    ]
    for name, check in lorentzian:
        cases += [
            (f"{name}/zero", lambda c=check: c(zero), P),
            (f"{name}/degree", lambda c=check: c(linear), P),
            (f"{name}/homogeneous", lambda c=check: c(mixed), D),
        ]
    return cases


@pytest.mark.parametrize(
    "call, error", [pytest.param(c, e, id=name) for name, c, e in _hypothesis_cases()]
)
def test_each_broken_hypothesis_raises_its_documented_type(call, error):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is error
