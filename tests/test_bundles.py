"""Split twisted bundles: Chern classes, characteristic classes, nefness."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from schurhr import bundles, cohomology, kernels, schur
from schurhr.bundles import (SplitBundle, char_class, chern, chern_all,
                             chern_twist_rule, chern_twist_rule_all, class_is_nef,
                             derived_schur_class, derived_schur_classes,
                             schur_class)
from schurhr.cohomology import CohClass, Space
from schurhr.partitions import partitions_of
from schurhr.polyring import MultiPoly, elementary
from schurhr.schur import schur_jt


def _p2p3_bundle():
    X = Space([2, 3])
    return X, SplitBundle(X, [(1, 0), (1, 0), (0, 1)])


def test_chern_examples():
    X, E = _p2p3_bundle()
    a, b = X.h11_basis()
    assert chern(E, 1) == 2 * a + b
    assert chern(E, 3) == a * a * b
    assert chern(E, 0) == CohClass.unit(X)
    assert chern(E, 4).is_zero
    assert chern(E, -1).is_zero


def test_twist_rule_first_class():
    X, E = _p2p3_bundle()
    delta = (Fraction(1, 2), Fraction(1, 3))
    Ed = E.twisted_by(delta)
    d_class = CohClass.linear(X, delta)
    assert chern(Ed, 1) == chern(E, 1) + 3 * d_class
    assert chern_twist_rule(Ed, 1) == chern(Ed, 1)


def test_twist_rule_agrees_with_roots_randomly():
    rng = random.Random(13)
    for _ in range(40):
        X = Space([rng.randint(1, 3), rng.randint(1, 3)])
        rank = rng.randint(1, 4)
        lines = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(rank)]
        delta = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        E = SplitBundle(X, lines, delta)
        for p in range(rank + 1):
            assert chern(E, p) == chern_twist_rule(E, p)


def test_twist_rule_for_every_p_at_once_equals_each_p():
    rng = random.Random(17)
    for _ in range(30):
        X = Space([rng.randint(1, 3) for _ in range(rng.randint(1, 3))])
        rank = rng.randint(1, 4)
        lines = [tuple(rng.randint(-2, 2) for _ in range(X.k)) for _ in range(rank)]
        delta = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(X.k))
        E = SplitBundle(X, lines, delta)
        assert chern_twist_rule_all(E) == [chern_twist_rule(E, p) for p in range(rank + 1)]


def test_twist_composition():
    X, E = _p2p3_bundle()
    d1 = (Fraction(1, 2), 0)
    d2 = (Fraction(1, 3), 1)
    lhs = E.twisted_by(d1).twisted_by(d2)
    rhs = E.twisted_by((Fraction(5, 6), 1))
    assert lhs == rhs
    assert chern_all(lhs) == chern_all(rhs)


def test_whitney_formula_on_split_sums():
    rng = random.Random(17)
    X = Space([2, 2])
    for _ in range(20):
        twist = (Fraction(rng.randint(0, 2), 2), Fraction(rng.randint(0, 2), 3))
        E = SplitBundle(X, [(1, 0), (0, 1)], twist)
        F = SplitBundle(X, [(rng.randint(0, 2), rng.randint(0, 2))], twist)
        EF = SplitBundle(X, E.lines + F.lines, twist)
        ce, cf, cef = chern_all(E), chern_all(F), chern_all(EF)
        total_e = sum(ce[1:], ce[0])
        total_f = sum(cf[1:], cf[0])
        total_ef = sum(cef[1:], cef[0])
        assert total_ef == total_e * total_f


def test_char_class_examples():
    X, E = _p2p3_bundle()
    a, b = X.h11_basis()
    c1sq = elementary(1, 3) * elementary(1, 3)
    assert char_class(c1sq, E) == 4 * (a * a) + 4 * (a * b) + b * b
    s111 = schur_jt((1, 1, 1), 3)
    expected = 3 * (a * a * b) + 2 * (a * b * b) + b * b * b
    assert char_class(s111, E) == expected
    assert schur_class((1, 1, 1), E) == expected
    assert schur_class((4,), E).is_zero  # first part above the rank


def test_char_class_reaches_no_determinant_route(monkeypatch):
    X = Space([2, 3])
    E = SplitBundle(X, [(1, 0), (0, 2), (1, 1)], (Fraction(1, 2), Fraction(2, 3)))
    lam = (2, 1, 1)
    want = schur_class(lam, E)

    def forbidden(*args, **kwargs):
        raise AssertionError("char_class left the root evaluation")

    for name in ("chern_all", "derived_chern", "evaluate_terms", "schur_class"):
        monkeypatch.setattr(bundles, name, forbidden)
    monkeypatch.setattr(cohomology, "evaluate_terms", forbidden)
    monkeypatch.setattr(schur, "derived_chern", forbidden)
    assert char_class(schur_jt(lam, E.rank), E) == want


def test_char_class_rejects_asymmetric():
    X, E = _p2p3_bundle()
    with pytest.raises(ValueError):
        char_class(MultiPoly(3, {(2, 1, 0): 1}), E)


def test_derived_classes_edges():
    X, E = _p2p3_bundle()
    lam = (1, 1, 1)
    classes = derived_schur_classes(lam, E)
    assert classes[0] == schur_class(lam, E)
    top = classes[3]
    assert top == CohClass.unit(X).scale(top.coefficient((0, 0)))
    assert top.coefficient((0, 0)) > 0
    assert derived_schur_class(lam, 5, E).is_zero


def test_expansion_identity_in_the_twist():
    # the Schur class of a twisted bundle expands into shift slices
    rng = random.Random(23)
    X, E = _p2p3_bundle()
    for lam in [(1, 1), (2, 1), (1, 1, 1), (3,)]:
        classes = derived_schur_classes(lam, E)
        for _ in range(4):
            delta = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
            dc = CohClass.linear(X, delta)
            lhs = schur_class(lam, E.twisted_by(delta))
            rhs = CohClass.zero(X)
            power = CohClass.unit(X)
            for i, cls in enumerate(classes):
                rhs = rhs + cls * power
                power = power * dc
            assert lhs == rhs


def test_schur_class_agrees_with_monomial_evaluation():
    # two genuinely independent routes: the e-basis slice 0 at the Chern
    # classes versus term-by-term evaluation of the polynomial at the roots
    rng = random.Random(19)
    for _ in range(15):
        X = Space([rng.randint(1, 3), rng.randint(1, 2)])
        rank = rng.randint(1, 3)
        lines = [tuple(rng.randint(0, 2) for _ in range(2)) for _ in range(rank)]
        twist = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(2))
        E = SplitBundle(X, lines, twist)
        w = rng.randint(1, min(5, X.dim + 1))
        from schurhr.acceptance import _rand_partition

        lam = _rand_partition(rng, w, max_part=rank)
        assert schur_class(lam, E) == char_class(schur_jt(lam, rank), E)


_twist_coords = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))


@st.composite
def _twisted_instances(draw):
    """A bundle of rank 1-3 with a rational twist (denominators up to 6) on
    1-3 projective factors, a partition fitting its rank, and a second
    twist vector."""
    X = Space(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rank = draw(st.integers(1, 3))
    lines = draw(st.lists(st.tuples(*[st.integers(0, 2)] * X.k),
                          min_size=rank, max_size=rank))
    twist = draw(st.tuples(*[_twist_coords] * X.k))
    w = draw(st.integers(1, min(4, X.dim + 1)))
    lam = draw(st.sampled_from(list(partitions_of(w, max_part=rank))))
    delta = draw(st.tuples(*[_twist_coords] * X.k))
    return SplitBundle(X, lines, twist), lam, delta


@settings(max_examples=60, deadline=None)
@given(_twisted_instances())
def test_schur_class_over_integer_roots_matches_root_evaluation(inst):
    # the determinant over the denominator-cleared roots, divided once,
    # against the polynomial evaluated term by term at the rational roots
    E, lam, _ = inst
    assert schur_class(lam, E) == char_class(schur_jt(lam, E.rank), E)


@settings(max_examples=40, deadline=None)
@given(_twisted_instances())
def test_derived_classes_satisfy_twist_rule(inst):
    # s_lam(E<delta>) = sum_i s_lam^(i)(E) delta^i, the left side evaluated
    # at the roots of E<delta>, never through schur_class
    E, lam, delta = inst
    X = E.space
    dc = CohClass.linear(X, delta)
    rhs, power = CohClass.zero(X), CohClass.unit(X)
    for cls in derived_schur_classes(lam, E):
        rhs = rhs + cls * power
        power = power * dc
    assert rhs == char_class(schur_jt(lam, E.rank), E.twisted_by(delta))


@settings(max_examples=60, deadline=None)
@given(_twisted_instances())
@example((SplitBundle(Space([2, 2]), [(0, 0), (1, 0)], (Fraction(1, 2), Fraction(1, 2))),
          (1,), (0, 0)))
def test_chern_all_is_the_twist_rule_term_by_term(inst):
    # the same terms, and the same coefficient types: int where the
    # denominator is 1 (``rationals.canon``), Fraction elsewhere
    E, _, _ = inst
    got = [c.terms for c in chern_all(E)]
    want = [c.terms for c in chern_twist_rule_all(E)]
    assert got == want
    assert ([{k: type(v) for k, v in t.items()} for t in got]
            == [{k: type(v) for k, v in t.items()} for t in want])


@st.composite
def _oracle_instances(draw):
    """A bundle of rank 1-4 with a rational twist that may be negative (so
    not nef) on 1-3 factors, some of dimension 1, a partition fitting its
    rank, and an imax from 1 to |lam| + 1."""
    X = Space(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rank = draw(st.integers(1, 4))
    lines = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * X.k),
                          min_size=rank, max_size=rank))
    twist = draw(st.tuples(*[_twist_coords] * X.k))
    w = draw(st.integers(1, min(5, X.dim + 2)))
    lam = draw(st.sampled_from(list(partitions_of(w, max_part=rank))))
    return SplitBundle(X, lines, twist), lam, draw(st.integers(1, w + 1))


def _lifted_space_slices(lam, E, imax):
    """The slices up to imax by the lifted-space route: s_lam of E twisted
    by the hyperplane class t of an extra factor P^m, in the product ring,
    expanded in the powers of t.  s_lam is evaluated at the Chern roots
    (``char_class``), never through the e-basis slices under test."""
    X = E.space
    m = max(sum(lam), 1)
    aug = Space(X.factors + (m,))
    lifted = SplitBundle(aug, [line + (0,) for line in E.lines], E.twist + (1,))
    slices = [{} for _ in range(min(imax, sum(lam)) + 1)]
    for exps, c in char_class(schur_jt(lam, E.rank), lifted).exps_terms().items():
        if exps[-1] <= imax:
            slices[exps[-1]][exps[:-1]] = c
    return slices


@settings(max_examples=60, deadline=None)
@given(_oracle_instances())
@example((SplitBundle(Space([1, 1]), [(1, 0), (0, 1), (1, 1), (2, 0)],
                      (Fraction(-1, 2), Fraction(1, 3))), (2, 1, 1), 2))
@example((SplitBundle(Space([1, 2, 1]), [(-1, 2, 0), (0, 1, 1), (1, 0, 2)],
                      (Fraction(-2, 3), 0, Fraction(1, 2))), (2, 2, 1), 3))
@example((SplitBundle(Space([3]), [(1,), (0,), (2,), (1,)], (Fraction(-1, 4),)),
          (1, 1, 1, 1), 1))
def test_derived_slices_match_lifted_space_oracle(inst):
    # derived_schur_classes reads the slices off the e-basis expansion; the
    # Schur class of the bundle lifted to X x P^m and twisted by the new
    # hyperplane class expands into the same slices in that class's powers
    E, lam, imax = inst
    got = derived_schur_classes(lam, E, imax)
    assert [c.exps_terms() for c in got] == _lifted_space_slices(lam, E, imax)


@settings(max_examples=40, deadline=None)
@given(_oracle_instances())
def test_single_slice_is_that_slice_of_all(inst):
    E, lam, _ = inst
    w = sum(lam)
    every = derived_schur_classes(lam, E)
    for i in range(-2, w + 3):
        want = every[i] if 0 <= i <= w else CohClass.zero(E.space)
        assert derived_schur_class(lam, i, E) == want


def test_schur_class_multiplies_integers_only(monkeypatch):
    X = Space([2, 3, 1])
    E = SplitBundle(X, [(1, 0, 2), (0, 2, 1), (2, 1, 0)],
                    (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)))
    lam = (2, 1, 1)
    want = char_class(schur_jt(lam, E.rank), E)
    seen = []
    original = kernels.mul_terms_capped

    def spy(a, b, bias, guard):
        seen.extend(c for terms in (a, b) for c in terms.values())
        return original(a, b, bias, guard)

    monkeypatch.setattr(kernels, "mul_terms_capped", spy)
    got = schur_class(lam, E)
    monkeypatch.undo()
    assert got == want
    assert seen and all(type(c) is int for c in seen)


def test_derived_class_agrees_with_monomial_evaluation():
    from schurhr.schur import derived_schur

    X, E = _p2p3_bundle()
    for lam in [(2, 1), (1, 1, 1), (2, 2)]:
        for i in range(sum(lam) + 1):
            poly = derived_schur(lam, i, E.rank)
            assert derived_schur_class(lam, i, E) == char_class(poly, E)


def test_is_nef():
    X = Space([2, 3])
    assert SplitBundle(X, [(1, 0), (0, 1)]).is_nef()
    assert not SplitBundle(X, [(-1, 0)]).is_nef()
    assert SplitBundle(X, [(-1, 2)], (Fraction(3, 2), 0)).is_nef()


def test_class_nef():
    X = Space([2, 3])
    a, b = X.h11_basis()
    assert class_is_nef(a)
    assert class_is_nef(CohClass.zero(X))
    assert not class_is_nef(a - b)


def test_serialization_round_trip():
    X, E = _p2p3_bundle()
    data = {"lines": [[1, 0], [1, 0], [0, 1]], "twist": ["0", "0"]}
    assert SplitBundle.from_json(data, X) == E


@settings(max_examples=40, deadline=None)
@given(_twisted_instances())
def test_zeroth_slice_alone_is_the_schur_class(inst):
    # imax = 0 returns the Schur class itself; the e-basis slice 0 agrees
    E, lam, _ = inst
    assert derived_schur_classes(lam, E, 0) == [schur_class(lam, E)]
    assert derived_schur_classes(lam, E, 1)[0] == schur_class(lam, E)
