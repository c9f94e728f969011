"""Lorentzian certification and the coefficient-extraction identities."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schurhr import acceptance, analysis, cli
from schurhr.analysis import (_epsilon_shift, hessian_vs_intersection,
                              lemma_bridge_check, lorentzian_check,
                              lorentzian_witness)
from schurhr.cohomology import CohClass, Space
from schurhr.errors import DegreeMismatchError, ExponentOverflowError, PreconditionError
from schurhr.partitions import partitions_of
from schurhr.polyring import MultiPoly
from schurhr.rationals import common_denominator
from schurhr.schur import schur_jt


def _oracle_witness(p, eps):
    """The rational route: substitute x_j + eps * sum(x) with Fraction
    coefficients, truncate to the box, mirror back and normalize."""
    e = p.nvars
    box = max(e, p.homogeneous_degree())
    q = p.denormalize().box_reverse(box)
    s = sum((MultiPoly.variable(j, e) for j in range(e)), MultiPoly.zero(e))
    q_eps = q.substitute([MultiPoly.variable(j, e) + eps * s for j in range(e)])
    kept = {mu: c for mu, c in q_eps.exps_terms().items() if max(mu) <= box}
    return MultiPoly(e, kept).box_reverse(box).normalize()


@st.composite
def signed_homogeneous(draw):
    e = draw(st.integers(1, 3))
    d = draw(st.integers(2, 5))
    monos = [m for m in itertools.product(range(d + 1), repeat=e) if sum(m) == d]
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    terms = draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=6))
    p = MultiPoly(e, terms)
    return p if not p.is_zero else MultiPoly.variable(0, e) ** d


def test_strict_examples():
    xy = MultiPoly(2, {(1, 1): 1})
    rep = lorentzian_check(xy, "strict")
    # x1^2 and x2^2 are missing, so their coefficients are zero
    assert not rep.ok
    assert rep.nonpositive_coefficients == ((0, 2), (2, 0))
    assert not rep.bad_hessians
    sq = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    rep = lorentzian_check(sq, "strict")
    assert not rep.ok
    # the failure is recorded: the Hessian has two positive eigenvalues
    assert rep.bad_hessians and rep.bad_hessians[0][1].n_plus == 2
    # a negative coefficient is also rejected outright
    neg = MultiPoly(2, {(1, 1): -1})
    assert lorentzian_check(neg, "strict").nonpositive_coefficients == (
        (0, 2), (1, 1), (2, 0))
    neg = MultiPoly(2, {(2, 0): 1, (1, 1): -1, (0, 2): 1})
    assert lorentzian_check(neg, "strict").nonpositive_coefficients == ((1, 1),)


def test_strict_rejects_inhomogeneous_or_linear():
    with pytest.raises(DegreeMismatchError):
        lorentzian_check(MultiPoly(2, {(2, 0): 1, (1, 0): 1}), "strict")
    with pytest.raises(PreconditionError):
        lorentzian_check(MultiPoly(2, {(1, 0): 1}), "strict")


def test_normalized_column_shape_needs_the_perturbation():
    p = schur_jt((1, 1), 2).normalize()
    assert not lorentzian_check(p, "strict").ok
    rep = lorentzian_check(p, "perturbed", Fraction(1, 100))
    assert rep.ok and rep.mode == "perturbed"


def test_witness_converges_to_the_input():
    p = schur_jt((2, 1), 2).normalize()
    assert lorentzian_witness(p, 0) == p
    w = lorentzian_witness(p, Fraction(1, 100))
    assert w != p
    assert w.homogeneous_degree() == p.homogeneous_degree()


@settings(max_examples=80, deadline=None)
@given(signed_homogeneous(),
       st.one_of(st.just(Fraction(0)),
                 st.builds(Fraction, st.integers(0, 1000), st.integers(1, 1000))))
def test_witness_matches_the_rational_route(p, eps):
    oracle = _oracle_witness(p, eps)
    assert lorentzian_witness(p, eps) == oracle
    rep = lorentzian_check(p, "perturbed", eps)
    want = lorentzian_check(oracle, "strict")
    assert (rep.ok, rep.nonpositive_coefficients, rep.bad_hessians) == (
        want.ok, want.nonpositive_coefficients, want.bad_hessians)


@pytest.mark.parametrize("p, bad", [
    (MultiPoly(2, {(2, 0): 1, (1, 1): -1, (0, 2): 1}), ((1, 1),)),
    (MultiPoly(3, {(2, 0, 0): 1, (0, 1, 1): Fraction(-1, 3), (0, 0, 2): 2}),
     ((0, 1, 1), (0, 2, 0))),
])
def test_failing_witness_matches_the_rational_route(p, bad):
    eps = Fraction(1, 100)
    rep = lorentzian_check(p, "perturbed", eps)
    want = lorentzian_check(_oracle_witness(p, eps), "strict")
    assert not rep.ok
    assert rep.nonpositive_coefficients == want.nonpositive_coefficients == bad
    assert rep.bad_hessians == want.bad_hessians


def test_epsilon_shift_substitutes_integers_only(monkeypatch):
    # the shift's route: the Taylor slices of c * q, then Horner in a * S by
    # the capped multiply and add_scaled bound in analysis
    seen = []
    taylor, mul, add = analysis._taylor_slices, analysis.mul_terms_capped, analysis.add_scaled

    def spy_taylor(terms, *args):
        seen.extend(terms.values())
        return taylor(terms, *args)

    def spy_mul(a, b, *args):
        seen.extend([*a.values(), *b.values()])
        return mul(a, b, *args)

    def spy_add(acc, terms, coeff=1):
        seen.extend([*acc.values(), *terms.values(), coeff])
        return add(acc, terms, coeff)

    p = MultiPoly(2, {(2, 0): Fraction(1, 3), (1, 1): Fraction(-1, 2), (0, 2): 1})
    want = _oracle_witness(p, Fraction(7, 997))
    monkeypatch.setattr(analysis, "_taylor_slices", spy_taylor)
    monkeypatch.setattr(analysis, "mul_terms_capped", spy_mul)
    monkeypatch.setattr(analysis, "add_scaled", spy_add)
    assert lorentzian_witness(p, Fraction(7, 997)) == want
    assert hessian_vs_intersection((2, 1), 2, 3, (1, 0), Fraction(7, 997))
    assert seen and all(type(c) is int for c in seen)


def _oracle_shift(q, eps, box):
    """The shift through the truncated ring of (P^box)^e, Q[x] / (x_j^(box + 1)):
    c * q at the linear classes b * x_j + a * (x_1 + ... + x_e), re-keyed as
    a polynomial, and m = c * b^D."""
    a, b = eps.numerator, eps.denominator
    e, c = q.nvars, common_denominator(q.terms.values())
    ring = Space([box] * e)
    repl = [CohClass.linear(ring, [a + b if i == j else a for i in range(e)])
            for j in range(e)]
    shifted = q.scale(c).substitute(repl)
    return MultiPoly(e, shifted.exps_terms()), c * b ** q.homogeneous_degree()


@st.composite
def shift_cases(draw):
    q = draw(signed_homogeneous())
    box = max(q.per_variable_degrees()) + draw(st.integers(0, 3))
    eps = draw(st.one_of(st.just(Fraction(0)),
                         st.fractions(min_value=-3, max_value=3, max_denominator=40)))
    return q, eps, box


@settings(deadline=None)
@given(shift_cases())
def test_epsilon_shift_matches_the_truncated_ring_route(case):
    q, eps, box = case
    s, m = _epsilon_shift(q, eps, box)
    assert (s, m) == _oracle_shift(q, eps, box)
    assert all(type(c) is int and c for c in s.terms.values())


def test_a_zero_epsilon_shift_stores_no_zero(monkeypatch):
    steps = []
    mul = analysis.mul_terms_capped

    def spy(a, b, *cap):
        steps.append(b)
        return mul(a, b, *cap)

    monkeypatch.setattr(analysis, "mul_terms_capped", spy)
    q = MultiPoly(2, {(3, 1): Fraction(1, 2), (2, 2): -1, (0, 4): 3})
    s, m = _epsilon_shift(q, Fraction(0), 4)
    assert (s, m) == (q.scale(2), 2)
    assert all(s.terms.values())
    # 0 * S is the empty dict, never x_j with coefficient 0
    assert steps and steps == [{}] * len(steps)


def test_a_box_past_the_key_fields_raises_unless_epsilon_is_zero():
    # degree 130: the box of side 130 has exponents no key field holds
    p = MultiPoly(2, {(65, 65): 1})
    for eps in (Fraction(1, 100), Fraction(-1, 100)):
        with pytest.raises(ExponentOverflowError):
            lorentzian_check(p, "perturbed", eps)
    rep = lorentzian_check(p, "perturbed", 0)
    strict = lorentzian_check(p, "strict")
    assert rep == dataclasses.replace(strict, mode="perturbed", epsilon=0)
    assert not rep.ok and rep.nonpositive_coefficients[:2] == ((0, 130), (1, 129))


def test_certify_passes_on_the_retry(capsys, fail_first_lorentzian_check):
    # the perturbed certification runs from the command line: a failure at
    # epsilon is tried once more at epsilon / 10, and that report is the result
    argv = ["lorentzian", "--lambda", "2,1", "--vars", "2", "--epsilon", "1/100",
            "--expect-pass"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["epsilon"] == "1/1000"
    assert payload["retried_at_epsilon_over_10"] is True
    assert fail_first_lorentzian_check == [Fraction(1, 100), Fraction(1, 1000)]


def test_perturbed_certification_across_shapes():
    for e in (1, 2, 3):
        for w in range(2, 6):
            for lam in partitions_of(w, max_part=e):
                p = schur_jt(lam, e).normalize()
                rep = lorentzian_check(p, "perturbed", Fraction(1, 100))
                assert rep.ok, (lam, e)


def _failing_quadratics():
    x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    return [
        x * x + (y * y).scale(Fraction(1, 3)) - (x * y).scale(Fraction(5, 2)),
        # positive coefficients, but the Hessian has two positive eigenvalues
        x * x + (y * y).scale(Fraction(1, 3)) + (x * y).scale(Fraction(1, 5)),
    ]


@pytest.mark.parametrize("mode", ["strict", "perturbed"])
def test_a_positive_scaling_changes_no_report(mode):
    rng = random.Random(16)
    failing = _failing_quadratics()
    corpus = [schur_jt(lam, e).normalize() for lam, e in acceptance._CRIT11_CASES]
    for p in failing + corpus:
        c = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        assert lorentzian_check(p.scale(c), mode) == lorentzian_check(p, mode)
    assert not any(lorentzian_check(p, mode).ok for p in failing)


def test_bridge_examples():
    assert lemma_bridge_check(schur_jt((1, 1), 2), 2, (0, 0))
    assert lemma_bridge_check(MultiPoly(2, {(2, 1): 1}), 2, (1, 0))
    # a vanishing coefficient must appear as zero on both sides
    p = MultiPoly(2, {(3, 0): 1, (0, 3): 1})
    assert lemma_bridge_check(p, 3, (1, 0))


def test_bridge_holds_for_arbitrary_sign_patterns():
    rng = random.Random(71)
    for _ in range(60):
        e = rng.randint(1, 3)
        d = rng.randint(2, 5)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = [0] * e
            for _ in range(d):
                exps[rng.randrange(e)] += 1
            terms[tuple(exps)] = rng.randint(-4, 4)
        p = MultiPoly(e, terms)
        if p.is_zero:
            continue
        alpha = [0] * e
        for _ in range(d - 2):
            alpha[rng.randrange(e)] += 1
        eprime = max(p.per_variable_degrees()) + rng.randint(0, 2)
        assert lemma_bridge_check(p, eprime, alpha)


def test_bridge_rejects_small_box():
    p = schur_jt((2, 1), 2)  # per-variable degree 2
    with pytest.raises(PreconditionError):
        lemma_bridge_check(p, 1, (1, 0))


def test_hessian_vs_intersection_examples():
    assert hessian_vs_intersection((1, 1), 2, 2, (0, 0), Fraction(1, 100))
    assert hessian_vs_intersection((2,), 2, 2, (0, 0), Fraction(1, 10))
    assert hessian_vs_intersection((1, 1), 2, 2, (0, 0), 0)


def test_hessian_vs_intersection_bigger_cases():
    assert hessian_vs_intersection((2, 1), 2, 3, (1, 0), Fraction(1, 7))
    assert hessian_vs_intersection((2, 2), 3, 3, (1, 1, 0), Fraction(2, 5))
    assert hessian_vs_intersection((3, 2), 3, 4, (1, 1, 1), Fraction(1, 100))
    # large denominators: b^D in the integer shift is far from 1
    assert hessian_vs_intersection((2, 1), 2, 3, (1, 0), Fraction(7, 997))
    assert hessian_vs_intersection((2, 2), 3, 3, (1, 1, 0), Fraction(7, 997))
    assert hessian_vs_intersection((3, 2), 3, 4, (1, 1, 1), Fraction(996, 997))


def test_hessian_vs_intersection_preconditions():
    with pytest.raises(PreconditionError):
        hessian_vs_intersection((3,), 2, 2, (0, 0), 0)  # first part above e
    with pytest.raises(DegreeMismatchError):
        hessian_vs_intersection((2, 2), 2, 2, (1, 0), 0)  # |alpha| wrong
    with pytest.raises(PreconditionError):
        hessian_vs_intersection((2, 2), 2, 2, (2, 0), 0)  # factor would collapse


def test_zero_polynomial_is_reported_as_zero():
    zero = schur_jt((3,), 2)  # lambda_1 above the variable count
    assert zero.is_zero
    for mode in ("strict", "perturbed"):
        with pytest.raises(PreconditionError, match="the polynomial is zero"):
            lorentzian_check(zero, mode)
    with pytest.raises(PreconditionError, match="the polynomial is zero"):
        lemma_bridge_check(zero, 3, (0, 0))
