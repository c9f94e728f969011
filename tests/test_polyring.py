"""Exact polynomial arithmetic and the box/normalization operators."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from schurhr.cohomology import CohClass, Space
from schurhr.errors import DegreeMismatchError, SpaceMismatchError
from schurhr.partitions import ssyt_count
from schurhr import kernels
from schurhr.polyring import MultiPoly, elementary, evaluate_many
from schurhr.rationals import fmt_terms, parse_q, terms_to_json
from schurhr.schur import schur_jt


def P(nvars, terms):
    return MultiPoly(nvars, terms)


def x(j, n=2):
    return MultiPoly.variable(j, n)


small_polys = st.builds(
    lambda d: MultiPoly(2, d),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-5, 5),
        max_size=5,
    ),
)


def test_basic_arithmetic():
    assert (x(0) + x(1)) * (x(0) - x(1)) == P(2, {(2, 0): 1, (0, 2): -1})
    assert P(2, {(1, 1): 1}).scale(Fraction(3, 2)) == P(2, {(1, 1): Fraction(3, 2)})


def test_substitute_binomial():
    # x1 -> x1 + t inside x1^2, working in the variables (x1, t)
    p = P(2, {(2, 0): 1})
    q = p.substitute([x(0) + x(1), x(1)])
    assert q == P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    # into a truncated ring: the result lives there, past-the-cap terms dropped
    X = Space([1, 2])
    t1, t2 = X.h11_basis()
    assert p.substitute([t1 + t2, t2]) == CohClass(X, {(1, 1): 2, (0, 2): 1})
    with pytest.raises(SpaceMismatchError):
        p.substitute([t1, Space([2]).h11_basis()[0]])


def _naive_substitute(p, reps):
    # sum of c * r_1^e_1 * ... * r_n^e_n, each power by repeated multiplies
    one = reps[0].constant(1, reps[0].ring)
    total = reps[0].zero(reps[0].ring)
    for exps, c in p.exps_terms().items():
        term = one
        for r, k in zip(reps, exps):
            for _ in range(k):
                term = term * r
        total = total + term.scale(c)
    return total


_coeffs = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _terms(width, top):
    # up to 4 terms with exponents in [0, top], possibly none, possibly constant
    return st.dictionaries(st.tuples(*[st.integers(0, top)] * width), _coeffs, max_size=4)


@st.composite
def _substitutions(draw):
    nvars = draw(st.integers(1, 3))
    p = MultiPoly(nvars, draw(_terms(nvars, 3)))
    if draw(st.booleans()):
        m = draw(st.integers(0, 3))
        reps = [MultiPoly(m, draw(_terms(m, 2))) for _ in range(nvars)]
    else:
        X = Space(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        reps = [CohClass(X, draw(st.dictionaries(
            st.tuples(*[st.integers(0, n + 1) for n in X.factors]), _coeffs, max_size=3)))
            for _ in range(nvars)]
    return p, reps


half = Fraction(1, 2)


# 300 examples, or the profile's count where that is larger (500 under ``ci``)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(_substitutions())
@example((MultiPoly.zero(2), [x(0) * x(1), x(1)]))
@example((MultiPoly.constant(half, 2), [x(0) * x(1), x(1)]))
@example((P(2, {(1, 0): half, (0, 1): half}), [2 * x(0), 2 * x(1)]))
@example((P(2, {(3, 1): half, (0, 2): 3}), [MultiPoly.zero(2), x(0) - x(1)]))
def test_substitute_matches_the_term_by_term_sum(case):
    p, reps = case
    got = p.substitute(reps)
    assert type(got) is type(reps[0]) and got.ring == reps[0].ring
    assert got == _naive_substitute(p, reps)
    assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())


def _spy_products(monkeypatch, cls):
    """The (left, right) operand pairs of every multiply of cls from now on."""
    products = []
    original = cls._mul

    def spy(self, a, b):
        products.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(cls, "_mul", spy)
    return products


def test_substitute_multiplies_only_by_one_replacement(monkeypatch):
    X = Space([3, 3])
    reps = [CohClass.linear(X, [2, 1]), CohClass.linear(X, [1, 3]) + 1]
    p = P(2, {(3, 2): 1, (1, 2): half, (0, 1): -2, (0, 0): 5})
    want = _naive_substitute(p, reps)
    products = _spy_products(monkeypatch, CohClass)
    assert p.substitute(reps) == want
    # r_2^2 at x1^3, times r_1^2, + r_2^2 at x1, times r_1, + (-2 r_2 + 5):
    # 2 + 2 + 2 + 1 + 1 multiplies
    assert len(products) == 8
    assert all(any(b is r.terms for r in reps) for _, b in products)


def test_substitute_leaves_the_replacements_unchanged():
    # every result, and every sum into one, is a fresh dict
    X = Space([3, 3])
    reps = [CohClass.linear(X, [2, 1]), CohClass.linear(X, [1, 3])]
    saved = [dict(r.terms) for r in reps]
    for p in (P(2, {(1, 0): 3}), P(2, {(0, 2): 1, (1, 1): -1}), P(2, {(0, 1): 1})):
        first = p.substitute(reps)
        second = p.substitute(reps)
        assert first == second and first.terms is not second.terms
        kernels.add_scaled(first.terms, reps[0].terms, 5)
        kernels.add_scaled(second.terms, reps[1].terms)
        assert [r.terms for r in reps] == saved
        assert all(r.terms is not t for r in reps for t in (first.terms, second.terms))


def test_substitute_without_variables_returns_the_polynomial():
    p = MultiPoly(0, {(): half})
    assert p.substitute([]) is p


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


def test_elementary_basics():
    assert elementary(1, 2) == x(0) + x(1)
    assert elementary(2, 2) == P(2, {(1, 1): 1})
    assert elementary(3, 2).is_zero
    assert elementary(0, 2) == MultiPoly.one(2)


def test_elementary_is_a_coefficient_of_the_product():
    # e_i(x) is the t^i coefficient of prod_j (1 + t * x_j); t is variable e
    for e in range(6):
        t = MultiPoly.variable(e, e + 1)
        prod = MultiPoly.one(e + 1)
        for j in range(e):
            prod = prod * (1 + t * MultiPoly.variable(j, e + 1))
        for i in range(-1, e + 2):
            want = {exps[:e]: c for exps, c in prod.exps_terms().items() if exps[e] == i}
            assert elementary(i, e) == P(e, want), (i, e)


def test_evaluate():
    p = P(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert p.evaluate([1, 1]) == 3
    assert p.evaluate([2, 0]) == 4


def _fraction_value(p, point):
    # the term-by-term sum over the rationals
    total = Fraction(0)
    for exps, c in p.exps_terms().items():
        v = Fraction(c)
        for x, k in zip(point, exps):
            v *= Fraction(x) ** k
        total += v
    return total


_points = st.one_of(st.integers(0, 5),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def _polys_and_point(draw):
    nvars = draw(st.integers(0, 3))
    # non-homogeneous terms, int and Fraction coefficients, zero coordinates
    polys = [MultiPoly(nvars, draw(_terms(nvars, 4)))
             for _ in range(draw(st.integers(0, 3)))]
    return polys, draw(st.lists(_points, min_size=nvars, max_size=nvars))


@settings(max_examples=300, deadline=None)
@given(_polys_and_point())
@example(([P(2, {(2, 0): half, (0, 0): 3, (1, 1): -1})], [0, Fraction(2, 3)]))
def test_evaluate_many_matches_the_fraction_sum(case):
    polys, point = case
    got = evaluate_many(polys, point)
    assert got == [_fraction_value(p, point) for p in polys]
    assert all(type(v) is int or v.denominator > 1 for v in got)
    assert [p.evaluate(point) for p in polys] == got


def test_evaluate_many_rejects_a_point_of_the_wrong_length():
    with pytest.raises(ValueError, match="length 1, expected 2"):
        evaluate_many([x(0), x(1)], [1])


def test_evaluate_schur_matches_tableau_expansion():
    point = [Fraction(1, 2), Fraction(1, 3)]
    s = schur_jt((2, 1), 2)
    # independent oracle: sum over contents of tableau counts of the
    # conjugate shape times the monomial value
    conj = (2, 1)
    total = Fraction(0)
    for a in range(4):
        b = 3 - a
        if b < 0:
            continue
        c = ssyt_count(conj, (a, b))
        total += c * point[0] ** a * point[1] ** b
    assert s.evaluate(point) == total


def test_coefficient_extraction():
    p = P(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert p.coefficient((1, 1)) == 1
    assert P(2, {(2, 0): 1}).coefficient((0, 2)) == 0
    assert P(2, {(1, 2): 3}).coefficient((1, 2)) == 3


def test_coefficient_matrix_reads_zero_off_the_monomials():
    p = P(2, {(0, 0): 2, (1, 0): 3, (0, 1): 5, (1, 1): 7})
    # corner - e_i - e_j has a negative entry on the diagonal
    assert p.coefficient_matrix((1, 1)) == ((0, 2), (2, 0))
    assert p.coefficient_matrix((2, 1)) == ((5, 3), (3, 0))
    X = Space([1, 2])
    c = CohClass(X, {(0, 0): 11, (1, 0): 3, (0, 2): 5, (1, 2): 7})
    assert c.coefficient_matrix((0, 2)) == ((0, 0), (0, 11))
    # (2, 1) and (3, 0) lie past the cap of the first factor
    assert c.coefficient_matrix((3, 2)) == ((7, 0), (0, 0))
    assert c.coefficient_matrix(X.factors) == ((0, 0), (0, 3))


def test_normalize():
    assert P(2, {(2, 0): 1}).normalize() == P(2, {(2, 0): Fraction(1, 2)})
    assert P(2, {(1, 1): 1}).normalize() == P(2, {(1, 1): 1})
    n = schur_jt((1, 1), 2).normalize()
    assert n == P(2, {(2, 0): Fraction(1, 2), (1, 1): 1, (0, 2): Fraction(1, 2)})
    assert n.denormalize() == schur_jt((1, 1), 2)


def test_box_reverse_examples():
    assert P(2, {(1, 0): 1}).box_reverse(1) == P(2, {(0, 1): 1})
    assert schur_jt((2, 1), 2).box_reverse(2) == x(0) + x(1)
    assert MultiPoly.one(2).box_reverse(1) == P(2, {(1, 1): 1})


def test_box_reverse_involution_and_error():
    p = P(2, {(2, 1): 3, (0, 2): Fraction(-1, 2)})
    assert p.box_reverse(3).box_reverse(3) == p
    with pytest.raises(ValueError):
        p.box_reverse(1)


def test_hessian_examples():
    n = schur_jt((1, 1), 2).normalize()
    assert n.hessian_of_partial((0, 0)) == ((1, 1), (1, 1))
    cubic = P(2, {(3, 0): 1})
    assert cubic.hessian_of_partial((1, 0)) == ((6, 0), (0, 0))
    triple = P(3, {(1, 1, 1): 1})
    m = triple.hessian_of_partial((1, 0, 0))
    assert m == ((0, 0, 0), (0, 0, 1), (0, 1, 0))


def test_hessian_rejects_bad_alpha():
    with pytest.raises(DegreeMismatchError):
        P(2, {(3, 0): 1}).hessian_of_partial((0, 0))
    with pytest.raises(DegreeMismatchError):
        P(2, {(2, 0): 1, (1, 0): 1}).hessian_of_partial((0, 0))


def _partial(p, j):
    # the exact partial derivative by x_j, term by term
    out = {}
    for e, c in p.exps_terms().items():
        if e[j]:
            out[e[:j] + (e[j] - 1,) + e[j + 1:]] = c * e[j]
    return MultiPoly(p.nvars, out)


def _partial_multi(p, alpha):
    # the iterated partial d^alpha p, one variable at a time
    for j, a in enumerate(alpha):
        for _ in range(a):
            p = _partial(p, j)
    return p


def _oracle_hessian(p, alpha):
    # differentiate d - 2 times along alpha, then twice more; the constants left
    q = _partial_multi(p, alpha)
    e = p.nvars
    return tuple(tuple(_partial(_partial(q, i), j).coefficient((0,) * e) for j in range(e))
                 for i in range(e))


@st.composite
def _hessian_cases(draw):
    e = draw(st.integers(1, 4))
    d = draw(st.integers(2, 5))
    monomials = [m for m in itertools.product(range(d + 1), repeat=e) if sum(m) == d]
    terms = draw(st.dictionaries(st.sampled_from(monomials), _coeffs, min_size=1, max_size=8))
    alphas = [m for m in itertools.product(range(d - 1), repeat=e) if sum(m) == d - 2]
    return MultiPoly(e, terms), draw(st.sampled_from(alphas))


@settings(max_examples=200, deadline=None)
@given(_hessian_cases())
@example((P(3, {(2, 1, 1): 3, (0, 4, 0): half, (1, 0, 3): -2}), (0, 2, 0)))
@example((P(4, {(1, 1, 1, 0): Fraction(2, 3), (0, 0, 0, 3): 5}), (0, 0, 0, 1)))
def test_hessian_of_partial_is_the_hessian_of_the_iterated_partial(case):
    p, alpha = case
    got = p.hessian_of_partial(alpha)
    assert got == _oracle_hessian(p, alpha)
    assert all(type(c) is int or c.denominator > 1 for row in got for c in row)


def test_hessian_reconstructs_the_quadratic():
    # 1/2 x M x^T must rebuild the alpha-partial itself
    p = schur_jt((2, 2), 3)
    for alpha in [(2, 0, 0), (1, 1, 0), (0, 1, 1)]:
        m = p.hessian_of_partial(alpha)
        e = p.nvars
        rebuilt = MultiPoly.zero(e)
        for i in range(e):
            for j in range(e):
                if m[i][j]:
                    mono = [0] * e
                    mono[i] += 1
                    mono[j] += 1
                    rebuilt = rebuilt + MultiPoly(e, {tuple(mono): Fraction(m[i][j], 2)})
        assert rebuilt == _partial_multi(p, alpha)


def test_euler_identity():
    for lam, e in [((2, 1), 2), ((3, 1), 3), ((2, 2, 1), 3)]:
        p = schur_jt(lam, e)
        d = p.homogeneous_degree()
        total = MultiPoly.zero(e)
        for j in range(e):
            total = total + MultiPoly.variable(j, e) * _partial(p, j)
        assert total == d * p


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = MultiPoly.zero(rows[0][0].nvars)
    for k in range(n):
        minor = [r[:k] + r[k + 1:] for r in rows[1:]]
        term = rows[0][k] * _det_cofactor(minor)
        total = total + (term if k % 2 == 0 else -term)
    return total


def _det(rows):
    terms = kernels.det_terms([[p.terms for p in r] for r in rows], kernels.mul_terms)
    return MultiPoly._raw(rows[0][0].nvars, terms)


def test_det_terms_matches_cofactor_expansion():
    import random

    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        rows = [
            [
                MultiPoly(
                    2,
                    {
                        (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                        for _ in range(rng.randint(0, 3))
                    },
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert _det(rows) == _det_cofactor(rows)


def _matmul(a, b):
    n = len(a)
    zero = MultiPoly.zero(a[0][0].nvars)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n)]
            for i in range(n)]


def _square_pair(n):
    mat = st.lists(st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(mat, mat)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(_square_pair))
def test_det_is_multiplicative(pair):
    a, b = pair
    assert _det(_matmul(a, b)) == _det(a) * _det(b)


def test_str_rendering_in_graded_lex_order():
    assert str(schur_jt((1, 1), 2)) == "x1^2 + x1*x2 + x2^2"
    assert str(MultiPoly.zero(2)) == "0"
    assert str(P(2, {(1, 0): -1, (0, 0): Fraction(1, 2)})) == "-x1 + 1/2"


def test_term_printer_keeps_the_given_order():
    terms = [((2, 0), Fraction(-3, 2)), ((1, 1), 1), ((0, 1), -1), ((0, 0), 7)]
    assert fmt_terms(terms, "t") == "-3/2*t1^2 + t1*t2 - t2 + 7"
    assert fmt_terms(terms[::-1], "c") == "7 - c2 + c1*c2 - 3/2*c1^2"
    assert fmt_terms([((0,), -1)], "x") == "-1"
    assert fmt_terms([], "x") == "0"
    assert terms_to_json(terms[:2]) == [{"exponents": [2, 0], "coeff": "-3/2"},
                                        {"exponents": [1, 1], "coeff": "1"}]


def test_json_round_trip():
    p = P(2, {(2, 1): Fraction(3, 2), (0, 0): -1})
    assert MultiPoly.from_json(p.to_json(), 2) == p


def test_from_json_sums_a_repeated_monomial():
    data = [{"exponents": [2, 0], "coeff": "1"}, {"exponents": [2, 0], "coeff": "1/2"},
            {"exponents": [0, 2], "coeff": "1"}]
    assert MultiPoly.from_json(data, 2) == P(2, {(2, 0): Fraction(3, 2), (0, 2): 1})


@pytest.mark.parametrize("exps", [[1.5, 0.5], [1.0, 1], [True, 1]])
def test_from_json_rejects_an_exponent_that_is_not_an_int(exps):
    with pytest.raises(ValueError, match="not all integers"):
        MultiPoly.from_json([{"exponents": exps, "coeff": "1"}], 2)


def test_parse_q_names_a_zero_denominator():
    assert parse_q("-2/4") == Fraction(-1, 2) and parse_q("6/3") == 2
    with pytest.raises(ValueError, match="'1/0'"):
        parse_q("1/0")


def test_is_symmetric():
    assert schur_jt((2, 1), 3).is_symmetric()
    assert not P(2, {(2, 1): 1}).is_symmetric()
