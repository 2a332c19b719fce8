"""Formal group law, coefficient alphabets, genus specialization.

sympy is used here as an independent oracle for the series reversions and
the Bernoulli numbers; the package itself never imports it.
`series_reference` is the second oracle: the closed-form dictionaries and
exponential against series reversion, and the genus tables of the
coefficient recurrence against Newton inversion.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import homgenus
from homgenus.cobordism import (
    a_in_terms_of_b,
    b_in_terms_of_a,
    basis_convert,
    evaluate_class,
    formal_group_law,
    specialize_genus,
    tanh_series,
    todd_series,
)
from homgenus.exactalg import (
    MultiPoly,
    PoleCancellationError,
    RationalFn,
    TruncatedSeries,
    parse_poly,
    parse_rational,
)
from series_reference import (
    invert_series,
    series_a_in_terms_of_b,
    series_b_in_terms_of_a,
    series_exp,
    specialize_genus_reference,
)


def test_law_degree_three_frozen():
    fgl = formal_group_law(3)
    assert fgl.law.body == parse_poly(
        "u1 + u2 - 2*u1*u2*b1 + 4*u1^2*u2*b1^2 - 3*u1^2*u2*b2"
        " + 4*u1*u2^2*b1^2 - 3*u1*u2^2*b2"
    )


def test_law_unit_and_commutativity():
    fgl = formal_group_law(4)
    law = fgl.law.body
    u1 = MultiPoly.variable("u1")
    u2 = MultiPoly.variable("u2")
    assert law.subs({"u2": MultiPoly.zero()}) == u1
    assert law.subs({"u1": MultiPoly.zero()}) == u2
    assert law.subs({"u1": u2, "u2": u1}) == law


def test_law_associativity():
    fgl = formal_group_law(4)
    law = fgl.law.body
    u2 = MultiPoly.variable("u2")
    u3 = MultiPoly.variable("u3")
    left = fgl.add(law, u3).body
    right = fgl.add(MultiPoly.variable("u1"), law.subs({"u1": u2, "u2": u3})).body
    assert left == right


def test_inverse():
    fgl = formal_group_law(4)
    assert fgl.add(MultiPoly.variable("u1"), fgl.inverse.body).body.is_zero()
    assert formal_group_law(3).inverse.body == parse_poly("-u1 - 2*u1^2*b1 - 4*u1^3*b1^2")


def _old_add(fgl, s, t):
    """F(s, t) by the untruncated substitution, truncated afterwards."""
    if isinstance(s, MultiPoly):
        s = TruncatedSeries(s, fgl.cutoff)
    if isinstance(t, MultiPoly):
        t = TruncatedSeries(t, fgl.cutoff)
    body = fgl.law.body.subs({"u1": s.body, "u2": t.body})
    return TruncatedSeries(body, min(fgl.cutoff, s.cutoff, t.cutoff))


@st.composite
def series_args(draw):
    """A MultiPoly or a TruncatedSeries of any cutoff, neither homogeneous
    nor free of a constant term in general (e.g. u1^2 + b1*u1)."""
    p = MultiPoly.zero()
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        name = draw(st.sampled_from(("u1", "u2", "u3", "b1", "b2", "a1")))
        p = p + MultiPoly.variable(name, c) ** draw(st.integers(0, 3)) * MultiPoly.variable("u1") ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        return TruncatedSeries(p, draw(st.integers(0, 8)))
    return p


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), series_args(), series_args())
@example(4, parse_poly("u1^2 + b1*u1"), parse_poly("u2 - 2*u3^2 + 1"))
def test_add_matches_untruncated_substitution(degree, s, t):
    fgl = formal_group_law(degree)
    got = fgl.add(s, t)
    want = _old_add(fgl, s, t)
    assert got.cutoff == want.cutoff
    assert (got.body.vars, got.body.terms) == (want.body.vars, want.body.terms)


def test_associativity_degree_five_matches_untruncated_substitution():
    fgl = formal_group_law(5)
    law = fgl.law.body
    u1, u2, u3 = (MultiPoly.variable(v) for v in ("u1", "u2", "u3"))
    left = fgl.add(law, u3).body
    assert left == fgl.add(u1, law.subs({"u1": u2, "u2": u3})).body
    want = _old_add(fgl, law, u3).body
    assert (left.vars, left.terms) == (want.vars, want.terms)
    assert len(left.terms) == 146


def test_inverse_degree_five_frozen():
    fgl = formal_group_law(5)
    assert fgl.inverse.body.to_text() == (
        "-40*u1^5*b1^4 + 36*u1^5*b1^2*b2 - 12*u1^5*b1*b3 - 12*u1^4*b1^3"
        " + 6*u1^4*b1*b2 - 2*u1^4*b3 - 4*u1^3*b1^2 - 2*u1^2*b1 - u1"
    )
    assert fgl.add(MultiPoly.variable("u1"), fgl.inverse).body.is_zero()


def test_log_and_exp_frozen():
    fgl = formal_group_law(3)
    # the u^{i+1} coefficient of the logarithm is b_i on the nose
    assert fgl.log.body == parse_poly("u1 + u1^2*b1 + u1^3*b2")
    assert fgl.exp.body == parse_poly("x1 - x1^2*b1 + 2*x1^3*b1^2 - x1^3*b2")


def test_formal_group_law_cached():
    assert formal_group_law(5) is formal_group_law(5)


def _sympy_exp(deg):
    """Revert u + sum b_i u^{i+1} with plain sympy, term by term."""
    u, x = sympy.symbols("u x")
    b = [None] + [sympy.Symbol("b%d" % i) for i in range(1, deg + 1)]
    logs = u + sum(b[i] * u ** (i + 1) for i in range(1, deg + 1))
    expx = x
    for k in range(2, deg + 2):
        c = sympy.Symbol("c_tmp")
        eq = sympy.expand(logs.subs(u, expx + c * x ** k)) - x
        coeff = sympy.Poly(eq, x).coeff_monomial(x ** k)
        sol = sympy.solve(sympy.Eq(coeff, 0), c)[0]
        expx = sympy.expand(expx + sol * x ** k)
    return expx


def _as_sympy(poly):
    return sympy.sympify(poly.to_text().replace("^", "**"))


def test_a_in_terms_of_b_against_sympy():
    deg = 4
    x = sympy.Symbol("x")
    expx = _sympy_exp(deg)
    quotient = sympy.series(x / expx, x, 0, deg + 1).removeO()
    for i, val in a_in_terms_of_b(deg).items():
        want = sympy.expand(quotient.coeff(x, i))
        assert sympy.expand(_as_sympy(val) - want) == 0


def test_b_in_terms_of_a_against_sympy():
    deg = 4
    x, u = sympy.symbols("x u")
    a = [None] + [sympy.Symbol("a%d" % i) for i in range(1, deg + 1)]
    f = 1 + sum(a[i] * x ** i for i in range(1, deg + 1))
    ginv = sympy.series(x / f, x, 0, deg + 2).removeO()
    # revert ginv the same slow way
    g = u
    for k in range(2, deg + 2):
        c = sympy.Symbol("c_tmp")
        eq = sympy.expand(ginv.subs(x, g + c * u ** k)) - u
        coeff = sympy.Poly(eq, u).coeff_monomial(u ** k)
        sol = sympy.solve(sympy.Eq(coeff, 0), c)[0]
        g = sympy.expand(g + sol * u ** k)
    for n, val in b_in_terms_of_a(deg).items():
        want = sympy.expand(g.coeff(u, n + 1))
        assert sympy.expand(_as_sympy(val) - want) == 0


def test_alphabet_frozen_values():
    ab = a_in_terms_of_b(3)
    assert ab[1] == parse_poly("b1")
    assert ab[2] == parse_poly("b2 - b1^2")
    assert ab[3] == parse_poly("2*b1^3 - 3*b1*b2 + b3")
    ba = b_in_terms_of_a(3)
    assert ba[2] == parse_poly("a1^2 + a2")
    assert ba[3] == parse_poly("a1^3 + 3*a1*a2 + a3")


@pytest.mark.parametrize("degree", range(1, 8))
def test_closed_forms_match_series_route(degree):
    closed = [*a_in_terms_of_b(degree).values(), *b_in_terms_of_a(degree).values(), formal_group_law(degree).exp.body]
    series = [*series_a_in_terms_of_b(degree).values(), *series_b_in_terms_of_a(degree).values(), series_exp(degree).body]
    assert len(closed) == len(series) == 2 * degree + 1
    for got, want in zip(closed, series):
        assert (got.vars, got.terms) == (want.vars, want.terms)
        assert got.to_text() == want.to_text()


@pytest.mark.parametrize("fn", [a_in_terms_of_b, b_in_terms_of_a])
def test_dictionary_degrees(fn):
    assert fn(0) == {}
    with pytest.raises(ValueError, match="degree must be >= 0"):
        fn(-1)


def test_basis_convert_round_trip():
    p = parse_poly("2*a1^3 - 6*a1*a2 + 6*a3")
    there = basis_convert(p, "a->b")
    assert basis_convert(there, "b->a") == p
    assert basis_convert(parse_poly("4*b3"), "b->a") == parse_poly(
        "4*a1^3 + 12*a1*a2 + 4*a3"
    )


def test_basis_convert_direction_checked():
    with pytest.raises(ValueError, match="direction"):
        basis_convert(parse_poly("a1"), "sideways")


def test_todd_series_against_sympy():
    u = sympy.Symbol("u")
    want = sympy.series(1 - sympy.exp(-u), u, 0, 9).removeO()
    got = _as_sympy(todd_series(8).body.subs({"u1": MultiPoly.variable("u")}))
    assert sympy.expand(got - want) == 0


def test_tanh_series_against_sympy():
    u = sympy.Symbol("u")
    want = sympy.series(sympy.tanh(u), u, 0, 10).removeO()
    got = _as_sympy(tanh_series(9).body.subs({"u1": MultiPoly.variable("u")}))
    assert sympy.expand(got - want) == 0


def test_series_frozen_low_terms():
    assert todd_series(4).body == parse_poly("u1 - 1/2*u1^2 + 1/6*u1^3 - 1/24*u1^4")
    assert tanh_series(5).body == parse_poly("u1 - 1/3*u1^3 + 2/15*u1^5")


def test_specialize_genus():
    assert specialize_genus(tanh_series(9), 4) == {
        1: Fraction(0),
        2: Fraction(1, 3),
        3: Fraction(0),
        4: Fraction(-1, 45),
    }
    assert specialize_genus(todd_series(7), 3) == {
        1: Fraction(1, 2),
        2: Fraction(1, 12),
        3: Fraction(0),
    }


# (f as a rational function, the same f as a series to u^5, the error, its text)
REFUSALS = [
    ("u + x", "u + x", ValueError, "one-variable series"),
    ("u/(1+y*u)", "u - y*u^2 + y^2*u^3 - y^3*u^4 + y^4*u^5", ValueError, "must be numbers"),
    ("1+u", "1 + u", PoleCancellationError, "vanish at the origin"),
    ("2*u", "2*u", ValueError, "f'\\(0\\) = 1"),
    ("u^2/(1+u)", "u^2 - u^3 + u^4 - u^5", ZeroDivisionError, "zero constant term"),
]


@pytest.mark.parametrize("rational, series, error, text", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_specialize_genus_refusals(rational, series, error, text):
    for f in (parse_rational(rational), TruncatedSeries(parse_poly(series), 5)):
        with pytest.raises(error, match=text):
            specialize_genus(f, 4)


def test_refusal_text_does_not_depend_on_the_hash_seed():
    code = (
        "from homgenus.cobordism import specialize_genus\n"
        "from homgenus.exactalg import parse_rational\n"
        "try:\n"
        "    specialize_genus(parse_rational('u + x + u*x'), 4)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(homgenus.__file__))
    texts = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        texts.append(proc.stdout)
    assert texts[0] == texts[1] == "expected a one-variable series, got variables ['u', 'x']\n"


def test_specialize_genus_refuses_a_series_too_short():
    # tanh to u^3 says nothing of q_4 = -1/45 or q_6 = 2/945
    with pytest.raises(ValueError, match="cutoff 3"):
        specialize_genus(tanh_series(3), 6)
    assert specialize_genus(tanh_series(7), 6) == specialize_genus(tanh_series(13), 6)
    assert specialize_genus(tanh_series(7), 6)[4] == Fraction(-1, 45)


_coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def genus_series(draw):
    """(f, degree): a RationalFn num/den or a TruncatedSeries in one variable
    with rational coefficients and f'(0) = 1, and a degree 1..16."""
    degree = draw(st.integers(1, 16))
    var = draw(st.sampled_from(("u", "u1", "x1")))

    def poly(coeffs):
        return MultiPoly((var,), {(k,): c for k, c in coeffs.items()})

    lead = draw(_coefficients.filter(bool))
    num = {1: lead}
    for _ in range(draw(st.integers(0, 4))):
        num[draw(st.integers(2, degree + 2))] = draw(_coefficients)
    if draw(st.booleans()):
        return TruncatedSeries(poly(num) * (1 / lead), draw(st.integers(degree + 1, degree + 4))), degree
    den = {0: lead}
    for _ in range(draw(st.integers(0, 4))):
        den[draw(st.integers(1, degree + 1))] = draw(_coefficients)
    return RationalFn(poly(num), poly(den)), degree


@settings(max_examples=60, deadline=None)
@given(genus_series())
def test_specialize_genus_matches_newton_inversion(case):
    f, degree = case
    assert specialize_genus(f, degree) == specialize_genus_reference(f, degree)


def _bernoulli_over_factorial(k):
    r = sympy.bernoulli(k) / sympy.factorial(k)
    return Fraction(int(r.p), int(r.q))


def test_genus_tables_match_bernoulli_numbers():
    # x/(1 - e^{-x}) = sum B_k x^k / k! with B_1 = +1/2, and
    # x/tanh(x) = sum 2^{2k} B_{2k} x^{2k} / (2k)!, through x^32
    todd = specialize_genus(todd_series(33), 32)
    tanh = specialize_genus(tanh_series(33), 32)
    assert todd[1] == Fraction(1, 2)
    for k in range(2, 33):
        if k % 2:
            assert todd[k] == tanh[k] == 0
        else:
            assert todd[k] == _bernoulli_over_factorial(k)
            assert tanh[k] == 2**k * _bernoulli_over_factorial(k)
    assert tanh[1] == 0


def test_tanh_series_matches_newton_inversion():
    for cutoff in range(0, 34):
        fact = [math.factorial(k) for k in range(cutoff + 1)]
        sinh = MultiPoly(("u1",), {(k,): Fraction(1, fact[k]) for k in range(1, cutoff + 1, 2)})
        cosh = MultiPoly(("u1",), {(k,): Fraction(1, fact[k]) for k in range(0, cutoff + 1, 2)})
        want = TruncatedSeries(sinh, cutoff) * invert_series(TruncatedSeries(cosh, cutoff))
        assert tanh_series(cutoff) == want


def test_evaluate_class():
    cls = parse_poly("2*a1^3 - 6*a1*a2 + 6*a3")
    assert evaluate_class(cls, {1: Fraction(1), 2: Fraction(1, 2)}) == -1
    # unassigned generators default to zero
    assert evaluate_class(cls, {}) == 0


def test_evaluate_class_rejects_b_alphabet():
    with pytest.raises(ValueError, match="b-alphabet"):
        evaluate_class(parse_poly("b1"), {1: Fraction(1)})


def test_evaluate_class_rejects_stray_vars():
    with pytest.raises(ValueError):
        evaluate_class(parse_poly("t*a1"), {1: Fraction(1)})
