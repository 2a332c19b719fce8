"""Exact polynomial / series arithmetic."""

from fractions import Fraction

import pytest

from homgenus.exactalg import (
    MAX_EXPONENT,
    MultiPoly,
    PoleCancellationError,
    RationalFn,
    TruncatedSeries,
    divided_difference,
    exact_divide,
    parse_poly,
    parse_rational,
)
from series_reference import evaluate_reference, invert_series, poly_from_json, series_reversion, vandermonde


def test_ring_basics():
    x1 = MultiPoly.variable("x1")
    x2 = MultiPoly.variable("x2")
    p = (x1 + x2) ** 2
    assert p.to_text() == "x1^2 + 2*x1*x2 + x2^2"
    assert (p - p).is_zero()
    assert p - x1 * x1 - x2 * x2 == MultiPoly.variable("x1", 2) * x2
    # scalar arithmetic goes through Fraction
    assert (p * Fraction(1, 2)).evaluate({"x1": Fraction(1), "x2": Fraction(1)}) == 2


def test_parse_poly_round_trip():
    for text in (
        "x1^2 + 2*x1*x2 + x2^2",
        "2*a1^3 - 6*a1*a2 + 6*a3",
        "-1/3*u1^3 + u1",
        "t",
        "0",
    ):
        p = parse_poly(text)
        assert parse_poly(p.to_text()) == p
        assert poly_from_json(p.to_json()) == p


def test_parse_poly_accepts_double_star():
    assert parse_poly("x1**2") == parse_poly("x1^2")


def test_parse_poly_rejects_junk():
    with pytest.raises(ValueError):
        parse_poly("x1 / x2")
    with pytest.raises(ValueError):
        parse_poly("0.5*x1")
    with pytest.raises(ValueError):
        parse_poly("import os")


def test_linear_form():
    f = MultiPoly.linear_form(("x1", "x2", "x3"), (1, -1, 0))
    assert f == parse_poly("x1 - x2")
    assert MultiPoly.linear_form(("x1",), (Fraction(1, 2),)).evaluate({"x1": Fraction(4)}) == 2


def test_evaluate():
    p = parse_poly("x1^2 + 2*x1*x2")
    assert p.evaluate({"x1": Fraction(1, 2), "x2": Fraction(3)}) == Fraction(13, 4)


def test_coefficient_of():
    p = parse_poly("x1^2*x2 + 3*x1*x2 - x2")
    assert p.coefficient_of("x1", 2) == parse_poly("x2")
    assert p.coefficient_of("x1", 1) == parse_poly("3*x2")
    assert p.coefficient_of("x1", 0) == parse_poly("-x2")


def test_exact_divide_difference_of_squares():
    num = parse_poly("x1^2 - x2^2")
    den = parse_poly("x1 - x2")
    assert exact_divide(num, den) == parse_poly("x1 + x2")


def test_exact_divide_cubic():
    assert exact_divide(parse_poly("x1^3 - 8"), parse_poly("x1 - 2")) == parse_poly(
        "x1^2 + 2*x1 + 4"
    )


def test_exact_divide_failure_raises():
    with pytest.raises(PoleCancellationError):
        exact_divide(parse_poly("x1^2 + x2^2"), parse_poly("x1 - x2"))
    # the divisor's x2 is in no term of the numerator: the packed layout must
    # still hold it and every key the pivot steps form
    for num, den in (("2*x1 - 2*x3", "x1 + 2*x2 - x3"), ("x1^3 + 3*x1^2*x3", "x1 - x2 + 3*x3")):
        with pytest.raises(PoleCancellationError):
            exact_divide(parse_poly(num), parse_poly(den))


def test_exact_divide_custom_message():
    with pytest.raises(PoleCancellationError, match="my message"):
        exact_divide(parse_poly("x1"), parse_poly("x2"), message="my message")


def test_exact_divide_round_trip():
    a = parse_poly("x1^2 - x2 + 3")
    b = parse_poly("2*x1 - 3/4*x2 + 5")
    assert exact_divide(a * b, b) == a


@pytest.mark.parametrize("den", ["x1*x2 - 1", "x1^2 - x2", "x1 + x1*x2", "2", "x1 + x2^2"])
def test_exact_divide_refuses_a_divisor_without_a_pivot(den):
    with pytest.raises(ValueError, match="needs a divisor linear in a pivot"):
        exact_divide(parse_poly("x1^3 - 1"), parse_poly(den))
    with pytest.raises(ValueError, match="needs a divisor linear in a pivot"):
        exact_divide(MultiPoly.zero(), parse_poly(den))


def test_divided_difference_basics():
    # single step: (f(x1) - f(x2)) / (x1 - x2)
    assert divided_difference(parse_poly("x1^2"), ["x1", "x2"]) == parse_poly("x1 + x2")
    # the staircase monomial collapses to 1
    assert divided_difference(parse_poly("x1^2*x2"), ["x1", "x2", "x3"]) == MultiPoly.const(1)
    # repeated exponents are killed by antisymmetry
    assert divided_difference(parse_poly("x1*x2"), ["x1", "x2"]).is_zero()
    assert divided_difference(parse_poly("x1^2*x2^2"), ["x1", "x2", "x3"]).is_zero()


def test_divided_difference_degree_drop():
    # dividing by the full Vandermonde lowers total degree by 3 choose 2
    p = parse_poly("x1^4*x2^2")
    out = divided_difference(p, ["x1", "x2", "x3"])
    assert {sum(e) for e in out.terms} == {6 - 3}


def test_vandermonde():
    names = ("x1", "x2", "x3")
    prod = (
        (MultiPoly.variable("x1") - MultiPoly.variable("x2"))
        * (MultiPoly.variable("x1") - MultiPoly.variable("x3"))
        * (MultiPoly.variable("x2") - MultiPoly.variable("x3"))
    )
    assert vandermonde(names) == prod


def test_truncated_series_invert_geometric():
    s = TruncatedSeries(parse_poly("1 - u1"), 4)
    assert invert_series(s).body == parse_poly("1 + u1 + u1^2 + u1^3 + u1^4")


def test_truncated_series_invert_needs_unit():
    with pytest.raises(ZeroDivisionError):
        invert_series(TruncatedSeries(parse_poly("u1"), 4))


def test_truncated_series_compose():
    g = TruncatedSeries(parse_poly("u1 + u1^2"), 4)
    h = g.compose("u1", TruncatedSeries(parse_poly("2*u1"), 4))
    assert h.body == parse_poly("2*u1 + 4*u1^2")


def test_series_reversion():
    g = TruncatedSeries(parse_poly("u1 + u1^2"), 4)
    rev = series_reversion(g, "u1", "x1")
    assert rev.body == parse_poly("x1 - x1^2 + 2*x1^3 - 5*x1^4")
    # composing back gives the identity up to the cutoff
    back = g.compose("u1", rev.compose("x1", TruncatedSeries(parse_poly("u1"), 4)))
    assert back.body == parse_poly("u1")


def test_series_reversion_needs_unit_slope():
    with pytest.raises(ValueError):
        series_reversion(TruncatedSeries(parse_poly("u1^2"), 4), "u1", "x1")


def test_subs():
    p = parse_poly("x1^2*u1 - 3*x1*x2 + 1/2")
    got = p.subs({"x1": parse_poly("x2 + 1"), "u1": 2})
    assert got == parse_poly("2*(x2 + 1)^2 - 3*(x2 + 1)*x2 + 1/2")
    assert p.subs({}) == p
    # terms that cancel leave no zero coefficients behind
    assert parse_poly("x1 - x2").subs({"x1": MultiPoly.variable("x2")}).terms == {}
    assert MultiPoly.zero().subs({"x1": MultiPoly.variable("x2")}) == MultiPoly.zero()


def test_pow_matches_repeated_multiplication():
    p = parse_poly("1 + a1 + b1/2")
    want = MultiPoly.const(1)
    for _ in range(7):
        want = want * p
    got = p**7
    assert (got.vars, got.terms) == (want.vars, want.terms)
    assert ((p**0).vars, (p**0).terms) == ((), {(): 1})
    assert ((p**1).vars, (p**1).terms) == (p.vars, p.terms)
    # the packed square-and-multiply names a variable t of its own
    t = parse_poly("t + y/3")
    assert t**3 == t * t * t
    with pytest.raises(ValueError):
        p ** -1


def test_truncate_weight():
    p = parse_poly("1 + x1 + x1^2 + x1^3")
    assert p.truncate_weight(2) == parse_poly("1 + x1 + x1^2")


def test_truncate_var():
    p = parse_poly("t^3*x1 + t^2 + t*x1 + 1")
    assert p.truncate_var("t", 2) == parse_poly("t^2 + t*x1 + 1")


def test_rational_parse_and_evaluate():
    r = parse_rational("u/(1+u^2)")
    assert r.evaluate({"u": Fraction(1, 2)}) == Fraction(2, 5)
    assert r.to_text() == "(u)/(u^2 + 1)"


def test_rational_is_odd():
    assert parse_rational("u/(1+u^2)").is_odd()
    assert parse_rational("u + u^3").is_odd()
    assert not parse_rational("u^2/(1+u)").is_odd()
    assert not parse_rational("u/(1-u)").is_odd()


def test_rational_is_polynomial():
    assert parse_rational("u + 1").is_polynomial()
    assert not parse_rational("1/(1+u)").is_polynomial()


def test_parse_rational_rejects_floats():
    with pytest.raises(ValueError):
        parse_rational("0.5*u")


def test_parse_rational_caps_powers():
    assert parse_rational("u^%d" % MAX_EXPONENT).is_polynomial()
    # each is refused before its power is formed
    for text in ("(1+u)^100000", "2^1000000000", "((1+u)^200)^2", "1/(u^2 + 1)^200"):
        with pytest.raises(ValueError, match="power of degree above"):
            parse_rational(text)


def test_rational_from_poly():
    r = RationalFn.from_poly(parse_poly("u^3"))
    assert r.is_odd()
    assert r.evaluate({"u": Fraction(2)}) == 8


def _memo_cases():
    """Polynomials from __init__ (parsed, built from a dict) and from the
    unchecked constructor (a product, a subs result, a sum)."""
    x1, x2 = MultiPoly.variable("x1"), MultiPoly.variable("x2")
    parsed = parse_poly("3/2*x1^2*x2 - x2 + 1/3")
    return [
        parsed,
        MultiPoly(("y",), {(0,): Fraction(2), (3,): Fraction(-5, 4)}),
        (x1 + x2) * (x1 - x2 * 2),
        parsed.subs({"x2": x1 + 1}),
        MultiPoly.sum([parsed, x1 * x1]),
        MultiPoly.zero(),
    ]


@pytest.mark.parametrize("p", _memo_cases(), ids=lambda p: p.to_text())
def test_to_text_is_kept(p):
    first = p.to_text()
    assert p.to_text() is first
    assert first == MultiPoly(p.vars, p.terms).to_text()


def test_univariate_evaluate_after_the_integer_form_is_kept():
    y = MultiPoly.variable("y")
    for p in (
        MultiPoly(("y",), {(0,): Fraction(2), (3,): Fraction(-5, 4), (4,): Fraction(1, 6)}),
        (y - Fraction(1, 3)) * (y * 2 + 7) * y,
        parse_poly("1 - y + y^2 - y^3").subs({"y": y * Fraction(3, 2)}),
    ):
        assert p.evaluate({"y": 1}) == evaluate_reference(p, {"y": 1})
        assert p._ints is not None
        for value in (Fraction(1, 2), Fraction(-7, 3), Fraction(22, 9), Fraction(-1, 5)):
            assert p.evaluate({"y": value}) == evaluate_reference(p, {"y": value})
