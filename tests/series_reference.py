"""Series-algebra reference for the closed-form alphabet dictionaries.

The package computes the exponential of the universal formal group law and
the a <-> b dictionaries by Lagrange inversion.  The functions here compute
the same things the slow, direct way: by reverting truncated power series
with a fixed-point iteration.  Tests compare the two term for term.
"""

from fractions import Fraction

from homgenus.cobordism import formal_group_law
from homgenus.exactalg import MultiPoly, TruncatedSeries, exact_divide


def series_reversion(series, in_var, out_var):
    """Compositional inverse of s = in_var + O(in_var^2).

    Returns r, a TruncatedSeries in out_var (same cutoff), with
    s(r(out_var)) == out_var up to the cutoff.  Coefficients may live in any
    other variables present (they just ride along).
    """
    cutoff = series.cutoff
    x = TruncatedSeries(MultiPoly.variable(out_var), cutoff)
    body = series.body
    if body.coefficient_of(in_var, 0):
        raise ValueError("series to revert must have zero constant term")
    if body.coefficient_of(in_var, 1) != MultiPoly.const(1):
        raise ValueError("series to revert must start with the variable itself")
    # phi = s - id;  fixed point iteration r <- x - phi(r) gains one degree per pass
    phi = TruncatedSeries(body - MultiPoly.variable(in_var), cutoff)
    r = x
    for _ in range(cutoff):
        r = x - phi.compose(in_var, r)
    return r


def series_exp(degree):
    """The exponential of formal_group_law(degree), by reverting its logarithm."""
    return series_reversion(formal_group_law(degree).log, "u1", "x1")


def series_a_in_terms_of_b(degree):
    """{i: polynomial in b} by inverting exp(x)/x."""
    # one degree deeper than asked: the x^i coefficient carries b-weight i,
    # so its weighted degree 2i only fits under the next cutoff up
    exp = series_exp(degree + 1)
    exp_over_x = TruncatedSeries(
        exact_divide(exp.body, MultiPoly.variable("x1"), "exponential series lost its leading term"),
        2 * degree,
    )
    quot = exp_over_x.invert()
    return {i: quot.body.coefficient_of("x1", i) for i in range(1, degree + 1)}


def series_b_in_terms_of_a(degree):
    """{n: polynomial in a} by reverting x/f(x) back to the logarithm."""
    cutoff = 2 * degree + 2
    f_vars = ["x1"] + ["a%d" % i for i in range(1, degree + 1)]
    terms = {tuple([0] * len(f_vars)): Fraction(1)}
    for i in range(1, degree + 1):
        e = [0] * len(f_vars)
        e[0] = i
        e[f_vars.index("a%d" % i)] = 1
        terms[tuple(e)] = Fraction(1)
    f = TruncatedSeries(MultiPoly(f_vars, terms), cutoff)
    ginv = TruncatedSeries(MultiPoly.variable("x1"), cutoff) * f.invert()
    g = series_reversion(ginv, "x1", "u1")
    return {n: g.body.coefficient_of("u1", n + 1) for n in range(1, degree + 1)}
