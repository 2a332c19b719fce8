"""Slow, direct references for the package's fast kernels.

The package computes the exponential of the universal formal group law and
the a <-> b dictionaries by Lagrange inversion.  The series functions here
compute the same things by reverting truncated power series with a
fixed-point iteration.  `MultiPoly.evaluate` and `to_text` work on the ints
inside each Fraction, and `rigidity_eval` evaluates the kernel once per
distinct weight; the functions at the end do each in plain Fraction
arithmetic, one term or one weight at a time.  Tests compare the two.
"""

from fractions import Fraction

from homgenus.cobordism import formal_group_law
from homgenus.exactalg import MultiPoly, RationalFn, TruncatedSeries, exact_divide
from homgenus.hirzebruch import _genus_variable, _sample_point
from homgenus.rootdata import dot
from homgenus.structures import fixed_points


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


def evaluate_reference(poly, point):
    """poly at point (name -> rational), one Fraction product per term."""
    total = Fraction(0)
    vals = {v: Fraction(point[v]) for v in poly.vars}
    for e, c in poly.terms.items():
        prod = c
        for v, ei in zip(poly.vars, e):
            if ei:
                prod *= vals[v] ** ei
        total += prod
    return total


def to_text_reference(poly):
    """poly's text, with each sign and magnitude from Fraction abs, < and str."""
    vs, items = poly._sorted_terms()
    if not items:
        return "0"
    parts = []
    for e, c in items:
        factors = []
        for v, ei in zip(vs, e):
            if ei == 1:
                factors.append(v)
            elif ei > 1:
                factors.append("%s^%d" % (v, ei))
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def _kernel_reference(f, var, arg):
    """f(arg), raising ZeroDivisionError as RationalFn.evaluate does."""
    den = evaluate_reference(f.den, {var: arg})
    if not den:
        raise ZeroDivisionError("denominator vanishes at %r" % ({var: arg},))
    return evaluate_reference(f.num, {var: arg}) / den


def rigidity_eval_reference(structure, f, point):
    """hirzebruch.rigidity_eval with the kernel evaluated afresh at every
    weight of every fixed point."""
    var = _genus_variable(f)
    point = tuple(Fraction(c) for c in point)
    total = Fraction(0)
    for fp in fixed_points(structure):
        prod = Fraction(1)
        for w in fp.weights:
            arg = dot(w, point)
            if arg == 0:
                raise ValueError("weight %s pairs to zero with the sample point" % (tuple(w),))
            val = _kernel_reference(f, var, arg)
            if val == 0:
                raise ValueError("genus kernel vanishes at weight %s" % (tuple(w),))
            prod *= val
        total += Fraction(fp.sign) / prod
    return total


def admissible_point_reference(structure, f, rng, tries=200):
    """hirzebruch._admissible_point, testing every weight of every fixed
    point in turn at each drawn point."""
    var = _genus_variable(f) if isinstance(f, RationalFn) else "u"
    fps = fixed_points(structure)
    for _ in range(tries):
        pt = _sample_point(structure.space.group.dim, rng)
        ok = True
        for fp in fps:
            for w in fp.weights:
                arg = dot(w, pt)
                if arg == 0:
                    ok = False
                    break
                if isinstance(f, RationalFn):
                    try:
                        if _kernel_reference(f, var, arg) == 0:
                            ok = False
                            break
                    except ZeroDivisionError:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            return pt
    raise RuntimeError("could not find an admissible sample point")
