"""Slow, direct references for the package's fast kernels.

The package computes the exponential of the universal formal group law and
the a <-> b dictionaries by Lagrange inversion, and a genus table by one
coefficient recurrence per quotient.  The series functions here compute the
same things by reverting truncated power series with a fixed-point
iteration and inverting them by Newton's iteration; `TruncatedSeries.compose`
is one truncated `MultiPoly.subs`, and `compose_reference` composes by
Horner's scheme in the substituted variable.  `MultiPoly.subs` keeps every
power and product as packed ints on one layout; `subs_reference` forms
each as a `MultiPoly` product and adds the groups by `MultiPoly.sum`.  `MultiPoly.evaluate`
and `to_text` work on the ints inside each Fraction, and `rigidity_eval`
evaluates the kernel once per distinct weight; the functions after the
series do each in plain Fraction arithmetic, one term or one weight at a
time.  The symbolic localization sum and its divisions run on packed ints
over one denominator; the functions at the end build it from `MultiPoly`
products and divide it by `exact_divide`, one line at a time.
`exact_divide` divides by a linear pivot on packed ints;
`synthetic_divide_reference` does it on Fraction terms and exponent tuples.
A Weyl element moves a vector by the Fraction reflections its word names, where
the package reads the element's root permutation.  The Schur route's a^omega
coefficient runs the point route's step table over the down-set of omega;
`f_omega_reference` copies a dict of sub-multi-indices once per factor.
The Schur route reads the divided difference off the staircase coefficients
of a packed-int argument; `schur_route_reference` builds the argument from
`MultiPoly` linear forms and Vandermondes (`vandermonde`, kept here as the
package never forms one) and applies `divided_difference`.  Tests compare
the two.  The package writes `MultiPoly.to_json` documents but never reads
one; `poly_from_json` reads them back for the round-trip tests.
"""

import math
from fractions import Fraction

from homgenus.cobordism import formal_group_law
from homgenus.exactalg import (
    MultiPoly,
    PoleCancellationError,
    RationalFn,
    TruncatedSeries,
    divided_difference,
    exact_divide,
    var_weight,
)
from homgenus.hirzebruch import _genus_variable, _sample_point
from homgenus.rootdata import canonical_positive, dot
from homgenus.structures import fixed_points
from homgenus.toricgenus import _block_partition, _normalize_omega, _table


def invert_series(s):
    """Multiplicative inverse of a TruncatedSeries by Newton iteration; the
    constant term must be nonzero."""
    c0 = s.constant_term()
    if not c0:
        raise ZeroDivisionError("series has zero constant term")
    r = TruncatedSeries(MultiPoly.const(1 / c0), s.cutoff)
    # Newton iteration r <- r(2 - s r); error valuation doubles each pass
    k = 1
    while k <= s.cutoff:
        r = r * (TruncatedSeries(MultiPoly.const(2), s.cutoff) - s * r)
        k *= 2
    return r


def compose_reference(series, name, inner):
    """`series.compose(name, inner)` by Horner's scheme in `name`, highest
    power first, each step a truncated series product and sum."""
    cutoff = min(series.cutoff, inner.cutoff)
    if inner.constant_term():
        raise ValueError("composition needs a series with zero constant term")
    body = series.body
    out = TruncatedSeries(MultiPoly.zero(), cutoff)
    for k in range(body.degree_in(name), -1, -1):
        out = out * inner + TruncatedSeries(body.coefficient_of(name, k), cutoff)
    return out


def subs_reference(p, mapping, cutoff=None):
    """`p.subs(mapping, cutoff)` on `MultiPoly` values: the powers of each
    image are (truncated) products, each from the one below when that is
    known and by squaring otherwise, and the terms that raise the
    substituted variables to the same powers are one product of those
    powers and the polynomial of the rest, repacked and read back to
    Fractions at every step; the groups are added by `MultiPoly.sum`."""
    powers = {}
    for v, img in mapping.items():
        if not isinstance(img, MultiPoly):
            img = MultiPoly.const(Fraction(img))
        powers[v] = {1: img}

    def power(v, n):
        memo = powers[v]
        if n not in memo:
            if n - 1 in memo:
                memo[n] = MultiPoly.product((memo[n - 1], memo[1]), cutoff=cutoff)
            else:
                half = power(v, n // 2)
                odd = (memo[1],) if n % 2 else ()
                memo[n] = MultiPoly.product((half, half) + odd, cutoff=cutoff)
        return memo[n]

    p = p.restrict_vars()
    subbed = [i for i, v in enumerate(p.vars) if v in powers]
    kept = [i for i, v in enumerate(p.vars) if v not in powers]
    groups = {}
    for e, c in p.terms.items():
        groups.setdefault(tuple([e[i] for i in subbed]), {})[tuple([e[i] for i in kept])] = c
    rest = tuple(p.vars[i] for i in kept)
    terms = []
    for key, group in groups.items():
        factors = [power(p.vars[i], k) for i, k in zip(subbed, key) if k]
        factors.append(MultiPoly(rest, group))
        terms.append(MultiPoly.product(factors, cutoff=cutoff))
    return MultiPoly.sum(terms)


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
    quot = invert_series(exp_over_x)
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
    ginv = TruncatedSeries(MultiPoly.variable("x1"), cutoff) * invert_series(f)
    g = series_reversion(ginv, "x1", "u1")
    return {n: g.body.coefficient_of("u1", n + 1) for n in range(1, degree + 1)}


def specialize_genus_reference(f, degree):
    """{i: q_i} with q_i the x^i coefficient of x/f(x), by Newton inversion:
    x/f = den * (num/x)^{-1} as truncated series in x1, for a RationalFn
    num/den or a TruncatedSeries num (den = 1) in one variable u or x."""
    x = MultiPoly.variable("x1")
    if isinstance(f, RationalFn):
        num, den = f.num, f.den
    else:
        num, den = f.body, MultiPoly.const(1)
    (var,) = {v for v in num.vars + den.vars if v[0] in ("u", "x")}
    num_over_x = exact_divide(num.subs({var: x}), x, "genus series must vanish at the origin")
    series = TruncatedSeries(den.subs({var: x}), degree) * invert_series(TruncatedSeries(num_over_x, degree))
    assert series.constant_term() == 1
    return {i: series.body.coefficient_of("x1", i).constant_value() for i in range(1, degree + 1)}


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


def poly_from_json(doc):
    """The MultiPoly of `MultiPoly.to_json`'s document; the package writes
    that document but never reads one back."""
    return MultiPoly(tuple(doc["vars"]), {tuple(t["exps"]): Fraction(t["coeff"]) for t in doc["terms"]})


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
            try:
                val = _kernel_reference(f, var, arg)
            except ZeroDivisionError:
                raise ZeroDivisionError("genus kernel has a pole at weight %s" % (tuple(w),)) from None
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


def gram_pairing(u, v, gram=None):
    """Invariant inner product B(u, v); plain dot when gram is None."""
    if gram is None:
        return dot(u, v)
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def word_image(group, simple_roots, word, v):
    """v moved by the Weyl element with this word: the reflections
    s_a(v) = v - 2 B(v, a) / B(a, a) a in the simple roots its letters
    name, in Fractions, the last letter first."""
    v = tuple(map(Fraction, v))
    for g in reversed(word):
        a = simple_roots[g]
        n = 2 * Fraction(gram_pairing(v, a, group.gram)) / gram_pairing(a, a, group.gram)
        v = tuple(c - n * b for c, b in zip(v, a))
    return v


def _form_of(vector):
    return MultiPoly.linear_form(["x%d" % (i + 1) for i in range(len(vector))], vector)


def divide_lines_reference(numerator, lines):
    """numerator / prod(lines), exactly; a remainder is an uncancelled pole."""
    for line in lines:
        numerator = exact_divide(numerator, _form_of(line), "localization sum has uncancelled pole")
    return numerator


def synthetic_divide_reference(num_terms, den_terms, vs, message):
    """num / den on exponent tuples over `vs`, in Fractions, when den is
    c*x_i^e - d with c*x_i^e its graded-lex leading term and d free of x_i;
    None for any other shape.  Buckets the numerator by the x_i exponent and
    clears it from the top down; a bucket below x_i^e left nonzero raises
    PoleCancellationError(message)."""
    weights = tuple(var_weight(v) for v in vs)
    de, dc = None, None
    for e, c in den_terms.items():
        k = (sum(ei * w for ei, w in zip(e, weights)), e)
        if de is None or k > (sum(ei * w for ei, w in zip(de, weights)), de):
            de, dc = e, c
    pivots = [i for i, ei in enumerate(de) if ei]
    if len(pivots) != 1:
        return None
    i = pivots[0]
    e0 = de[i]
    d = {}
    for e, c in den_terms.items():
        if e == de:
            continue
        if e[i]:
            return None
        d[e[:i] + (0,) + e[i + 1:]] = -c
    buckets = {}
    m = 0
    for e, c in num_terms.items():
        k = e[i]
        m = max(m, k)
        buckets.setdefault(k, {})[e[:i] + (0,) + e[i + 1:]] = c
    q = {}
    for k in range(m, -1, -1):
        cur = dict(buckets.get(k, ()))
        if d and k in q:
            for e1, c1 in q[k].items():
                for e2, c2 in d.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    s = cur.get(e, Fraction(0)) + c1 * c2
                    if s:
                        cur[e] = s
                    elif e in cur:
                        del cur[e]
        if k >= e0:
            if cur:
                q[k - e0] = {e: c / dc for e, c in cur.items()}
        elif cur:
            raise PoleCancellationError(message)
    out = {}
    for k, terms in q.items():
        for e, c in terms.items():
            out[e[:i] + (k,) + e[i + 1:]] = c
    return MultiPoly(vs, out).restrict_vars()


def f_factor_reference(line, scale, cutoff, power):
    """f(t * scale * line) truncated at t^cutoff, with f = 1 + sum a_i z^i,
    in one dict: the term a_i t^i scale^i c x^e for each term c x^e of the
    line's i-th power."""
    if cutoff < 1:
        return MultiPoly.const(1)
    # the canonical order puts the line's x's first, then a1..a_cutoff, then t
    vs = power(line, 1).vars + tuple("a%d" % i for i in range(1, cutoff + 1)) + ("t",)
    terms = {(0,) * len(vs): Fraction(1)}
    for i in range(1, cutoff + 1):
        at = (0,) * (i - 1) + (1,) + (0,) * (cutoff - i) + (i,)
        c = scale**i
        for e, k in power(line, i).terms.items():
            terms[e + at] = k * c
    return MultiPoly._from_clean(vs, terms)


def localized_numerator_reference(points, ordering, cutoff):
    """toricgenus.localized_numerator on `MultiPoly`s: each point's sign /
    prod(scales) and f-factors as one truncated product, the points grouped
    by the lines they miss."""
    distinct = dict.fromkeys(w for _, ws in points for w in ws)
    canonical = {w: canonical_positive(w, ordering) for w in distinct}
    lines = list(dict.fromkeys(line for line, _ in canonical.values()))
    powers = {}

    def power(line, i):
        p = powers.get(line)
        if p is None:
            p = powers[line] = [MultiPoly.const(1), _form_of(line)]
        while len(p) <= i:
            p.append(p[-1] * p[1])
        return p[i]

    f_factors = {}
    groups = {}
    for sign, ws in points:
        cw = [canonical[w] for w in ws]
        own = {line for line, _ in cw}
        if len(own) != len(cw):
            raise ValueError("two isotropy weights at one fixed point share a line")
        coeff = Fraction(sign)
        for pair in cw:
            coeff /= pair[1]
            if pair not in f_factors:
                f_factors[pair] = f_factor_reference(*pair, cutoff, power)
        factors = [MultiPoly.const(coeff)] + [f_factors[pair] for pair in cw]
        missing = tuple(line for line in lines if line not in own)
        # a term a_i t^i x^e of an f-factor, |e| = i, has `var_weight` 3i, so
        # the product truncated at weight 3 * cutoff is the one at t^cutoff
        groups.setdefault(missing, []).append(MultiPoly.product(factors, 3 * cutoff))
    terms = [
        MultiPoly.product([power(line, 1) for line in missing] + [MultiPoly.sum(group)])
        for missing, group in groups.items()
    ]
    return MultiPoly.sum(terms), lines


def f_omega_reference(pairs, omega):
    """Coefficient of a^omega in prod_j f(scale_j * <line_j, x>), as a
    polynomial in x, for the (line, scale) pairs of one point: a dict of
    sub-multi-indices of omega copied and extended once per pair, where
    toricgenus.s_number_schur_route runs the point route's step table."""
    support = [i + 1 for i, k in enumerate(omega) if k]
    zero = tuple(0 for _ in omega)
    state = {zero: MultiPoly.const(1)}
    powers = {}
    for pair in pairs:
        p = powers.get(pair)
        if p is None:
            line, scale = pair
            p = powers[pair] = [MultiPoly.const(1), _form_of(line) * scale]
        new = dict(state)
        for key, poly in state.items():
            for i in support:
                if key[i - 1] >= omega[i - 1]:
                    continue
                while len(p) <= i:
                    p.append(p[-1] * p[1])
                k2 = list(key)
                k2[i - 1] += 1
                k2 = tuple(k2)
                add = poly * p[i]
                cur = new.get(k2)
                new[k2] = add if cur is None else cur + add
        state = new
    return state.get(tuple(omega), MultiPoly.zero())


def vandermonde(names):
    """prod_{i<j} (x_i - x_j) over the given variable names."""
    p = MultiPoly.const(1)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            p = p * (MultiPoly.variable(names[i]) - MultiPoly.variable(names[j]))
    return p


def schur_route_reference(structure, omega):
    """`toricgenus.s_number_schur_route` on `MultiPoly`/`Fraction`: f_omega
    by the point route's step table on linear forms, times the blocks'
    `vandermonde`s, through the full `divided_difference`."""
    space = structure.space
    blocks = _block_partition(space)
    if blocks is None:
        raise ValueError("the divided-difference route needs a U(n)/(block product) space")
    omega = _normalize_omega(omega, space.n)
    names = ["x%d" % (i + 1) for i in range(space.group.dim)]
    # the roots are lam^-1 times the product of the positive lines
    lam = 1 / Fraction(math.prod(canonical_positive(r, space.ordering)[1] for r in structure.roots))
    _, index, steps, parts = _table(omega, space.n)
    acc = [MultiPoly.const(1)] + [MultiPoly.zero()] * (len(index) - 1)
    for line, scale in map(canonical_positive, structure.roots):
        pw = [MultiPoly.const(1), MultiPoly.linear_form(names, line) * scale]
        for _ in range(2, max(parts, default=1) + 1):
            pw.append(pw[-1] * pw[1])
        for src, i, dst in steps:
            if acc[src]:
                acc[dst] = acc[dst] + acc[src] * pw[i]
    arg = acc[index[omega]]
    for b in blocks:
        arg = arg * vandermonde([names[i] for i in b])
        lam /= math.factorial(len(b))
    res = divided_difference(arg, names)
    if not res.is_constant():
        raise ArithmeticError("divided difference did not produce a constant")
    value = res.constant_value() * lam
    if value.denominator != 1:
        raise ArithmeticError("s_omega value is not an integer: %s" % value)
    return int(value)
