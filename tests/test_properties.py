"""Property-based invariants (hypothesis)."""

import math
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from homgenus.catalog import catalog_space
from homgenus.exactalg import (
    MultiPoly,
    PoleCancellationError,
    TruncatedSeries,
    exact_divide,
    parse_poly,
    var_key,
    var_weight,
)
from homgenus.hirzebruch import chi_y_genus, euler_number, signature
from homgenus.rootdata import Ordering, SubgroupData, canonical_positive, dot
from homgenus.structures import (
    HomogeneousSpace,
    InvariantStructure,
    StableStructure,
    _intern,
    enumerate_structures,
    fixed_points,
)
from homgenus.toricgenus import (
    _localized_form,
    _symbolic_form,
    localized_numerator,
    twisted_product,
)
from series_reference import (
    compose_reference,
    divide_lines_reference,
    evaluate_reference,
    f_factor_reference,
    invert_series,
    localized_numerator_reference,
    poly_from_json,
    series_reversion,
    subs_reference,
    synthetic_divide_reference,
    to_text_reference,
    word_image,
)


fractions = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)


@st.composite
def polys(draw, names=("x1", "x2"), max_terms=4, max_exp=3):
    p = MultiPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(fractions)
        term = MultiPoly.const(c)
        for name in names:
            term = term * MultiPoly.variable(name) ** draw(st.integers(0, max_exp))
        p = p + term
    return p


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


_DIVIDE_VARS = ("x1", "x2", "x3", "y")


@st.composite
def linear_divisors(draw):
    """(pivot, lead * pivot + R) with rational coefficients.  R's monomials
    are free of the pivot and rank below it in graded-lex order: a constant,
    powers of y (weight 0), and the later x's, alone or times y; so the
    pivot term leads."""
    p = draw(st.integers(1, 3))
    ys = [{"y": k} for k in range(3)]
    monomials = ys + [dict(m, **{"x%d" % j: 1}) for j in range(p + 1, 4) for m in ys[:2]]
    d = MultiPoly.variable("x%d" % p) * draw(fractions.filter(bool))
    for m in draw(st.lists(st.sampled_from(monomials), max_size=4, unique_by=lambda m: tuple(sorted(m.items())))):
        term = MultiPoly.const(draw(fractions.filter(bool)))
        for v, k in m.items():
            term = term * MultiPoly.variable(v) ** k
        d = d + term
    return "x%d" % p, d


@given(polys(names=_DIVIDE_VARS), linear_divisors())
def test_exact_divide_round_trip(a, divisor):
    _, b = divisor
    assert exact_divide(a * b, b) == a


@given(polys(), polys())
def test_exact_divide_refuses_a_divisor_without_a_pivot(a, b):
    # only a divisor whose leading term is c*x, with x in no other term, has
    # a pivot to divide along
    assume(not b.is_zero())
    try:
        assert exact_divide(a * b, b) == a
    except ValueError as exc:
        assert "linear in a pivot" in str(exc)
        lead = max(b.terms, key=lambda e: (sum(e), e))
        assert sum(lead) != 1 or sum(e[lead.index(1)] for e in b.terms) != 1


@settings(deadline=None)
@given(linear_divisors(), polys(names=_DIVIDE_VARS, max_exp=2), st.data())
def test_linear_exact_divide_matches_the_reference(divisor, q, data):
    # an exact product divides back to q; adding c*m, free of the pivot,
    # leaves a remainder: d has degree 1 in the pivot, so it divides no
    # nonzero polynomial free of it
    pivot, d = divisor
    cases = [(d * q, q)]
    c = data.draw(fractions.filter(bool))
    m = MultiPoly.const(c)
    for v in _DIVIDE_VARS:
        if v != pivot:
            m = m * MultiPoly.variable(v) ** data.draw(st.integers(0, 2))
    cases.append((d * q + m, None))
    for num, want in cases:
        if num.is_zero():
            continue
        vs = tuple(sorted(set(num.vars) | set(d.vars), key=var_key))
        try:
            ref = synthetic_divide_reference(num._over(vs).terms, d._over(vs).terms, vs, "caller's message")
        except PoleCancellationError as exc:
            ref = exc
        try:
            got = exact_divide(num, d, "caller's message")
        except PoleCancellationError as exc:
            got = exc
        if want is None:
            assert isinstance(ref, PoleCancellationError) and str(ref) == "caller's message"
            assert isinstance(got, PoleCancellationError) and str(got) == "caller's message"
        else:
            assert ref == want
            assert got == want
            assert got.vars == ref.vars


@given(polys())
def test_text_round_trip(p):
    assert parse_poly(p.to_text()) == p


@given(polys())
def test_json_round_trip(p):
    assert poly_from_json(p.to_json()) == p


@given(polys(names=("u1",), max_terms=4, max_exp=4), st.integers(1, 5))
def test_series_inverse_multiplies_to_one(body, cutoff):
    s = TruncatedSeries(body, cutoff)
    assume(s.constant_term() != 0)
    prod = s * invert_series(s)
    assert prod.body == MultiPoly.const(1)


@given(st.lists(fractions, min_size=0, max_size=3), st.integers(2, 5))
def test_series_reversion_is_two_sided(coeffs, cutoff):
    body = MultiPoly.variable("u1")
    for k, c in enumerate(coeffs):
        body = body + MultiPoly.variable("u1", c) ** 1 * MultiPoly.variable("u1") ** (k + 1)
    g = TruncatedSeries(body, cutoff)
    rev = series_reversion(g, "u1", "x1")
    ident = g.compose("u1", rev.compose("x1", TruncatedSeries(MultiPoly.variable("u1"), cutoff)))
    assert ident.body == MultiPoly.variable("u1")


@given(st.lists(fractions, min_size=2, max_size=4))
def test_canonical_positive_reconstructs(values):
    v = tuple(values)
    assume(any(values))
    line, scale = canonical_positive(v)
    assert tuple(scale * c for c in line) == v
    # and the line itself is primitive and integral
    assert all(c.denominator == 1 for c in line)


@given(st.lists(st.integers(-5, 5), min_size=2, max_size=4))
def test_root_sign_antisymmetry(values):
    v = tuple(Fraction(c) for c in values)
    assume(any(values))
    o = Ordering(tuple(Fraction(7 ** (len(v) - i) + i) for i in range(len(v))))
    try:
        s = o.sign(v)
    except ValueError:
        assume(False)
    assert s == -o.sign(tuple(-c for c in v))


@st.composite
def generic_orderings(draw, dim):
    vals = draw(
        st.lists(
            st.integers(1, 60), min_size=dim, max_size=dim, unique=True
        )
    )
    return Ordering(tuple(Fraction(v) for v in sorted(vals, reverse=True)))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_chi_y_ordering_independence(data):
    name = data.draw(st.sampled_from(("S6", "CP2", "U3-flag")))
    space = catalog_space(name)
    j = data.draw(st.sampled_from(enumerate_structures(space)))
    alt = data.draw(generic_orderings(space.group.dim))
    try:
        got = chi_y_genus(j, ordering=alt)
    except ValueError:
        # the sampled functional vanished on a root image; not generic enough
        assume(False)
    assert got == chi_y_genus(j)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_chi_y_counts_fixed_points_at_minus_one(data):
    name = data.draw(st.sampled_from(("S6", "CP2", "U3-flag", "Sp2-flag")))
    space = catalog_space(name)
    j = data.draw(st.sampled_from(enumerate_structures(space)))
    chi = chi_y_genus(j)
    assert chi.evaluate({"y": Fraction(-1)}) == euler_number(j) == space.euler_characteristic


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_signature_bounded_by_euler(data):
    name = data.draw(st.sampled_from(("CP2", "U3-flag", "Sp2-flag")))
    space = catalog_space(name)
    j = data.draw(st.sampled_from(enumerate_structures(space)))
    assert abs(signature(j)) <= space.euler_characteristic


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_conjugate_reverses_chi_y(data):
    # the conjugate structure reads the polynomial backwards, up to (-1)^n
    name = data.draw(st.sampled_from(("CP2", "CP3", "U3-flag")))
    space = catalog_space(name)
    j = data.draw(st.sampled_from(enumerate_structures(space)))
    n = space.n
    chi = chi_y_genus(j)
    flipped = chi_y_genus(j.conjugate())
    back = MultiPoly.zero()
    for k in range(n + 1):
        c = chi.coefficient_of("y", k).constant_value() * (-1) ** n
        back = back + MultiPoly.variable("y") ** (n - k) * MultiPoly.const(c)
    assert flipped == back


# ---------------------------------------------------------------------------
# the packed-monomial product kernel against a naive reference


def naive_product(p, q):
    """Term-by-term double loop over exponent tuples, in Fractions."""
    vs = tuple(sorted(set(p.vars) | set(q.vars), key=var_key))

    def spread(poly):
        idx = [poly.vars.index(v) if v in poly.vars else None for v in vs]
        return [(tuple(e[i] if i is not None else 0 for i in idx), c) for e, c in poly.terms.items()]

    out = {}
    for e1, c1 in spread(p):
        for e2, c2 in spread(q):
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return MultiPoly(vs, out)


def same(p, q):
    """Equal as stored: the same variable tuple and the same term dict."""
    return p.vars == q.vars and p.terms == q.terms


mixed_fractions = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30)
# small exponents collide and cancel; large ones force wide bit fields
exponents = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(60, 5000))


@st.composite
def kernel_polys(draw, pool=("x1", "x2", "a1", "t", "y"), exps=exponents, max_terms=6):
    names = draw(st.lists(st.sampled_from(pool), unique=True, max_size=4))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[tuple(draw(exps) for _ in names)] = draw(mixed_fractions)
    return MultiPoly(tuple(names), terms)


@st.composite
def kernel_pairs(draw):
    """(p, q), where q is sometimes p with some signs flipped, so that the
    product's cross terms cancel to zero."""
    p = draw(kernel_polys())
    if draw(st.booleans()):
        flips = draw(st.lists(st.booleans(), min_size=len(p.terms), max_size=len(p.terms)))
        q = MultiPoly(p.vars, {e: -c if f else c for (e, c), f in zip(p.terms.items(), flips)})
    else:
        q = draw(kernel_polys())
    return p, q


point_values = st.one_of(st.integers(-7, 7), mixed_fractions, st.just(0), st.just(Fraction(-1, 3)))
eval_polys = st.one_of(
    kernel_polys(exps=st.integers(0, 9)),
    kernel_polys(exps=st.integers(0, 9), max_terms=1),  # zero, or one term
    st.builds(MultiPoly.const, mixed_fractions),
)


@settings(max_examples=300, deadline=None)
@given(eval_polys, st.data())
def test_evaluate_matches_fraction_reference(p, data):
    point = {v: data.draw(point_values) for v in ("x1", "x2", "a1", "t", "y")}
    got = p.evaluate(point)
    assert type(got) is Fraction
    assert got == evaluate_reference(p, point)


@settings(max_examples=300, deadline=None)
@given(st.one_of(kernel_polys(), eval_polys))
def test_text_matches_fraction_formatter(p):
    assert p.to_text() == to_text_reference(p)
    vs, items = p._sorted_terms()
    assert p.to_json() == {"vars": list(vs), "terms": [{"exps": list(e), "coeff": str(c)} for e, c in items]}


@settings(max_examples=300, deadline=None)
@given(kernel_pairs())
def test_product_matches_naive_reference(pair):
    p, q = pair
    assert same(p * q, naive_product(p, q))
    assert same(q * p, naive_product(p, q))


@settings(max_examples=300, deadline=None)
@given(kernel_pairs(), st.integers(0, 8))
def test_truncated_product_matches_product_then_truncate(pair, cutoff):
    p, q = pair
    assert same(MultiPoly.product((p, q), cutoff), (p * q).truncate_weight(cutoff))


@settings(max_examples=200, deadline=None)
@given(st.lists(kernel_polys(), max_size=4), st.one_of(st.none(), st.integers(0, 8)))
def test_chained_product_matches_folded_reference(ps, cutoff):
    want = reduce(naive_product, ps, MultiPoly.const(1))
    if cutoff is not None:
        want = want.truncate_weight(cutoff)
    assert same(MultiPoly.product(ps, cutoff), want)


def degrees(p, weights):
    """The weighted degree under `weights` (absent: 0) of each term of p."""
    w = [weights.get(v, 0) for v in p.vars]
    return {e: sum(i * j for i, j in zip(e, w)) for e in p.terms}


def cutoff_near(data, p, weights):
    """Mostly the degree of one of p's terms or one less, so that a term on
    the boundary is kept or dropped; otherwise any cutoff."""
    near = sorted({max(0, d - k) for d in degrees(p, weights).values() for k in (0, 1)})
    if near and data.draw(st.integers(0, 3)):
        return data.draw(st.sampled_from(near))
    return data.draw(st.integers(0, 12000))


@settings(max_examples=200, deadline=None)
@given(st.lists(kernel_polys(), max_size=4), st.data())
def test_weighted_product_matches_product_then_truncate(ps, data):
    full = MultiPoly.product(ps)
    c = cutoff_near(data, full, {v: var_weight(v) for v in full.vars})
    assert same(MultiPoly.product(ps, cutoff=c), full.truncate_weight(c))


@st.composite
def subs_cases(draw):
    """(p, mapping), with images of every shape: polynomials, constants,
    zero, and images naming p's own variables.  A variable that p raises to a
    wide exponent maps to one term at most, so that the untruncated
    reference stays small."""
    p = draw(kernel_polys())
    mapping = {}
    for i, v in enumerate(p.vars):
        kind = draw(st.sampled_from(("keep", "poly", "const")))
        if kind == "const":
            mapping[v] = draw(st.integers(-3, 3))
        elif kind == "poly":
            wide = max((e[i] for e in p.terms), default=0) > 3
            mapping[v] = draw(kernel_polys(exps=exponents if wide else st.integers(0, 3), max_terms=1 if wide else 4))
    return p, mapping


@settings(max_examples=200, deadline=None)
@given(subs_cases(), st.data())
def test_truncated_subs_matches_subs_then_truncate(case, data):
    p, mapping = case
    full = p.subs(mapping)
    c = cutoff_near(data, full, {v: var_weight(v) for v in full.vars})
    assert same(p.subs(mapping, cutoff=c), full.truncate_weight(c))


@settings(max_examples=200, deadline=None)
@given(subs_cases(), st.data())
def test_subs_matches_the_product_reference(case, data):
    p, mapping = case
    full = p.subs(mapping)
    assert same(full, subs_reference(p, mapping))
    c = cutoff_near(data, full, {v: var_weight(v) for v in full.vars})
    assert same(p.subs(mapping, cutoff=c), subs_reference(p, mapping, cutoff=c))


_x1, _u1, _u2 = (MultiPoly.variable(v) for v in ("x1", "u1", "u2"))
_a1_half = MultiPoly.variable("a1", Fraction(1, 2))


@pytest.mark.parametrize(
    "p, mapping",
    [
        (parse_poly("u1^3*u2 - 2*u1*u2^2/3 + u2 + a1*u1"), {"u1": _u2, "u2": _u1}),
        (parse_poly("x1^2*x2 + 3*x1 - x2^3/2 + t"), {"x1": 0, "x2": Fraction(-3, 2)}),
        (parse_poly("x1^2*x2 + 3*x1 - x2^3/2 + t"), {"x1": MultiPoly.zero(), "x2": 4}),
        (parse_poly("x1^2 + a1*x1 + 1/7"), {"x2": _u1 + 1, "x1": _u1 - _a1_half}),
        (MultiPoly.variable("x2", Fraction(5, 3)) ** 4365 + _x1, {"x2": MultiPoly.variable("x1", Fraction(-1, 2))}),
    ],
    ids=["swap", "zero-and-rational", "zero-poly-and-int", "absent-key", "x2^4365"],
)
@pytest.mark.parametrize("cutoff", [None, 0, 3, 4366])
def test_subs_matches_the_reference_on_pinned_cases(p, mapping, cutoff):
    assert same(p.subs(mapping, cutoff=cutoff), subs_reference(p, mapping, cutoff=cutoff))


@st.composite
def compose_cases(draw):
    """(outer, name, inner): series in u1, u2 and the b's with unequal
    cutoffs, the outer one in `name`; the inner one has no constant term
    and is sometimes in `name` itself."""
    pool = ("u1", "u2", "b1", "b2", "b3")
    name = draw(st.sampled_from(("u1", "u2", "b2")))
    small = st.integers(0, 3)
    outer = draw(kernel_polys(pool=pool, exps=small)) + MultiPoly.variable(name, draw(mixed_fractions)) ** draw(st.integers(1, 4))
    inner = draw(kernel_polys(pool=pool, exps=small, max_terms=4))
    if draw(st.booleans()):
        inner = inner + MultiPoly.variable(name, draw(mixed_fractions))
    inner = MultiPoly(inner.vars, {e: c for e, c in inner.terms.items() if any(e)})
    cutoffs = draw(st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True))
    return TruncatedSeries(outer, cutoffs[0]), name, TruncatedSeries(inner, cutoffs[1])


@settings(max_examples=200, deadline=None)
@given(compose_cases(), fractions.filter(bool))
def test_compose_matches_the_horner_reference(case, c):
    outer, name, inner = case
    got = outer.compose(name, inner)
    assert got.cutoff == min(outer.cutoff, inner.cutoff)
    assert got == compose_reference(outer, name, inner)
    # a polynomial inner series is taken at the outer cutoff
    assert outer.compose(name, inner.body) == compose_reference(outer, name, TruncatedSeries(inner.body, outer.cutoff))
    with pytest.raises(ValueError, match="zero constant term"):
        outer.compose(name, inner + c)


@settings(max_examples=200, deadline=None)
@given(st.lists(kernel_polys(), max_size=6))
def test_sum_matches_folded_add(ps):
    assert same(MultiPoly.sum(ps), reduce(add, ps, MultiPoly.zero()))


def monomials(p):
    """p as {frozenset of (name, exponent > 0): coefficient}."""
    return {frozenset((v, k) for v, k in zip(p.vars, e) if k): c for e, c in p.terms.items()}


@settings(max_examples=200, deadline=None)
@given(st.lists(kernel_polys(), max_size=6))
def test_sum_matches_a_monomial_reference(ps):
    # `+` is `MultiPoly.sum` of two, so the fold above checks it against
    # itself; this adds up the terms by variable name instead, with every
    # other summand cancelled
    ps = ps + [-p for p in ps[::2]]
    want = {}
    for p in ps:
        for m, c in monomials(p).items():
            want[m] = want.get(m, 0) + c
    got = MultiPoly.sum(ps)
    assert monomials(got) == {m: c for m, c in want.items() if c}
    assert got.vars == tuple(sorted({v for p in ps for v in p.vars}, key=var_key))


def test_product_cancels_cross_terms():
    p = parse_poly("x1 + 1/3*t")
    q = parse_poly("x1 - 1/3*t")
    assert same(p * q, naive_product(p, q))
    assert (p * q) == parse_poly("x1^2 - 1/9*t^2")


def _reference_numerator(points, ordering, cutoff):
    """The localization numerator as full products truncated afterwards and
    summed one point at a time."""
    lines = []
    for _, ws in points:
        for w in ws:
            line, _ = canonical_positive(w, ordering)
            if line not in lines:
                lines.append(line)

    def form(v):
        return MultiPoly.linear_form(["x%d" % (i + 1) for i in range(len(v))], v)

    total = MultiPoly.zero()
    for sign, ws in points:
        cw = [canonical_positive(w, ordering) for w in ws]
        coeff = Fraction(sign)
        for _, scale in cw:
            coeff /= scale
        term = MultiPoly.const(coeff)
        for line in lines:
            if line not in {l for l, _ in cw}:
                term = term * form(line)
        for line, scale in cw:
            z = form(line) * scale * MultiPoly.variable("t")
            f = reduce(add, (MultiPoly.variable("a%d" % i) * z ** i for i in range(1, cutoff + 1)), MultiPoly.const(1))
            term = (term * f).truncate_var("t", cutoff)
        total = total + term
    return total, lines


@pytest.mark.parametrize("name", ["U4-T2xU2", "G2-flag"])
def test_localized_numerator_matches_full_products(name):
    space = catalog_space(name)
    j = InvariantStructure(space, (1,) * len(space.summands))
    points = [(fp.sign, fp.weights) for fp in fixed_points(j)]
    got, got_lines = localized_numerator(points, space.ordering, space.n)
    want, want_lines = _reference_numerator(points, space.ordering, space.n)
    assert got_lines == want_lines
    assert same(got, want)


def _reference_f_factor(line, scale, cutoff, power):
    """f(t * scale * line) to t^cutoff as a sum of one product per order."""
    return MultiPoly.sum(
        [MultiPoly.const(1)]
        + [
            MultiPoly(("a%d" % i, "t"), {(1, i): scale**i}) * power(line, i)
            for i in range(1, cutoff + 1)
        ]
    )


def _line_powers(line):
    """power(line, i) = <line, x>^i, memoized as `localized_numerator` does."""
    p = [MultiPoly.const(1), MultiPoly.linear_form(["x%d" % (i + 1) for i in range(len(line))], line)]

    def power(_, i):
        while len(p) <= i:
            p.append(p[-1] * p[1])
        return p[i]

    return power


line_vectors = st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=4),
).filter(any)


@settings(max_examples=200, deadline=None)
@given(line_vectors, st.sampled_from((1, -1, 2, -2, Fraction(1, 2))), st.integers(0, 7))
def test_f_factor_matches_sum_of_products(line, scale, cutoff):
    line = tuple(line)
    power = _line_powers(line)
    got = f_factor_reference(line, scale, cutoff, power)
    assert same(got, _reference_f_factor(line, scale, cutoff, power))
    assert all(type(c) is Fraction for c in got.terms.values())


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def sign_tables(draw):
    """An invariant structure (certified), the standard structure's table
    with a few entries flipped (rarely certified), or a random table."""
    space = catalog_space(draw(st.sampled_from(("CP2", "S6", "CP3", "U3-flag"))))
    kind = draw(st.sampled_from(("invariant", "flipped", "random")))
    if kind == "invariant":
        return draw(st.sampled_from(enumerate_structures(space)))
    base = InvariantStructure(space, (1,) * len(space.summands))
    rows, n = len(space.cosets), space.n
    if kind == "flipped":
        table = [[1] * n for _ in range(rows)]
        for _ in range(draw(st.integers(1, 2))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, n - 1))
            table[i][j] = -table[i][j]
    else:
        table = [draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)) for _ in range(rows)]
    return StableStructure(space, base, table, draw(st.sampled_from((1, -1))))


SCALE_FACTORS = st.sampled_from((1, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)))


@settings(max_examples=60, deadline=None)
@given(sign_tables(), st.integers(0, 2), SCALE_FACTORS, st.data())
def test_symbolic_sum_matches_the_fraction_engine(s, extra, factor, data):
    cutoff = s.space.n + extra
    ordering = s.space.ordering
    orientation = getattr(s, "global_sign", 1)
    points = [(orientation * fp.sign, fp.weights) for fp in fixed_points(s)]
    num, lines = localized_numerator_reference(points, ordering, cutoff)
    assert localized_numerator(points, ordering, cutoff) == (num, lines)
    assert _outcome(_symbolic_form, s, cutoff) == _outcome(divide_lines_reference, num, lines)
    # every weight times one rational factor: scales p/q with q > 1 on every
    # line; then a factor per line, so that one point mixes denominators
    per_line = {line: data.draw(SCALE_FACTORS) for line in lines}
    for by in (lambda w: factor, lambda w: per_line[canonical_positive(w, ordering)[0]]):
        scaled = [(sign, tuple(tuple(by(w) * c for c in w) for w in ws)) for sign, ws in points]
        num, lines = localized_numerator_reference(scaled, ordering, cutoff)
        assert localized_numerator(scaled, ordering, cutoff) == (num, lines)
        got = _outcome(_localized_form, *_intern(scaled), ordering, cutoff)
        assert got == _outcome(divide_lines_reference, num, lines)


def _twisted_points(base, fiber):
    """The (sign, weights) of the pairs (base point p, fiber point q): a
    pair's weights are p's and q's, q's moved by p's representative along
    its word."""
    group = base.space.group
    simple = group.simple_roots(base.space.ordering)
    fiber_points = fixed_points(fiber)
    return [
        (p.sign * q.sign, p.weights + tuple(word_image(group, simple, p.rep.word, w) for w in q.weights))
        for p in fixed_points(base)
        for q in fiber_points
    ]


def _twisted_reference(base, fiber, cutoff):
    """twisted_product(base, fiber, cutoff).form as the plain localization
    sum over the pairs (base point p, fiber point q), on the Fraction
    engine."""
    points = _twisted_points(base, fiber)
    return divide_lines_reference(*localized_numerator_reference(points, base.space.ordering, cutoff))


def _twisted_value_reference(base, fiber, cutoff):
    """`_twisted_reference` with x at the ordering's functional v: the sum
    of sign * prod_j f(t * <w_j, v>) / <w_j, v> over the pairs, to
    t^cutoff, on Fractions.  At t^n of the total space the form of a
    genuine structure is free of the x's, so this value is the form; the
    symbolic sum takes minutes on U(5)/T."""
    v = base.space.ordering.v
    t = MultiPoly.variable("t")

    def f(x):
        return reduce(add, (MultiPoly.variable("a%d" % i) * (x * t) ** i for i in range(1, cutoff + 1)), t**0)

    total = MultiPoly.zero()
    for sign, ws in _twisted_points(base, fiber):
        values = [dot(w, v) for w in ws]
        factors = [MultiPoly.const(Fraction(sign, math.prod(values)))] + list(map(f, values))
        # a_i t^i has var_weight 2i
        total = total + MultiPoly.product(factors, 2 * cutoff)
    return total


def _twisted_case(name, bsign, fsign, cutoff, fiber_roots=(), fiber="", reference=_twisted_reference):
    label = "%s%s-%d-%d-%d" % (name, fiber, bsign, fsign, cutoff)
    return pytest.param(name, bsign, fsign, cutoff, fiber_roots, reference, id=label)


@pytest.mark.parametrize(
    "name, bsign, fsign, cutoff, fiber_roots, reference",
    # reproduction check 13's twisted products
    [_twisted_case("S6", 1, 1, 6)]
    + [_twisted_case("CP2", b, f, c) for b in (1, -1) for f in (1, -1) for c in (3, 4)]
    # long roots 2e_i of scale 2, and multi-summand bases, at t^n and t^(n+1) of the total space
    + [_twisted_case("CP3-sp", 1, 1, c) for c in (4, 5)]
    + [_twisted_case("G42", 1, -1, c) for c in (6, 7)]
    + [_twisted_case("G42", 1, 1, 6), _twisted_case("G52", 1, 1, 10, reference=_twisted_value_reference)]
    + [_twisted_case("U4-T2xU2", 1, 1, c) for c in (6, 7)]
    + [_twisted_case("U4-T2xU2", -1, 1, 6)]
    # the fiber U(1)xU(3)/(U(1)xU(1)xU(2)), as fibration check --fiber-roots builds it
    + [_twisted_case("CP3", 1, 1, c, ((0, 0, 1, -1), (0, 0, -1, 1)), "/K") for c in (5, 6)],
)
def test_twisted_products_match_the_fraction_engine(name, bsign, fsign, cutoff, fiber_roots, reference):
    space = catalog_space(name)
    base = space.structure((bsign,) * len(space.summands))
    h = space.subgroup.as_group()
    fiber_space = HomogeneousSpace(h, SubgroupData(h, fiber_roots, label="K"), label="H/K")
    fiber = fiber_space.structure((fsign,) * len(fiber_space.summands))
    assert twisted_product(base, fiber, cutoff).form == reference(base, fiber, cutoff)


@st.composite
def univariate_polys(draw):
    """A polynomial in one variable, with rational coefficients and a zero or
    nonzero constant term."""
    name = draw(st.sampled_from(("y", "t", "x1", "a2")))
    terms = {(e,): draw(mixed_fractions) for e in draw(st.lists(st.integers(1, 12), max_size=6))}
    terms[(0,)] = draw(st.one_of(st.just(Fraction(0)), mixed_fractions))
    return MultiPoly((name,), terms)


def _with_unused_variable(p):
    """p over two variables, the second unused (so the general evaluate and
    to_text paths run), and that second variable."""
    (name,) = p.vars
    other = "x2" if name != "x2" else "x3"
    return MultiPoly((name, other), {e + (0,): c for e, c in p.terms.items()}), other


@settings(max_examples=300, deadline=None)
@given(
    univariate_polys(),
    st.one_of(point_values, st.fractions(max_denominator=10**6)),
    st.lists(st.fractions(max_denominator=40), max_size=3),
)
def test_univariate_fast_paths_match_the_general_path(p, value, later):
    general, other = _with_unused_variable(p)
    assert len(general.vars) == 2
    (name,) = p.vars
    got = p.evaluate({name: value})
    assert type(got) is Fraction
    assert got == general.evaluate({name: value, other: 5}) == evaluate_reference(p, {name: value})
    assert p.to_text() == general.to_text() == to_text_reference(p)
    # later points run on the integer form the first evaluation kept
    for v in later:
        assert p.evaluate({name: v}) == evaluate_reference(p, {name: v})
