"""The benchmark's ops: one exact computation each, checked by its own oracle.

Every op calls public functions of homgenus, and every call into a layer goes
through `Context.call`: with a tracer it records a span, without one it is a
plain call.  Two ops drive the pipeline stage by stage when traced -- the
bordism class (fixed points, localization numerator, exact divisions, class
extraction) and basis conversion (dictionary, substitution) -- and call the
one-shot entry points (`chern_dold_genus`, `basis_convert`) when not.  Each op
returns a digest of its result, and a traced pass must reproduce the digests
of an untraced pass with the same seed, or the trace measured a different
program.
"""

import hashlib
from fractions import Fraction

from homgenus import cobordism, hirzebruch, structures, toricgenus
from homgenus.catalog import catalog_entry, catalog_space
from homgenus.exactalg import MultiPoly, exact_divide, parse_poly, parse_rational
from homgenus.rootdata import SubgroupData

A_VARS = tuple("a%d" % i for i in range(1, 7))


class OracleError(Exception):
    """An op's output disagreed with its frozen value or with a second route."""


def expect(ok, what):
    if not ok:
        raise OracleError(what)


def digest(text):
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class Context:
    """Per-pass state: the spaces built so far and the optional tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.spaces = {}
        self.fgl_degrees = set()

    def call(self, span, fn, *args):
        if self.tracer is None:
            return fn(*args)
        with self.tracer.span(span):
            return fn(*args)

    def count(self, name, n=1):
        if self.tracer is not None:
            self.tracer.count(name, n)


# ---------------------------------------------------------------------------
# stages shared by several ops


def stage_space(ctx, space):
    """Force the lazily built root data of a space, one stage at a time."""
    wg = ctx.call("rootdata.weyl", getattr, space, "weyl")
    wh = ctx.call("rootdata.weyl", getattr, space, "subgroup_weyl")
    cosets = ctx.call("rootdata.cosets", getattr, space, "cosets")
    ctx.call("structures.summands", getattr, space, "summands")
    ctx.call("structures.images", getattr, space, "coset_root_images")
    ctx.count("rootdata.weyl_elements", len(wg) + len(wh))
    ctx.count("rootdata.group_elements", len(wg))
    ctx.count("rootdata.cosets", len(cosets))
    return space


def warm_space(ctx, name):
    """The catalog's shared space, staged on first use in the pass."""
    if name not in ctx.spaces:
        ctx.spaces[name] = stage_space(ctx, ctx.call("structures.make_space", catalog_space, name))
    return ctx.spaces[name]


def stage_fgl(ctx, degree):
    fgl = ctx.call("cobordism.fgl", cobordism.formal_group_law, degree)
    if degree not in ctx.fgl_degrees:
        # homgenus keeps one law per degree, so only the first request builds
        ctx.fgl_degrees.add(degree)
        ctx.count("cobordism.fgl_builds")
    return fgl


def staged_genus(ctx, s):
    """chern_dold_genus(s), one pipeline stage per span."""
    space = s.space
    n = space.n
    fps = ctx.call("structures.fixed_points", structures.fixed_points, s)
    orientation = getattr(s, "global_sign", 1)
    points = [(orientation * fp.sign, fp.weights) for fp in fps]
    num, lines = ctx.call("toricgenus.numerator", toricgenus.localized_numerator, points, space.ordering, n)
    ctx.count("structures.fixed_points", len(fps))
    ctx.count("toricgenus.numerator_terms", len(num.terms))
    ctx.tracer.maximum("toricgenus.numerator_terms_max", len(num.terms))
    ctx.count("toricgenus.lines", len(lines))
    form = num
    for line in lines:
        names = ["x%d" % (i + 1) for i in range(len(line))]
        form = ctx.call(
            "exactalg.divide",
            exact_divide,
            form,
            MultiPoly.linear_form(names, line),
            "localization sum has uncancelled pole",
        )
    ctx.count("exactalg.divide_calls", len(lines))
    return toricgenus.GenusExpansion(s, n, form, label=space.label)


def class_genus(ctx, cls, series, n):
    """A genus of a bordism class: specialise the series, then evaluate."""
    f = ctx.call("cobordism.specialize", series, 2 * n + 1)
    table = ctx.call("cobordism.specialize", cobordism.specialize_genus, f, n)
    return ctx.call("cobordism.specialize", cobordism.evaluate_class, cls, table)


def staged_convert(ctx, poly, source):
    """basis_convert out of the `source` alphabet: dictionary, then substitution."""
    depth = max((int(v[1:]) for v in poly.vars if v[0] == source and v[1:].isdigit()), default=0)
    if not depth:
        return poly
    if source == "a":
        # a_in_terms_of_b(d) works on the law one degree deeper
        stage_fgl(ctx, depth + 1)
        table = ctx.call("cobordism.dict", cobordism.a_in_terms_of_b, depth)
    else:
        table = ctx.call("cobordism.dict", cobordism.b_in_terms_of_a, depth)
    ctx.count("cobordism.dict_calls")
    ctx.count("cobordism.dict_terms", sum(len(p.terms) for p in table.values()))
    out = ctx.call("exactalg.subs", poly.subs, {"%s%d" % (source, i): p for i, p in table.items()})
    ctx.count("exactalg.subs_calls")
    ctx.count("exactalg.subs_terms_out", len(out.terms))
    return out


# ---------------------------------------------------------------------------
# catalog_cold


def op_build(ctx, op):
    name = op["space"]
    entry = catalog_entry(name)
    space = ctx.call("structures.make_space", structures.make_space, entry.group, entry.subgroup_roots, name)
    ctx.spaces[name] = stage_space(ctx, space)
    got = (space.euler_characteristic, space.n, len(space.summands))
    expect(got == (op["euler"], op["dim"], op["summands"]), "Euler number, dimension, summands %s" % (got,))
    return "%d %d %d" % got


def op_inventory(ctx, op):
    space = ctx.spaces[op["space"]]
    found = ctx.call("structures.enumerate", structures.enumerate_structures, space)
    su = ctx.call("structures.enumerate", structures.find_su_structures, space)
    ctx.count("structures.structures", len(found))
    expect(len(found) == op["structures"], "%d structures" % len(found))
    expect(len(su) == op["su"], "%d SU structures" % len(su))
    return " ".join(s.to_signs() for s in su)


def op_genera(ctx, op):
    space = ctx.spaces[op["space"]]
    signature_rule = op["signature"] or {}
    standard = (1,) * len(space.summands)
    out = []
    for s in ctx.call("structures.enumerate", structures.enumerate_structures, space):
        chi = ctx.call("hirzebruch.chi_y", hirzebruch.chi_y_genus, s)
        sig = ctx.call("hirzebruch.chi_y", hirzebruch.signature, s)
        todd = ctx.call("hirzebruch.chi_y", hirzebruch.todd_genus, s)
        ctx.count("hirzebruch.chi_y_calls", 3)
        expect(chi.evaluate({"y": Fraction(-1)}) == op["euler"], "chi_y(-1) = Euler number on %s" % s.to_signs())
        want = signature_rule.get("all")
        if want is None and s.summand_signs == standard:
            want = signature_rule.get("standard")
        expect(want is None or sig == want, "signature %d on %s" % (sig, s.to_signs()))
        out.append("%s:%d:%d" % (chi.to_text(), sig, todd))
    return digest(";".join(out))


def op_integrable(ctx, op):
    s = structures.parse_signs(ctx.spaces[op["space"]], op["signs"])
    integrable = ctx.call("structures.enumerate", structures.is_integrable, s)
    todd = ctx.call("hirzebruch.chi_y", hirzebruch.todd_genus, s)
    ctx.count("hirzebruch.chi_y_calls")
    expect((todd == 1) == integrable, "Todd %d, integrable %s" % (todd, integrable))
    return "%s %d" % (integrable, todd)


def _standard(space):
    return structures.parse_signs(space, "+" * len(space.summands))


def op_certify(ctx, op):
    s = _standard(ctx.spaces[op["space"]])
    out = ctx.call("hirzebruch.rigidity", hirzebruch.certify_odd_rigidity, s, parse_rational(op["kernel"]))
    expect(out["verdict"] == op["verdict"], "verdict %r" % out["verdict"])
    return out["verdict"]


def op_rigidity(ctx, op):
    s = _standard(ctx.spaces[op["space"]])
    f = parse_rational(op["kernel"])
    value = ctx.call("hirzebruch.rigidity", hirzebruch.rigidity_eval, s, f, tuple(op["point"]))
    expect(value == op["value"], "value %s" % value)
    return str(value)


# ---------------------------------------------------------------------------
# genus_sweep


def op_class(ctx, op):
    space = warm_space(ctx, op["space"])
    s = structures.parse_signs(space, op["signs"])
    if ctx.tracer is None:
        ge = toricgenus.chern_dold_genus(s)
        cls = ge.bordism_class()
    else:
        ge = staged_genus(ctx, s)
        cls = ctx.call("toricgenus.extract", ge.bordism_class)
        ctx.count("toricgenus.class_terms", len(cls.terms))
    expect(ctx.call("toricgenus.extract", ge.lower_terms_vanish), "lower t-terms vanish")
    n = space.n
    sig = ctx.call("hirzebruch.chi_y", hirzebruch.signature, s)
    todd = ctx.call("hirzebruch.chi_y", hirzebruch.todd_genus, s)
    ctx.count("hirzebruch.chi_y_calls", 2)
    expect(class_genus(ctx, cls, cobordism.tanh_series, n) == sig, "tanh(class) = signature %d" % sig)
    expect(class_genus(ctx, cls, cobordism.todd_series, n) == todd, "Todd(class) = Todd %d" % todd)
    if op["value"] is not None:
        expect(cls == parse_poly(op["value"]), "class %s" % cls.to_text())
    return digest(cls.to_text())


def op_top_s(ctx, op):
    s = structures.parse_signs(warm_space(ctx, op["space"]), op["signs"])
    value = ctx.call("toricgenus.s_number", toricgenus.top_s, s)
    ctx.count("toricgenus.s_number_calls")
    expect(value == op["value"], "top s = %d" % value)
    return str(value)


def op_s_number(ctx, op):
    s = structures.parse_signs(warm_space(ctx, op["space"]), op["signs"])
    omega = tuple(op["omega"])
    value = ctx.call("toricgenus.s_number", toricgenus.s_number, s, omega)
    ctx.count("toricgenus.s_number_calls")
    schur = ctx.call("toricgenus.schur", toricgenus.s_number_schur_route, s, omega)
    expect(value == schur, "s_number %d, Schur route %d" % (value, schur))
    expect(op["value"] is None or value == op["value"], "s = %d" % value)
    return str(value)


def op_twisted(ctx, op):
    base_space = warm_space(ctx, op["base"])
    base = structures.parse_signs(base_space, ("+" if op["bsign"] > 0 else "-") * len(base_space.summands))
    h_group = base_space.subgroup.as_group()
    fiber_space = ctx.call(
        "structures.make_space",
        structures.HomogeneousSpace,
        h_group,
        SubgroupData(h_group, ()),
        "%s-fiber" % op["base"],
    )
    fiber = structures.parse_signs(fiber_space, ("+" if op["fsign"] > 0 else "-") * len(fiber_space.summands))
    cutoff = op["cutoff"]
    tw = ctx.call("toricgenus.twisted", toricgenus.twisted_product, base, fiber, cutoff)
    direct = ctx.call("toricgenus.twisted", toricgenus.chern_dold_genus, tw.structure, cutoff)
    expect(tw.form == direct.form, "twisted product = direct expansion")
    if op["product"]:
        parts = [ctx.call("toricgenus.twisted", toricgenus.chern_dold_genus, j, cutoff).form for j in (base, fiber)]
        expect(tw.form == (parts[0] * parts[1]).truncate_var("t", cutoff), "twisted product = base x fiber")
    return digest(tw.form.to_text())


def op_hp_obstruction(ctx, op):
    out = ctx.call("toricgenus.obstruction", toricgenus.hp_obstruction_search, 2)
    expect(out["verdict"] == op["verdict"], "verdict %r" % out["verdict"])
    expect(out["exhaustive"] and len(out["rows"]) == 16, "all 16 assignments searched")
    return out["verdict"]


# ---------------------------------------------------------------------------
# alphabet_dict


def op_dict_pair(ctx, op):
    d = op["degree"]
    stage_fgl(ctx, d + 1)
    a_in_b = ctx.call("cobordism.dict", cobordism.a_in_terms_of_b, d)
    b_in_a = ctx.call("cobordism.dict", cobordism.b_in_terms_of_a, d)
    ctx.count("cobordism.dict_calls", 2)
    ctx.count("cobordism.dict_terms", sum(len(p.terms) for p in (*a_in_b.values(), *b_in_a.values())))
    to_a = {"b%d" % k: p for k, p in b_in_a.items()}
    for i, p in a_in_b.items():
        back = ctx.call("exactalg.subs", p.subs, to_a)
        ctx.count("exactalg.subs_calls")
        ctx.count("exactalg.subs_terms_out", len(back.terms))
        expect(back == MultiPoly.variable("a%d" % i), "a%d -> b -> a round trip" % i)
    if op["value"] is not None:
        for name, table in (("a_in_b", a_in_b), ("b_in_a", b_in_a)):
            for i, text in op["value"][name].items():
                expect(table[int(i)] == parse_poly(text), "%s[%s] = %s" % (name, i, table[int(i)].to_text()))
    return digest(";".join(p.to_text() for p in (*a_in_b.values(), *b_in_a.values())))


def op_fgl_assoc(ctx, op):
    fgl = stage_fgl(ctx, op["degree"])
    law = fgl.law.body
    u1, u2, u3 = (MultiPoly.variable(v) for v in ("u1", "u2", "u3"))
    expect(ctx.call("exactalg.subs", law.subs, {"u2": MultiPoly.zero()}) == u1, "F(u, 0) = u")
    expect(ctx.call("exactalg.subs", law.subs, {"u1": u2, "u2": u1}) == law, "F(u, v) = F(v, u)")
    left = ctx.call("cobordism.fgl", fgl.add, law, u3).body
    shifted = ctx.call("exactalg.subs", law.subs, {"u1": u2, "u2": u3})
    right = ctx.call("cobordism.fgl", fgl.add, u1, shifted).body
    ctx.count("exactalg.subs_calls", 3)
    expect(left == right, "F(F(u, v), w) = F(u, F(v, w))")
    return digest(left.to_text())


def op_round_trip(ctx, op):
    p = MultiPoly(A_VARS, {tuple(e): Fraction(c) for e, c in op["terms"]})
    if ctx.tracer is None:
        in_b = cobordism.basis_convert(p, "a->b")
        back = cobordism.basis_convert(in_b, "b->a")
    else:
        in_b = staged_convert(ctx, p, "a")
        back = staged_convert(ctx, in_b, "b")
    expect(back == p, "a -> b -> a round trip")
    return digest(in_b.to_text())


OPS = {name[3:]: fn for name, fn in globals().items() if name.startswith("op_")}


def run_ops(ops, ctx):
    """Run every op, each checked; a failing op is recorded and the run goes on.

    Returns ({op id: digest}, [failure messages])."""
    digests = {}
    failures = []
    tracer = ctx.tracer
    for op in ops:
        try:
            if tracer is None:
                digests[op["id"]] = OPS[op["kind"]](ctx, op)
            else:
                tracer.op = op["id"]
                with tracer.span("bench.op"):
                    digests[op["id"]] = OPS[op["kind"]](ctx, op)
        except Exception as exc:  # a failed op is counted, never fatal
            failures.append("op %d (%s): %s: %s" % (op["id"], op["kind"], type(exc).__name__, exc))
    return digests, failures
