"""The reproduction harness: every headline value checked in one place.

Each check returns (expected, computed, passed) and is tagged with a topic
group so the CLI can filter (e.g. group 5 = the chi_y / Todd / signature
family).  The test suite and `homgenus reproduce` both run exactly these.
"""

import random
import time
from fractions import Fraction

from .catalog import catalog_entry, catalog_list
from .cobordism import tanh_series
from .exactalg import MultiPoly, PoleCancellationError, parse_poly, parse_rational
from .hirzebruch import (
    certify_odd_rigidity,
    chi_y_genus,
    genus_of_class,
    rigidity_eval,
    signature,
    structure_independence,
    todd_genus,
)
from .rootdata import Ordering
from .structures import enumerate_structures, find_su_structures, is_integrable
from .toricgenus import (
    _symbolic_form,
    certified,
    chern_dold_genus,
    hp_obstruction_search,
    restricted_genus_hp,
    s_number,
    s_number_schur_route,
    top_s,
    twisted_product,
)

CHECKS = []


def check(num, group, name):
    def deco(fn):
        CHECKS.append({"id": num, "group": group, "name": name, "fn": fn})
        return fn

    return deco


def run_checks(groups=None, ids=None):
    selected = [
        c
        for c in CHECKS
        if (groups is None or c["group"] in groups) and (ids is None or c["id"] in ids)
    ]

    def run_one(c):
        t0 = time.perf_counter()
        try:
            expected, computed, passed = c["fn"]()
        except Exception as exc:  # a crash is a failure, not an abort
            expected, computed, passed = "no exception", "%s: %s" % (type(exc).__name__, exc), False
        return {
            "id": c["id"],
            "group": c["group"],
            "name": c["name"],
            "expected": str(expected),
            "computed": str(computed),
            "passed": bool(passed),
            "ms": int((time.perf_counter() - t0) * 1000),
        }

    return [run_one(c) for c in selected]


S6_CLASS_TEXT = "2*a1^3 - 6*a1*a2 + 6*a3"


def _s6_class():
    return parse_poly(S6_CLASS_TEXT)


def _std(name):
    return catalog_entry(name).standard_structure()


@check(1, 3, "six-sphere bordism class")
def _c1():
    cls = chern_dold_genus(_std("S6")).bordism_class()
    return S6_CLASS_TEXT, cls.to_text(), cls == _s6_class()


@check(2, 3, "flag SU-structure class is three times the sphere class")
def _c2():
    space = catalog_entry("U3-flag").space()
    target = _s6_class() * 3
    ok = True
    got = []
    for s in find_su_structures(space):
        cls = chern_dold_genus(s).bordism_class()
        got.append(cls.to_text())
        ok = ok and cls == target
    return target.to_text(), "; ".join(got) or "(no SU structures)", ok and bool(got)


@check(3, 3, "six-dimensional SU classification")
def _c3():
    s6 = _s6_class()
    report = []
    ok = True
    any_seen = False
    for name in catalog_list():
        entry = catalog_entry(name)
        if entry.expected.get("dim") != 3:
            continue
        space = entry.space()
        for s in find_su_structures(space):
            any_seen = True
            chi = space.euler_characteristic
            cls = chern_dold_genus(s).bordism_class()
            want = s6 * Fraction(chi, 2)
            good = cls == want
            ok = ok and good
            report.append("%s:%s %s" % (name, s.to_signs(), "ok" if good else cls.to_text()))
    return "(chi/2) * sphere class for every 6-dim SU catalog space", "; ".join(report), ok and any_seen


@check(4, 3, "Grassmannian s-numbers")
def _c4():
    g42 = _std("G42")
    g52 = _std("G52")
    v4 = s_number(g42, (0, 0, 0, 1))
    v6 = s_number(g52, (0, 0, 0, 0, 0, 1))
    w4 = s_number_schur_route(g42, (0, 0, 0, 1))
    w6 = s_number_schur_route(g52, (0, 0, 0, 0, 0, 1))
    return "s4 = -20, s6 = 70 (both routes)", "s4 = %d/%d, s6 = %d/%d" % (v4, w4, v6, w6), (
        v4 == w4 == -20 and v6 == w6 == 70
    )


@check(5, 3, "flag mixed s-numbers")
def _c5():
    j = _std("U4-flag")
    a = s_number(j, (1, 0, 0, 0, 1, 0))
    b = s_number(j, (0, 0, 2, 0, 0, 0))
    return "s_(1,0,0,0,1,0) = 80, s_(0,0,2,0,0,0) = -24", "%d, %d" % (a, b), a == 80 and b == -24


@check(6, 3, "top s-number vanishes on full flags")
def _c6():
    space4 = catalog_entry("U4-flag").space()
    bad = []
    for s in enumerate_structures(space4):
        v = top_s(s)
        if v != 0:
            bad.append((s.to_signs(), v))
    space5 = catalog_entry("U5-flag").space()
    k = len(space5.summands)
    rng = random.Random(20260819)
    picks = rng.sample(range(2 ** k), 32)
    n5 = 0
    for code in picks:
        signs = tuple(1 if code >> i & 1 else -1 for i in range(k))
        v = top_s(space5.structure(signs))
        n5 += 1
        if v != 0:
            bad.append((signs, v))
    return "0 for all 64 U(4) structures and 32 sampled U(5) structures", (
        "all zero (64 + %d checked)" % n5 if not bad else "nonzero: %s" % bad
    ), not bad


@check(7, 3, "top s-number vanishes on the three-block flag")
def _c7():
    space = catalog_entry("G622").space()
    bad = []
    count = 0
    for s in enumerate_structures(space):
        count += 1
        v = top_s(s)
        if v != 0:
            bad.append((s.to_signs(), v))
    return "0 for all 8 structures", ("all zero (%d checked)" % count if not bad else str(bad)), (
        not bad and count == 8
    )


def _poly_y(coeffs):
    """Polynomial in y from {power: coeff}."""
    return MultiPoly(("y",), {(k,): Fraction(v) for k, v in coeffs.items() if v})


@check(8, 5, "chi_y of projective 3-space and its stable presets")
def _c8():
    entry = catalog_entry("CP3")
    std = entry.standard_structure()
    want_std = _poly_y({0: 1, 1: -1, 2: 1, 3: -1})
    chi_std = chi_y_genus(std)
    pres = {name: chi_y_genus(entry.stable_structure(name)) for name in entry.stable_presets}
    want = {
        "cp3-standard": want_std,
        "cp3-e11-minus": _poly_y({2: 1, 1: -1}),
        "cp3-null": MultiPoly.zero(),
    }
    todds = {name: pres[name].evaluate({"y": Fraction(0)}) for name in pres}
    ok = (
        chi_std == want_std
        and all(pres[k] == want[k] for k in want)
        and todds["cp3-standard"] == 1
        and todds["cp3-e11-minus"] == 0
        and todds["cp3-null"] == 0
    )
    return (
        "1 - y + y^2 - y^3; presets y^2 - y and 0; Todd 1/0/0",
        "%s; %s; %s; Todd %s/%s/%s"
        % (
            chi_std.to_text(),
            pres["cp3-e11-minus"].to_text(),
            pres["cp3-null"].to_text(),
            todds["cp3-standard"],
            todds["cp3-e11-minus"],
            todds["cp3-null"],
        ),
        ok,
    )


@check(9, 5, "signatures: Grassmannians and all flag structures")
def _c9():
    sig42 = signature(_std("G42"))
    sig622 = signature(_std("G622"))
    bad = []
    total = 0
    for name in ("CP1", "U3-flag", "U4-flag", "U5-flag"):
        space = catalog_entry(name).space()
        for s in enumerate_structures(space):
            total += 1
            v = signature(s)
            if v != 0:
                bad.append((name, s.to_signs(), v))
    ok = sig42 == 2 and sig622 == 6 and not bad
    return (
        "sign(G42) = 2, sign(G622) = 6, 0 across all flag structures",
        "%d, %d, %s flag structures all zero: %s" % (sig42, sig622, total, not bad),
        ok,
    )


@check(10, 5, "Todd dichotomy on the U(3) flag")
def _c10():
    space = catalog_entry("U3-flag").space()
    rows = []
    ok = True
    n_int = 0
    for s in enumerate_structures(space):
        td = todd_genus(s)
        integ = is_integrable(s)
        n_int += 1 if integ else 0
        good = td == (1 if integ else 0)
        ok = ok and good
        rows.append("%s:%d%s" % (s.to_signs(), td, "i" if integ else ""))
    ok = ok and n_int == 6
    return "Todd 1 on the 6 integrable structures, 0 on the other 2", "; ".join(rows), ok


@check(11, 4, "rigidity evaluations and odd certificates")
def _c11():
    f = parse_rational("u/(1+u^2)")
    g42 = _std("G42")
    v1 = rigidity_eval(g42, f, (3, 2, 1, 0))
    v2 = rigidity_eval(g42, f, (4, 2, 1, 0))
    verdicts = {}
    for name in ("U3-flag", "U4-flag", "S6"):
        verdicts[name] = certify_odd_rigidity(_std(name), f)["verdict"]
    ok = v1 == 80 and v2 == 140 and all(v == "certified zero" for v in verdicts.values())
    return (
        "80 and 140; certified zero on U3-flag, U4-flag, S6",
        "%s and %s; %s" % (v1, v2, verdicts),
        ok,
    )


@check(12, 4, "structure independence of the rigid functional")
def _c12():
    entry = catalog_entry("CP3")
    f = parse_rational("u/(1+u^2)")
    structures = [entry.stable_structure(n) for n in ("cp3-standard", "cp3-e11-minus", "cp3-null")]
    out = structure_independence(structures, f, samples=5, seed=12)
    vals = ["%s" % row[0] for row in out["values"]]
    return "equal values at 5 seeded points", "independent=%s values=%s" % (out["independent"], vals), out[
        "independent"
    ]


@check(13, 6, "twisted products match direct expansions")
def _c13():
    from .structures import HomogeneousSpace, SubgroupData

    # exceptional flag over the six-sphere, fiber the long-root flag
    s6 = catalog_entry("S6")
    base = s6.standard_structure()
    h_group = base.space.subgroup.as_group()
    fiber_space = HomogeneousSpace(h_group, SubgroupData(h_group, ()), label="A2-long/T2")
    fiber = fiber_space.structure((1,) * len(fiber_space.summands))
    tw = twisted_product(base, fiber, cutoff=6)
    direct = chern_dold_genus(tw.structure, cutoff=6)
    prod_form = (chern_dold_genus(base, cutoff=6).form * chern_dold_genus(fiber, cutoff=6).form).truncate_var(
        "t", 6
    )
    ok1 = tw.form == direct.form and tw.form == prod_form
    # unitary flag over the projective plane
    cp2 = catalog_entry("CP2")
    ok2 = True
    h2 = cp2.space().subgroup.as_group()
    fiber_space2 = HomogeneousSpace(h2, SubgroupData(h2, ()), label="U1xU2/T3")
    for bsign in (1, -1):
        for fsign in (1, -1):
            b = cp2.space().structure((bsign,))
            fb = fiber_space2.structure((fsign,) * len(fiber_space2.summands))
            tw2 = twisted_product(b, fb, cutoff=3)
            ok2 = ok2 and tw2.form == chern_dold_genus(tw2.structure, cutoff=3).form
    return (
        "fiber x base product and direct expansion agree (cutoffs 6 and 3)",
        "exceptional flag: %s; unitary flag over CP2 (4 sign combos): %s" % (ok1, ok2),
        ok1 and ok2,
    )


@check(14, 3, "special-unitary inventory")
def _c14():
    expect_empty = ["CP1", "U4-flag", "U4-T2xU2"]
    expect_nonempty = ["U3-flag", "U5-flag"]
    rows = []
    ok = True
    for name in expect_empty:
        found = find_su_structures(catalog_entry(name).space())
        ok = ok and not found
        rows.append("%s:%d" % (name, len(found)))
    for name in expect_nonempty:
        found = find_su_structures(catalog_entry(name).space())
        ok = ok and bool(found)
        rows.append("%s:%d" % (name, len(found)))
    return "empty: CP1, U4-flag, U4-T2xU2; nonempty: U3-flag, U5-flag (m=1 block case = U3-flag)", (
        "; ".join(rows)
    ), ok


@check(15, 3, "structure counts")
def _c15():
    g622 = catalog_entry("G622").space()
    n622 = len(enumerate_structures(g622))
    sp2 = catalog_entry("Sp2-flag").space()
    nsum = len(sp2.summands)
    nstr = len(enumerate_structures(sp2))
    ok = n622 == 8 and nsum == 4 and nstr == 16
    return "8 on the three-block flag; 4 summands and 16 structures on Sp2-flag", "%d; %d and %d" % (
        n622,
        nsum,
        nstr,
    ), ok


@check(16, 8, "quaternionic plane obstruction")
def _c16():
    out = hp_obstruction_search(2)
    ok = out["verdict"] == "no valid assignment" and out["exhaustive"] and len(out["rows"]) == 16
    return "no valid assignment among all 16 (exhaustive)", "%s; %d rows; relations %s" % (
        out["verdict"],
        len(out["rows"]),
        out["t1_relations"],
    ), ok


@check(17, 8, "restricted expansions over the quaternionic base")
def _c17():
    sp = restricted_genus_hp(2, "sp-flag", max_index=3)
    ok = True
    for i1 in range(4):
        for i2 in range(4):
            want = (
                MultiPoly.variable("a%d" % (2 * i1 + 1))
                * MultiPoly.variable("a%d" % (2 * i2 + 1))
                * Fraction(2 ** (2 * (i1 + i2 + 1)))
            )
            ok = ok and sp["g0_table"][(i1, i2)] == want
    cp = restricted_genus_hp(2, "cp-odd", max_index=3)
    for k in range(4):
        want = MultiPoly(("a%d" % (2 * k + 1),), {(1,): Fraction(2 ** (2 * k + 2))})
        ok = ok and cp["coefficients"][k] == want
    noted = "factor of 4" in cp["note"]
    return (
        "g0 = 2^(2(i1+i2+1)) a_(2i1+1) a_(2i2+1); cp-odd coefficients 2^(2k+2) a_(2k+1) with discrepancy noted",
        "tables match: %s; discrepancy note present: %s" % (ok, noted),
        ok and noted,
    )


@check(18, 0, "property suites")
def _c18():
    from .cobordism import formal_group_law

    msgs = []
    ok = True
    # formal group law axioms at degree 5
    fgl = formal_group_law(5)
    law = fgl.law.body
    u1 = MultiPoly.variable("u1")
    u2 = MultiPoly.variable("u2")
    u3 = MultiPoly.variable("u3")
    ok_unit = law.subs({"u2": MultiPoly.zero()}) == u1
    ok_comm = law.subs({"u1": u2, "u2": u1}) == law
    left = fgl.add(law, u3).body
    right = fgl.add(u1, law.subs({"u1": u2, "u2": u3})).body
    ok_assoc = left == right
    ok = ok and ok_unit and ok_comm and ok_assoc
    msgs.append("FGL unit/comm/assoc: %s/%s/%s" % (ok_unit, ok_comm, ok_assoc))
    # divided-difference identities
    from .exactalg import divided_difference, parse_poly as pp

    l1 = divided_difference(pp("x1^2*x2"), ["x1", "x2", "x3"])
    l2 = divided_difference(pp("x1^2"), ["x1", "x2"])
    l3 = divided_difference(pp("x1^2*x2^2"), ["x1", "x2", "x3"])
    ok_l = l1 == MultiPoly.const(1) and l2 == pp("x1 + x2") and l3.is_zero()
    ok = ok and ok_l
    msgs.append("L identities: %s" % ok_l)
    # pole cancellation across the catalog (large flags sampled at low cutoff).
    # On the small spaces the symbolic route divides out the expansion to
    # t^(n-1), every term of which must vanish, so the certificate plays no
    # part there.  On the larger ones an uncertified structure is divided out
    # at a lower t-cutoff (checks 4-7 already hit them at top degree), and a
    # certified structure's lower terms vanish by the certificate alone; the
    # row names the spaces that rest on it.
    ok_pole = True
    divided, on_certificate = [], []
    for name in catalog_list():
        entry = catalog_entry(name)
        space = entry.space()
        structures = enumerate_structures(space)
        if not structures:
            continue
        chi = space.euler_characteristic
        if chi > 24 or space.n > 6:
            cutoff, cap = 3, 3
        elif space.n > 4:
            cutoff, cap = 4, 6
        else:
            cutoff, cap = None, 16
        if len(structures) > cap:
            structures = random.Random(618).sample(structures, cap)
        for s in structures:
            if cutoff is None:
                try:
                    vanish = _symbolic_form(s, space.n - 1).is_zero()
                except PoleCancellationError:
                    vanish = False
            else:
                vanish = chern_dold_genus(s, cutoff=cutoff).lower_terms_vanish()
            ok_pole = ok_pole and vanish
        if cutoff is None:
            divided.append(name)
        elif all(certified(s) for s in structures):
            on_certificate.append(name)
    ok = ok and ok_pole
    msgs.append(
        "pole cancellation catalog-wide: %s (terms below t^n divided out and zero on %s; certificate alone on %s)"
        % (ok_pole, ", ".join(divided), ", ".join(on_certificate) or "none")
    )
    # chi_y does not depend on the ordering
    ok_ord = True
    for name in ("S6", "CP3", "U3-flag", "G42", "Sp2-flag"):
        space = catalog_entry(name).space()
        alt = Ordering(_alt_weights(space.group.dim))
        for s in enumerate_structures(space):
            if chi_y_genus(s) != chi_y_genus(s, ordering=alt):
                ok_ord = False
    ok = ok and ok_ord
    msgs.append("chi_y ordering-independent: %s" % ok_ord)
    # tanh evaluation of the class equals the index-count signature
    ok_sig = True
    for name in ("S6", "CP1", "CP2", "CP3", "U3-flag", "G42", "G52", "Sp2-flag", "CP3-sp", "U4-T2xU2", "U4-flag"):
        space = catalog_entry(name).space()
        for s in enumerate_structures(space):
            cls = chern_dold_genus(s).bordism_class()
            v = genus_of_class(cls, tanh_series(2 * space.n + 1), space.n)
            if v != signature(s):
                ok_sig = False
    ok = ok and ok_sig
    msgs.append("tanh(class) == signature: %s" % ok_sig)
    return "all property families hold", "; ".join(msgs), ok


def _alt_weights(dim):
    # a second generic ordering: steep geometric-ish weights
    return [7 ** (dim - i) + i for i in range(dim)]
