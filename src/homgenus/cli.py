"""Command-line front end.

Exit codes follow the type of what a command raises: 0 success; 1 bad input,
a `rootdata.InputError`, raised by the library where it checks its arguments
and here for flag text that does not parse; 2 a mathematical failure, any
other ArithmeticError or ValueError (an uncancelled pole, a non-generic
ordering, a mismatch in a checked identity); 3 a failed reproduction check;
4 an internal error, any other exception, reported with its traceback.
Output formats: --plain (default), --json (schema-versioned document), --csv.
"""

import argparse
import csv
import io
import json
import os
import re
import sys
import time
import traceback
from fractions import Fraction

from .catalog import catalog_entry, catalog_list
from .exactalg import MAX_EXPONENT, MultiPoly, parse_rational
from .hirzebruch import (
    MAX_SAMPLES,
    certify_odd_rigidity,
    chi_y_genus,
    rigidity_eval,
    signature,
    structure_independence,
    todd_genus,
)
from .rootdata import InputError, Ordering, dot, read_vectors
from .structures import (
    HomogeneousSpace,
    InvariantStructure,
    SubgroupData,
    enumerate_structures,
    find_su_structures,
    parse_signs,
    point_indices,
    space_from_json,
)
from .toricgenus import (
    _normalize_omega,
    certified,
    chern_dold_genus,
    hp_obstruction_search,
    restricted_genus_hp,
    s_number,
    twisted_product,
)

SCHEMA = "homgenus/2"
EXIT_OK, EXIT_USAGE, EXIT_MATH, EXIT_ACCEPT, EXIT_INTERNAL = 0, 1, 2, 3, 4


class Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; our contract reserves 2 for math failures
    def error(self, message):
        raise InputError(message)


# flags whose value may start with a minus sign: argparse reads any such
# word as a flag, so "--at -6/5,1,2" is joined into "--at=-6/5,1,2" first
SIGNED_VALUE_FLAGS = ("--at", "--ordering")


def _join_signed_values(argv):
    out = []
    for arg in argv:
        if out and out[-1] in SIGNED_VALUE_FLAGS and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else str(obj)
    if isinstance(obj, MultiPoly):
        return obj.to_text()
    if isinstance(obj, dict):
        return {_text(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _text(k):
    """A tuple as comma-separated text, the syntax in which `rigidity eval
    --at` reads a point (5/7,7,-3/5); anything else as str."""
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


# --------------------------------------------------------------------------
# input resolution


def _resolve_space(ns):
    name = getattr(ns, "space", None)
    if not name:
        raise InputError("--space is required for this command")
    if name.strip().startswith("{"):
        return None, _space_document(name)
    if os.path.exists(name) and name.endswith(".json"):
        try:
            with open(name) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError("cannot read --space %s: %s" % (name, exc)) from None
        return None, _space_document(text)
    try:
        entry = catalog_entry(name)
    except KeyError:
        raise InputError(
            "unknown space %r; catalog names are %s (or pass a JSON file/literal)"
            % (name, ", ".join(catalog_list()))
        ) from None
    return entry, entry.space()


def _space_document(text):
    """The space a JSON document describes, with its cosets built, so that
    roots not closed under their reflections, or too many cosets, are
    refused before any command reads the space."""
    space = space_from_json(_read_json(text, "--space"))
    space.cosets
    return space


def _read_json(text, flag):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError("%s is not valid JSON: %s" % (flag, exc)) from None


def _resolve_structure(ns, entry, space):
    text = getattr(ns, "structure", None) or "standard"
    if text in ("standard", "all-plus"):
        return space.structure((1,) * len(space.summands))
    if entry is not None and text in entry.stable_presets:
        return entry.stable_structure(text)
    if set(text) <= {"+", "-"}:
        if len(text) != len(space.summands):
            raise InputError(
                "sign string %r has %d signs; %s has %d isotropy summands"
                % (text, len(text), space.label, len(space.summands))
            )
        return parse_signs(space, text)
    raise InputError(
        "structure %r is neither 'standard', a +/- sign string, nor a known preset" % text
    )


def _parse_int_tuple(text, flag):
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(",") if p != "")
    except ValueError:
        raise InputError("%s expects a comma-separated integer list, got %r" % (flag, text)) from None


def _resolve_ordering(ns, space):
    raw = getattr(ns, "ordering", None)
    if not raw:
        return None
    vec = _parse_int_tuple(raw, "--ordering")
    if len(vec) != space.group.dim:
        raise InputError("--ordering needs %d components" % space.group.dim)
    for r in space.group.roots:
        if not dot(r, vec):
            raise InputError("--ordering is not generic: it vanishes on the root %s" % (r,))
    return Ordering(vec)


def _resolve_series(ns, required=True):
    raw = getattr(ns, "series", None)
    if not raw:
        if required:
            raise InputError("--series is required (e.g. \"u/(1+u^2)\")")
        return None
    try:
        return parse_rational(raw)
    except InputError as exc:
        raise InputError("could not parse --series: %s" % exc) from None


# --------------------------------------------------------------------------
# handlers: each returns {"result": ..., "plain": str, "csv": rows}


def cmd_space_list(ns):
    rows = []
    for name in catalog_list():
        e = catalog_entry(name)
        rows.append(
            {
                "name": name,
                "group": e.group,
                "euler": e.expected.get("euler"),
                "dim": e.expected.get("dim"),
                "notes": e.notes,
            }
        )
    plain = "\n".join(
        "%-10s %-6s euler=%-4s dim=%-3s %s" % (r["name"], r["group"], r["euler"], r["dim"], r["notes"])
        for r in rows
    )
    return {
        "result": {"spaces": rows},
        "plain": plain,
        "csv": [["name", "group", "euler", "dim", "notes"]]
        + [[r["name"], r["group"], r["euler"], r["dim"], r["notes"]] for r in rows],
    }


def cmd_space_info(ns):
    entry, space = _resolve_space(ns)
    structures = enumerate_structures(space)
    su = find_su_structures(space)
    summands = [
        {
            "lines": [tuple(map(str, space.comp_roots[i])) for i in sm.line_indices],
            "self_conjugate": sm.self_conjugate,
        }
        for sm in space.summands
    ]
    doc = {
        "label": space.label,
        "group": space.group.label,
        "rank": space.group.rank,
        "complex_dimension": space.n,
        "euler_characteristic": space.euler_characteristic,
        "complementary_lines": [tuple(map(str, r)) for r in space.comp_roots],
        "summands": summands,
        "invariant_structures": len(structures),
        "su_structures": [s.to_signs() for s in su],
        "stable_presets": sorted(entry.stable_presets) if entry else [],
        "notes": entry.notes if entry else "",
    }
    plain_lines = [
        "%s  (group %s, euler %d, complex dim %d)"
        % (space.label, space.group.label, space.euler_characteristic, space.n),
        "complementary lines: " + "; ".join(str(tuple(map(str, r))) for r in space.comp_roots),
        "summands: %d (%s)" % (
            len(space.summands),
            ", ".join(
                "self-conjugate" if sm.self_conjugate else "%d lines" % len(sm.line_indices)
                for sm in space.summands
            ),
        ),
        "invariant structures: %d" % len(structures),
        "su structures: %s" % (", ".join(s.to_signs() for s in su) or "none"),
    ]
    if entry and entry.stable_presets:
        plain_lines.append("stable presets: " + ", ".join(sorted(entry.stable_presets)))
    if entry:
        plain_lines.append("notes: " + entry.notes)
    return {"result": doc, "plain": "\n".join(plain_lines), "csv": None}


def cmd_genus_class(ns):
    entry, space = _resolve_space(ns)
    structure = _resolve_structure(ns, entry, space)
    cutoff = ns.cutoff if ns.cutoff is not None else space.n
    ge = chern_dold_genus(structure, cutoff=cutoff)
    doc = {"cutoff": cutoff, "lower_terms_vanish": ge.lower_terms_vanish(), "route": ge.route}
    if cutoff >= space.n:
        cls = ge.bordism_class()
        doc["class"] = cls.to_text()
        doc["class_terms"] = cls.to_json()
        plain = doc["class"]
    else:
        doc["form"] = ge.form.to_text()
        plain = doc["form"]
    return {"result": doc, "plain": plain, "csv": None}


def cmd_genus_s(ns):
    entry, space = _resolve_space(ns)
    if not ns.omega:
        raise InputError("--omega is required, e.g. --omega 1,0,0,0,1,0")
    omega = _normalize_omega(_parse_int_tuple(ns.omega, "--omega"), space.n)
    structure = _resolve_structure(ns, entry, space)
    value = s_number(structure, omega)
    route = "point" if certified(structure) else "symbolic"
    # label omega padded to the dimension: s_3 would read as the top number
    label = ",".join(map(str, omega))
    return {
        "result": {"omega": list(omega), "value": value, "route": route},
        "plain": "s_%s = %d" % (label, value),
        "csv": [["omega", "value"], [label, value]],
    }


def cmd_genus_chi_y(ns):
    entry, space = _resolve_space(ns)
    structure = _resolve_structure(ns, entry, space)
    ordering = _resolve_ordering(ns, space)
    chi = chi_y_genus(structure, ordering=ordering)
    rows = [
        {"coset": i, "word": list(rep.word), "index": index, "sign": sign}
        for i, (rep, (sign, index)) in enumerate(zip(space.cosets, point_indices(structure, ordering)))
    ]
    coeffs = [str(chi.coefficient_of("y", k).constant_value()) for k in range(space.n + 1)]
    doc = {"chi_y": chi.to_text() or "0", "coefficients": coeffs, "fixed_points": rows}
    plain = "chi_y = %s\ncoefficients: %s\n" % (doc["chi_y"], coeffs) + "\n".join(
        "coset %d (word %s): index %d, sign %+d" % (r["coset"], r["word"], r["index"], r["sign"])
        for r in rows
    )
    return {
        "result": doc,
        "plain": plain,
        "csv": [["coset", "word", "index", "sign"]]
        + [[r["coset"], " ".join(map(str, r["word"])), r["index"], r["sign"]] for r in rows],
    }


def cmd_genus_signature(ns):
    entry, space = _resolve_space(ns)
    structure = _resolve_structure(ns, entry, space)
    v = signature(structure)
    return {"result": {"value": v}, "plain": "signature = %d" % v, "csv": [["signature"], [v]]}


def cmd_genus_todd(ns):
    entry, space = _resolve_space(ns)
    structure = _resolve_structure(ns, entry, space)
    v = todd_genus(structure)
    return {"result": {"value": v}, "plain": "todd = %d" % v, "csv": [["todd"], [v]]}


def cmd_rigidity_eval(ns):
    entry, space = _resolve_space(ns)
    structure = _resolve_structure(ns, entry, space)
    f = _resolve_series(ns)
    if not ns.at:
        raise InputError("--at is required, e.g. --at 3,2,1,0")
    try:
        point = tuple(Fraction(p) for p in ns.at.replace(" ", "").split(",") if p != "")
    except (ValueError, ZeroDivisionError):
        raise InputError("--at expects a comma-separated list of rationals, got %r" % ns.at) from None
    try:
        value = rigidity_eval(structure, f, point)
    except InputError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        # a weight that pairs to zero with the point or meets a zero or pole of
        # the kernel: plain errors in the library, where `_sample` draws again
        # on them, but bad input here, where the point is the caller's
        raise InputError("--at %s: %s" % (ns.at, exc)) from None
    return {
        "result": {"point": list(point), "value": _jsonable(value)},
        "plain": "value at %s = %s" % (ns.at, value),
        "csv": [["point", "value"], [ns.at, str(value)]],
    }


def cmd_rigidity_certify(ns):
    entry, space = _resolve_space(ns)
    structure = _resolve_structure(ns, entry, space)
    f = _resolve_series(ns, required=False)
    out = certify_odd_rigidity(structure, f, seed=ns.seed or 0)
    plain = ["verdict: %s" % out["verdict"]]
    if out["certificate"]:
        for p in out["certificate"]["pairs"]:
            plain.append("  cosets %s flip %d weights" % (p["pair"], p["flips"]))
    for pt, val in out["samples"]:
        plain.append("sample %s -> %s" % (_text(pt), val))
    return {"result": _jsonable(out), "plain": "\n".join(plain), "csv": None}


def cmd_rigidity_independence(ns):
    if not 1 <= ns.samples <= MAX_SAMPLES:
        raise InputError("--samples must be between 1 and %d, got %d" % (MAX_SAMPLES, ns.samples))
    entry, space = _resolve_space(ns)
    f = _resolve_series(ns)
    structures = []
    names = []
    if entry is not None and entry.stable_presets:
        for name in sorted(entry.stable_presets):
            structures.append(entry.stable_structure(name))
            names.append(name)
    else:
        for s in enumerate_structures(space)[:8]:
            structures.append(s)
            names.append(s.to_signs())
        if not structures:  # a self-conjugate summand, named by the InputError
            space.structure((1,) * len(space.summands))
    out = structure_independence(structures, f, samples=ns.samples, seed=ns.seed or 0)
    doc = {
        "structures": names,
        "points": [[str(c) for c in p] for p in out["points"]],
        "values": [[str(v) for v in row] for row in out["values"]],
        "independent": out["independent"],
    }
    plain = ["structures: " + ", ".join(names)]
    for p, row in zip(out["points"], out["values"]):
        plain.append("at %s: %s" % (_text(p), [str(v) for v in row]))
    plain.append("independent: %s" % out["independent"])
    return {
        "result": doc,
        "plain": "\n".join(plain),
        "csv": [["point"] + names] + [[_text(p)] + [str(v) for v in row] for p, row in zip(out["points"], out["values"])],
    }


def cmd_su_find(ns):
    entry, space = _resolve_space(ns)
    found = find_su_structures(space)
    signs = [s.to_signs() for s in found]
    return {
        "result": {"su_structures": signs},
        "plain": ("su structures: " + ", ".join(signs)) if signs else "su structures: none",
        "csv": [["signs"]] + [[s] for s in signs],
    }


def cmd_fibration_check(ns):
    entry, base_space = _resolve_space(ns)
    base = _resolve_structure(ns, entry, base_space)
    if not isinstance(base, InvariantStructure):
        raise InputError("--structure %s is a stable preset; a fibration needs an invariant base structure" % ns.structure)
    h_group = base_space.subgroup.as_group()
    roots = _read_json(ns.fiber_roots or "[]", "--fiber-roots")
    try:
        fiber_space = HomogeneousSpace(
            h_group, SubgroupData(h_group, read_vectors(roots, "roots"), label="K"), label="%s/K" % h_group.label
        )
        fiber_space.cosets  # building the cosets checks closure under reflections
    except InputError as exc:
        raise InputError("invalid --fiber-roots: %s" % exc) from None
    fsigns = ns.fiber or "standard"
    if fsigns in ("standard", "all-plus"):
        fiber = fiber_space.structure((1,) * len(fiber_space.summands))
    elif set(fsigns) <= {"+", "-"}:
        fiber = parse_signs(fiber_space, fsigns)
    else:
        raise InputError("--fiber must be 'standard' or a +/- sign string")
    cutoff = ns.cutoff
    tw = twisted_product(base, fiber, cutoff=cutoff)
    direct = chern_dold_genus(tw.structure, cutoff=tw.cutoff)
    match = tw.form == direct.form
    doc = {
        "total_space": tw.structure.space.label,
        "total_signs": tw.structure.to_signs(),
        "cutoff": tw.cutoff,
        "match": match,
        "route": direct.form_route,
    }
    if tw.cutoff >= tw.structure.space.n:
        doc["class"] = tw.bordism_class().to_text()
    plain = "twisted product == direct expansion: %s (cutoff %d)" % (match, tw.cutoff)
    if "class" in doc:
        plain += "\nclass = %s" % doc["class"]
    return {"result": doc, "plain": plain, "csv": None, "math_ok": match}


def cmd_hp_restricted(ns):
    try:
        out = restricted_genus_hp(2, ns.which, max_index=ns.max_index)
    except InputError as exc:
        # the expansion's only inputs are --which (argparse checks it) and --max-index
        raise InputError("--max-index: %s" % exc) from None
    doc = _jsonable(
        {k: v for k, v in out.items() if k not in ("component",)}
    )
    rows = [["k1", "k2", "coefficient"]]
    plain = ["kind: %s" % out["which"]]
    if "g0_table" in out:
        for (i1, i2), c in sorted(out["g0_table"].items()):
            rows.append([i1, i2, c.to_text()])
            plain.append("g0[%d,%d] = %s" % (i1, i2, c.to_text()))
    else:
        for k, c in sorted(out["coefficients"].items()):
            rows.append([k, "", c.to_text()])
            plain.append("coefficient of x2^%d = %s" % (2 * k, c.to_text()))
        plain.append("note: %s" % out["note"])
    return {"result": doc, "plain": "\n".join(plain), "csv": rows}


def cmd_hp_obstruction(ns):
    out = hp_obstruction_search(2)
    plain = ["space: %s" % out["space"], "verdict: %s" % out["verdict"]]
    for r in out["rows"]:
        a = r["assignment"]
        plain.append(
            "  %s: first nonvanishing t-order %s (witness %s)"
            % (
                " ".join("%s=%+d" % (k, a[k]) for k in sorted(a)),
                r["first_nonvanishing_order"],
                r["witness"],
            )
        )
    plain.append("t^1 survivors obey: " + "; ".join(out["t1_relations"]))
    rows = [["eps2", "eps3", "delta2", "delta3", "first_bad_order", "witness"]]
    for r in out["rows"]:
        a = r["assignment"]
        rows.append(
            [a["eps2"], a["eps3"], a["delta2"], a["delta3"], r["first_nonvanishing_order"], str(r["witness"])]
        )
    return {"result": _jsonable(out), "plain": "\n".join(plain), "csv": rows}


def cmd_reproduce(ns):
    from .verification import run_checks

    groups = set(ns.section) if ns.section else None
    ids = set(ns.id) if ns.id else None
    rows = run_checks(groups=groups, ids=ids)
    plain = []
    for r in rows:
        mark = "PASS" if r["passed"] else "FAIL"
        plain.append("[%s] %2d (group %d) %s" % (mark, r["id"], r["group"], r["name"]))
        plain.append("       expected: %s" % r["expected"])
        plain.append("       computed: %s" % r["computed"])
    ok = all(r["passed"] for r in rows) and bool(rows)
    plain.append("%d/%d checks passed" % (sum(r["passed"] for r in rows), len(rows)))
    return {
        "result": {"rows": rows, "all_passed": ok},
        "plain": "\n".join(plain),
        "csv": [["id", "group", "name", "expected", "computed", "passed"]]
        + [[r["id"], r["group"], r["name"], r["expected"], r["computed"], r["passed"]] for r in rows],
        "accept_ok": ok,
    }


# --------------------------------------------------------------------------
# parser assembly


# the flags a handler reads, each given only to the subcommands that read it
_FLAGS = {
    "space": {"help": "catalog name, JSON literal, or .json file"},
    "structure": {"help": "'standard', a +/- sign string, or a stable preset name"},
    "omega": {"help": "comma-separated multi-index for s-numbers"},
    "series": {"help": "rational genus kernel, e.g. \"u/(1+u^2)\""},
    "ordering": {"help": "comma-separated generic ordering vector"},
    "cutoff": {"type": int, "help": "t-degree cutoff for expansions"},
    "seed": {"type": int, "help": "seed for sampled evaluations"},
}


def build_parser():
    fmt = argparse.ArgumentParser(add_help=False)
    group = fmt.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="machine-readable output")
    group.add_argument("--csv", action="store_true", help="tabular output")
    group.add_argument("--plain", action="store_true", help="human-readable output (default)")

    def command(subparsers, name, func, *flags, **kw):
        cmd = subparsers.add_parser(name, parents=[fmt], **kw)
        for flag in flags:
            cmd.add_argument("--" + flag, **_FLAGS[flag])
        cmd.set_defaults(func=func)
        return cmd

    p = Parser(prog="homgenus", description="exact cobordism invariants of homogeneous spaces")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("space", parents=[], help="catalog access")
    spsub = sp.add_subparsers(dest="subcommand")
    command(spsub, "list", cmd_space_list)
    command(spsub, "info", cmd_space_info, "space")

    ge = sub.add_parser("genus", help="toric genus computations")
    gesub = ge.add_subparsers(dest="subcommand")
    command(gesub, "class", cmd_genus_class, "space", "structure", "cutoff")
    command(gesub, "s", cmd_genus_s, "space", "structure", "omega")
    command(gesub, "chi-y", cmd_genus_chi_y, "space", "structure", "ordering")
    command(gesub, "signature", cmd_genus_signature, "space", "structure")
    command(gesub, "todd", cmd_genus_todd, "space", "structure")

    ri = sub.add_parser("rigidity", help="rigidity functionals")
    risub = ri.add_subparsers(dest="subcommand")
    ev = command(risub, "eval", cmd_rigidity_eval, "space", "structure", "series")
    ev.add_argument("--at", help="comma-separated rational sample point")
    command(risub, "certify", cmd_rigidity_certify, "space", "structure", "series", "seed")
    ind = command(risub, "independence", cmd_rigidity_independence, "space", "series", "seed")
    ind.add_argument("--samples", type=int, default=5, help="sample points, 1 to %d (default 5)" % MAX_SAMPLES)

    su = sub.add_parser("su", help="special-unitary structure inventory")
    susub = su.add_subparsers(dest="subcommand")
    command(susub, "find", cmd_su_find, "space")

    fi = sub.add_parser("fibration", help="twisted products of fibrations")
    fisub = fi.add_subparsers(dest="subcommand")
    fc = command(fisub, "check", cmd_fibration_check, "space", "structure", "cutoff")
    fc.add_argument("--fiber", help="fiber structure signs ('standard' or +/- string)")
    fc.add_argument("--fiber-roots", dest="fiber_roots", help="JSON list of isotropy roots of the fiber")

    hp = sub.add_parser("hp", help="quaternionic base expansions and the obstruction")
    hpsub = hp.add_subparsers(dest="subcommand")
    hr = command(hpsub, "restricted", cmd_hp_restricted)
    hr.add_argument("--which", choices=("sp-flag", "cp-odd"), default="sp-flag")
    hr.add_argument("--max-index", dest="max_index", type=int, default=3)
    command(hpsub, "obstruction", cmd_hp_obstruction)

    rep = command(sub, "reproduce", cmd_reproduce, help="run the reproduction table")
    rep.add_argument("--section", type=int, action="append", help="restrict to a topic group")
    rep.add_argument("--id", type=int, action="append", help="restrict to specific check ids")

    return p


def _emit(ns, command_name, out, started):
    if getattr(ns, "json", False):
        doc = {
            "schema": SCHEMA,
            "command": command_name,
            "result": _jsonable(out["result"]),
            "timing_ms": int((time.perf_counter() - started) * 1000),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif getattr(ns, "csv", False):
        rows = out.get("csv")
        if rows is None:
            raise InputError("this command has no tabular form; use --json or --plain")
        buf = io.StringIO()
        w = csv.writer(buf)
        for row in rows:
            w.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        print(out["plain"])
    # a closed pipe raises here, where main catches it, not at interpreter exit
    sys.stdout.flush()


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.perf_counter()
    try:
        ns = parser.parse_args(_join_signed_values(argv))
        if not getattr(ns, "func", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        cutoff = getattr(ns, "cutoff", None)
        if cutoff is not None and not 0 <= cutoff <= MAX_EXPONENT:
            raise InputError("--cutoff must be between 0 and %d, got %d" % (MAX_EXPONENT, cutoff))
        out = ns.func(ns)
        name = ns.command + (" " + ns.subcommand if getattr(ns, "subcommand", None) else "")
        try:
            _emit(ns, name, out, started)
        except BrokenPipeError:
            # the reader (say `| head`) stopped early: the output is cut, the
            # exit code stands, and the flush at exit goes to the null device
            sys.stdout = open(os.devnull, "w")
        if not out.get("math_ok", True):
            return EXIT_MATH
        if not out.get("accept_ok", True):
            return EXIT_ACCEPT
        return EXIT_OK
    except InputError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, ValueError) as exc:
        print("mathematical failure: %s" % exc, file=sys.stderr)
        return EXIT_MATH
    except Exception as exc:
        # a bug, not a property of the input: keep the traceback for the report
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
