"""Command-line interface: exit codes, output formats, error paths."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys

from fractions import Fraction

import pytest

from homgenus.catalog import catalog_space
from homgenus.cli import main
from homgenus.exactalg import parse_rational
from homgenus.hirzebruch import rigidity_eval
import homgenus.cli
import homgenus.verification


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert err


def test_space_list_json(capsys):
    code, out, _ = run(capsys, "space", "list", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "homgenus/2"
    assert doc["command"] == "space list"
    assert "timing_ms" in doc
    assert "threads" not in doc
    names = [row["name"] for row in doc["result"]["spaces"]]
    assert "S6" in names and "CP3" in names


def test_space_list_csv_parses(capsys):
    code, out, _ = run(capsys, "space", "list", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "name"
    assert len(rows) > 10


def test_space_info_plain(capsys):
    code, out, _ = run(capsys, "space", "info", "--space", "S6", "--plain")
    assert code == 0
    assert "S6" in out


def test_space_info_unknown_name(capsys):
    code, _, err = run(capsys, "space", "info", "--space", "Mars")
    assert code == 1
    assert "unknown space" in err
    # the message should tell the user what IS available
    assert "S6" in err


def test_genus_class_json(capsys):
    code, out, _ = run(capsys, "genus", "class", "--space", "S6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["class"] == "2*a1^3 - 6*a1*a2 + 6*a3"
    assert doc["result"]["lower_terms_vanish"] is True
    assert doc["result"]["route"] == "point"


def test_genus_class_below_the_dimension_is_zero_by_the_certificate(capsys):
    code, out, _ = run(capsys, "genus", "class", "--space", "U5-flag", "--cutoff", "9", "--json")
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["form"] == "0"
    assert doc["lower_terms_vanish"] is True
    assert doc["route"] == "point"


def test_negative_cutoff_is_usage_error(capsys):
    code, out, err = run(capsys, "genus", "class", "--space", "S6", "--cutoff", "-1", "--json")
    assert code == 1
    assert out == ""
    assert "--cutoff" in err


@pytest.mark.parametrize("command", [("genus", "class"), ("fibration", "check")])
def test_cutoff_above_the_degree_cap_is_usage_error(capsys, command):
    code, out, err = run(capsys, *command, "--space", "CP2", "--cutoff", "257", "--json")
    assert code == 1
    assert out == ""
    assert "--cutoff must be between 0 and 256" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("genus", "todd", "--space", "CP2", "--ordering", "1,2,3"),
        ("genus", "todd", "--space", "CP2", "--omega", "5"),
        ("genus", "todd", "--space", "CP2", "--seed", "3"),
        ("genus", "todd", "--space", "CP2", "--series", "x"),
        ("space", "list", "--cutoff", "3"),
        ("space", "list", "--structure", "zz"),
        ("space", "info", "--space", "CP2", "--structure", "standard"),
        ("genus", "class", "--space", "CP2", "--ordering", "1,2,3"),
        ("genus", "s", "--space", "CP2", "--omega", "2", "--cutoff", "2"),
        ("genus", "chi-y", "--space", "CP2", "--seed", "1"),
        ("rigidity", "eval", "--space", "CP1", "--series", "u", "--at", "2,1", "--seed", "1"),
        ("rigidity", "independence", "--space", "CP3", "--series", "u", "--structure", "+-"),
        ("su", "find", "--space", "CP2", "--cutoff", "2"),
        ("fibration", "check", "--space", "CP2", "--omega", "1,0"),
        ("hp", "restricted", "--space", "CP2"),
        ("hp", "obstruction", "--seed", "1"),
        ("reproduce", "--id", "1", "--space", "CP2"),
    ],
    ids=lambda argv: " ".join(argv[:2]) + " " + next(a for a in reversed(argv) if a.startswith("--")),
)
def test_flag_the_command_does_not_read_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


def test_internal_error_exits_4(capsys, monkeypatch):
    def broken(ns):
        raise RuntimeError("kaput")

    monkeypatch.setattr(homgenus.cli, "cmd_genus_todd", broken)
    code, out, err = run(capsys, "genus", "todd", "--space", "CP2")
    assert code == 4
    assert out == ""
    assert "internal error: RuntimeError: kaput" in err


def test_sign_string_length_is_usage_error(capsys):
    code, out, err = run(capsys, "genus", "class", "--space", "G42", "--structure", "+-")
    assert code == 1
    assert out == ""
    assert "1 isotropy summands" in err


def test_genus_class_stable_preset(capsys):
    code, out, _ = run(
        capsys, "genus", "class", "--space", "CP3", "--structure", "cp3-null", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"]["class"] == "0"


def test_genus_s_number(capsys):
    code, out, _ = run(
        capsys,
        "genus", "s", "--space", "U4-flag", "--omega", "1,0,0,0,1,0", "--json",
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 80
    assert json.loads(out)["result"]["route"] == "point"


@pytest.mark.parametrize("fmt", ["--plain", "--csv", "--json"])
def test_genus_s_labels_the_padded_omega(capsys, fmt):
    # --omega 3 is s_(3,0,0), the a1^3 coefficient, not the top number s_(0,0,1) = -6
    code, out, _ = run(capsys, "genus", "s", "--space", "U3-flag", "--omega", "3", fmt)
    assert code == 0
    if fmt == "--plain":
        assert out == "s_3,0,0 = 6\n"
    elif fmt == "--csv":
        assert list(csv.reader(io.StringIO(out))) == [["omega", "value"], ["3,0,0", "6"]]
    else:
        assert json.loads(out)["result"]["omega"] == [3, 0, 0]


def test_genus_s_requires_omega(capsys):
    code, _, err = run(capsys, "genus", "s", "--space", "CP1")
    assert code == 1
    assert "--omega" in err


def test_omega_of_wrong_weight_is_usage_error(capsys):
    code, out, err = run(capsys, "genus", "s", "--space", "G42", "--omega", "1,0")
    assert code == 1
    assert out == ""
    assert "total weight 4" in err


def test_json_subgroup_non_root_is_usage_error(capsys):
    doc = json.dumps({"group": "U(2)", "subgroup_roots": [[2, 0]]})
    code, out, err = run(capsys, "genus", "class", "--space", doc)
    assert code == 1
    assert out == ""
    assert "is not a root" in err


def test_json_roots_not_closed_under_reflections_is_usage_error(capsys):
    doc = json.dumps({"group": {"dim": 2, "roots": [[1, 0], [-1, 0], [1, 1], [-1, -1]]}})
    code, out, err = run(capsys, "genus", "class", "--space", doc)
    assert code == 1
    assert out == ""
    assert "does not permute the roots" in err


def test_json_roots_not_reduced_is_usage_error(capsys):
    # e1 and 2 e1 both roots: no compact group has them, and W/W_H would miscount
    doc = json.dumps({"group": {"dim": 1, "roots": [[1], [-1], [2], [-2]]}, "subgroup_roots": [[2], [-2]]})
    code, out, err = run(capsys, "space", "info", "--space", doc)
    assert code == 1
    assert out == ""
    assert "not reduced" in err


def test_too_many_summands_is_usage_error(capsys):
    # U(7)/T has 21 summands, one above the enumeration cap
    doc = json.dumps({"group": "U(7)", "subgroup_roots": []})
    code, out, err = run(capsys, "space", "info", "--space", doc)
    assert code == 1
    assert out == ""
    assert "too many summands (21)" in err


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"group": "U(3)", "subgroup_roots": [[None, 0, 0]]}, "subgroup_roots"),
        ({"group": "U(3)", "subgroup_roots": [1, 2]}, "subgroup_roots"),
        ({"group": {"dim": 2, "roots": [[1, 0], [-1, 0]], "gram": [1, 2]}}, "gram"),
        ({"group": {"dim": "2", "roots": [[1, 0], [-1, 0]]}}, "dim"),
        ({"group": {"dim": 1, "roots": [["1/0"], [-1]]}}, "roots"),
        ({"group": {"dim": 1, "roots": [[None], [-1]]}}, "roots"),
        ({"subgroup_roots": []}, "group"),
    ],
    ids=["null-entry", "flat-subgroup-roots", "flat-gram", "string-dim", "zero-denominator", "null-root", "no-group"],
)
def test_malformed_json_space_is_usage_error(capsys, doc, field):
    code, out, err = run(capsys, "space", "info", "--space", json.dumps(doc))
    assert code == 1
    assert out == ""
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["directory", "binary"])
def test_unreadable_json_space_file_is_usage_error(capsys, tmp_path, kind):
    path = tmp_path / "space.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "space", "info", "--space", str(path))
    assert code == 1
    assert out == ""
    assert "cannot read --space" in err


def test_deeply_nested_json_space_is_usage_error(capsys):
    # json.loads gives up with a RecursionError, not a ValueError
    code, out, err = run(capsys, "space", "info", "--space", '{"group":' + "[" * 100000 + "]" * 100000 + "}")
    assert code == 1
    assert out == ""
    assert "--space is not valid JSON" in err


def _eval_at(capsys, space, structure, series, point):
    # --at=: a point whose first coordinate is negative would read as a flag
    code, out, err = run(
        capsys, "rigidity", "eval", "--space", space, "--structure", structure, "--series", series, "--at=" + point, "--json"
    )
    assert code == 0, err
    return Fraction(json.loads(out)["result"]["value"])


def test_certify_samples_read_back_through_eval(capsys):
    series = "u/(1+u^2)"
    code, out, _ = run(capsys, "rigidity", "certify", "--space", "U3-flag", "--structure", "+-+", "--series", series)
    assert code == 0
    samples = [line[len("sample "):].split(" -> ") for line in out.splitlines() if line.startswith("sample ")]
    assert len(samples) == 3
    for point, value in samples:
        assert "Fraction" not in point and "(" not in point
        assert _eval_at(capsys, "U3-flag", "+-+", series, point) == Fraction(value)


@pytest.mark.parametrize("fmt", ["--plain", "--csv"])
def test_independence_points_read_back_through_eval(capsys, fmt):
    series = "u/(1+u^2)"
    code, out, _ = run(capsys, "rigidity", "independence", "--space", "CP3", "--series", series, "--samples", "2", fmt)
    assert code == 0
    if fmt == "--csv":
        rows = list(csv.reader(io.StringIO(out)))
        names, table = rows[0][1:], [(row[0], row[1:]) for row in rows[1:]]
    else:
        lines = out.splitlines()
        names = lines[0][len("structures: "):].split(", ")
        table = []
        for line in lines[1:-1]:
            point, values = line[len("at "):].split(": ", 1)
            table.append((point, [v.strip("' ") for v in values.strip("[]").split(",")]))
    assert len(table) == 2
    for point, values in table:
        assert [_eval_at(capsys, "CP3", name, series, point) for name in names] == [Fraction(v) for v in values]


def test_genus_chi_y_plain(capsys):
    code, out, _ = run(
        capsys, "genus", "chi-y", "--space", "CP3", "--structure", "cp3-e11-minus"
    )
    assert code == 0
    assert "y^2 - y" in out


def test_genus_signature(capsys):
    code, out, _ = run(capsys, "genus", "signature", "--space", "G42", "--json")
    assert code == 0
    assert json.loads(out)["result"]["value"] == 2


def test_nongeneric_ordering_is_a_usage_error(capsys):
    # a functional that vanishes on a root of the group is bad input
    for space, ordering in (("U3-flag", "1,1,1"), ("G42", "1,1,1,1")):
        code, out, err = run(capsys, "genus", "chi-y", "--space", space, "--ordering", ordering)
        assert code == 1
        assert out == ""
        assert "not generic" in err


@pytest.mark.parametrize(
    "argv",
    [("genus", "class"), ("genus", "chi-y"), ("fibration", "check")],
    ids=lambda argv: " ".join(argv),
)
def test_space_without_invariant_structure_is_a_usage_error(capsys, argv):
    # HP2's one isotropy summand is self-conjugate: asking for a structure on it is bad input
    code, out, err = run(capsys, *argv, "--space", "HP2")
    assert code == 1
    assert out == ""
    assert "HP2 has no invariant almost complex structure" in err
    assert "self-conjugate" in err
    assert "Summand(" not in err


def test_ordering_length_checked(capsys):
    code, _, err = run(
        capsys, "genus", "chi-y", "--space", "U3-flag", "--ordering", "1,2"
    )
    assert code == 1


def test_rigidity_eval(capsys):
    code, out, _ = run(
        capsys,
        "rigidity", "eval", "--space", "G42",
        "--series", "u/(1+u^2)", "--at", "3,2,1,0", "--json",
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 80


@pytest.mark.parametrize(
    "space, series, at, named",
    [
        ("CP1", "u/(1+u^2)", "1,1", "weight (1, -1) pairs to zero"),
        ("G42", "u/(1+u^2)", "1,1,0,0", "weight (1, -1, 0, 0) pairs to zero"),
        ("G42", "u/(1-u)", "2,1,0,0", "genus kernel has a pole at weight (0, 1, -1, 0)"),
    ],
    ids=["CP1-zero-pairing", "G42-zero-pairing", "G42-kernel-pole"],
)
def test_rigidity_eval_bad_point_is_usage_error(capsys, space, series, at, named):
    # the point is input: a weight pairing to zero with it, or meeting a
    # pole of the kernel there, is bad input, and the message names the weight
    code, out, err = run(capsys, "rigidity", "eval", "--space", space, "--series", series, "--at", at)
    assert code == 1
    assert out == ""
    assert "usage error: --at %s: %s" % (at, named) in err


def test_rigidity_bad_series_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "rigidity", "eval", "--space", "CP1", "--series", "0.5*u", "--at", "2,1",
    )
    assert code == 1


def test_rigidity_series_power_above_cap_is_usage_error(capsys):
    code, out, err = run(
        capsys,
        "rigidity", "eval", "--space", "CP1", "--series", "u/(1+u)^100000", "--at", "2,1",
    )
    assert code == 1
    assert out == ""
    assert "power of degree above" in err


def test_rigidity_independence(capsys):
    code, out, _ = run(
        capsys,
        "rigidity", "independence", "--space", "CP3",
        "--series", "u/(1+u^2)", "--samples", "3", "--json",
    )
    assert code == 0
    assert json.loads(out)["result"]["independent"] is True


def test_rigidity_independence_needs_a_sample(capsys):
    # zero sample points would make "independent: True" vacuous
    for samples in ("0", "-3"):
        code, out, err = run(
            capsys,
            "rigidity", "independence", "--space", "CP3",
            "--series", "u/(1+u^2)", "--samples", samples,
        )
        assert code == 1
        assert out == ""
        assert "--samples" in err


def test_rigidity_independence_caps_the_samples(capsys, monkeypatch):
    # refused before the space is resolved or a point drawn
    monkeypatch.setattr(homgenus.cli, "_resolve_space", None)
    for samples in ("1001", "100000000"):
        code, out, err = run(
            capsys,
            "rigidity", "independence", "--space", "G42",
            "--series", "u/(1+u^2)", "--samples", samples,
        )
        assert code == 1
        assert out == ""
        assert "--samples must be between 1 and 1000" in err


def test_rigidity_certify(capsys):
    code, out, _ = run(
        capsys, "rigidity", "certify", "--space", "U3-flag", "--series", "u/(1+u^2)", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "certified zero"


def test_rigidity_certify_finds_no_pairing_on_g622(capsys):
    code, out, _ = run(capsys, "rigidity", "certify", "--space", "G622", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "not covered: no fixed-point pairing found"
    assert result["certificate"] is None


def test_oversized_quotient_is_usage_error(capsys):
    # U(12)/T has 12! = 479001600 cosets, refused before any is built
    doc = json.dumps({"group": "U(12)", "subgroup_roots": []})
    code, out, err = run(capsys, "space", "info", "--space", doc)
    assert code == 1
    assert out == ""
    assert "479001600 cosets" in err


def test_rigidity_certify_answers_cp9_without_the_weyl_group(capsys):
    # CP9 = U(10)/(U(1) x U(9)) has 10 cosets and |W| = 10!: the line sets
    # read the 10 fixed points only
    roots = [[0] + [1 if k == i else -1 if k == j else 0 for k in range(1, 10)]
             for i in range(1, 10) for j in range(1, 10) if i != j]
    doc = json.dumps({"group": "U(10)", "subgroup_roots": roots})
    code, out, err = run(capsys, "rigidity", "certify", "--space", doc, "--json")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["verdict"] == "not covered: no fixed-point pairing found"
    assert result["certificate"] is None


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["--plain", "--json", "--csv"])
def test_a_closed_stdout_keeps_the_exit_code(capsys, monkeypatch, fmt):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    argv = ["genus", "todd", "--space", "CP2"] if fmt == "--csv" else ["rigidity", "certify", "--space", "U3-flag"]
    code = main(argv + [fmt])
    err = capsys.readouterr().err
    assert code == 0
    assert err == ""
    # pointed at the null device, so the flush at exit has nowhere to fail
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


def test_a_closed_pipe_exits_cleanly():
    # the read end is closed before the command writes: no traceback, and
    # the command's own exit code
    src = os.path.dirname(os.path.dirname(homgenus.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "homgenus", "rigidity", "certify", "--space", "U3-flag", "--series", "u/(1+u^2)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


@pytest.mark.parametrize("argv", [("eval", "--at", "2,1"), ("independence",)], ids=lambda argv: argv[0])
def test_rigidity_kernel_of_two_variables_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "rigidity", argv[0], "--space", "CP1", "--series", "u*v", *argv[1:])
    assert code == 1
    assert out == ""
    assert "genus kernel must be a function of a single variable" in err


@pytest.mark.parametrize("space", ["HP1", "HP2"])
def test_rigidity_independence_without_invariant_structure_is_a_usage_error(capsys, space):
    code, out, err = run(capsys, "rigidity", "independence", "--space", space, "--series", "u/(1+u^2)")
    assert code == 1
    assert out == ""
    assert "%s has no invariant almost complex structure" % space in err
    assert "self-conjugate" in err


@pytest.mark.parametrize("series", ["1/0", "u/(u-u)"])
@pytest.mark.parametrize(
    "argv", [("eval", "--at", "1,2,3,4"), ("certify",), ("independence",)], ids=lambda argv: argv[0]
)
def test_rigidity_kernel_with_zero_denominator_is_usage_error(capsys, argv, series):
    code, out, err = run(capsys, "rigidity", argv[0], "--space", "CP3", "--series", series, *argv[1:])
    assert code == 1
    assert out == ""
    assert "could not parse --series: zero denominator" in err


def test_rigidity_eval_at_a_rational_point(capsys):
    code, out, _ = run(
        capsys, "rigidity", "eval", "--space", "G42", "--series", "u/(1+u^2)", "--at", "1/2,1,0,3", "--json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    point = (Fraction(1, 2), 1, 0, 3)
    want = rigidity_eval(catalog_space("G42").structure((1,)), parse_rational("u/(1+u^2)"), point)
    assert result["point"] == ["1/2", 1, 0, 3]
    assert Fraction(result["value"]) == want


@pytest.mark.parametrize("at", ["1/2,x,0,3", "1/0,1,0,3", "1/2,1,0,3/"])
def test_rigidity_eval_malformed_point_is_usage_error(capsys, at):
    code, out, err = run(capsys, "rigidity", "eval", "--space", "G42", "--series", "u/(1+u^2)", "--at", at)
    assert code == 1
    assert out == ""
    assert "--at" in err


def test_rigidity_certify_even_kernel_is_usage_error(capsys):
    code, out, err = run(capsys, "rigidity", "certify", "--space", "U3-flag", "--series", "u^2")
    assert code == 1
    assert out == ""
    assert "the kernel is not odd" in err


def test_su_find(capsys):
    code, out, _ = run(capsys, "su", "find", "--space", "U3-flag", "--json")
    assert code == 0
    found = json.loads(out)["result"]["su_structures"]
    assert sorted(found) == ["+-+", "-+-"]


def test_fibration_check(capsys):
    code, out, _ = run(
        capsys, "fibration", "check", "--space", "CP2", "--cutoff", "3", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"]["match"] is True


@pytest.mark.parametrize("cutoff, route", [("3", "point"), ("4", "symbolic")])
def test_fibration_check_reports_the_direct_route(capsys, cutoff, route):
    # U(3)/T is certified: its form comes from the point route at t^n only
    code, out, _ = run(capsys, "fibration", "check", "--space", "CP2", "--cutoff", cutoff, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "homgenus/2"
    assert doc["result"]["route"] == route
    assert doc["result"]["match"] is True
    assert doc["result"]["class"] == "6*a1^3 + 6*a1*a2 - 6*a3"


@pytest.mark.parametrize(
    "roots",
    ["[[0,1,-1,0", "[[0,1,-1,0]]", "[[5,1,-1,0],[-5,-1,1,0]]", "[[null,0,1,-1]]", "[0,1,-1,0]"],
    ids=["malformed-json", "not-closed-under-negation", "not-a-root-of-H", "null-entry", "not-a-list-of-lists"],
)
def test_fibration_check_bad_fiber_roots_is_usage_error(capsys, roots):
    code, out, err = run(capsys, "fibration", "check", "--space", "CP3", "--fiber-roots", roots)
    assert code == 1
    assert out == ""
    assert "--fiber-roots" in err


def test_fibration_check_stable_base_is_usage_error(capsys):
    code, out, err = run(capsys, "fibration", "check", "--space", "CP3", "--structure", "cp3-null")
    assert code == 1
    assert out == ""
    assert "stable preset" in err


def test_hp_obstruction(capsys):
    code, out, _ = run(capsys, "hp", "obstruction", "--json")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "no valid assignment"


def test_hp_restricted(capsys):
    code, out, _ = run(capsys, "hp", "restricted", "--which", "cp-odd", "--json")
    assert code == 0
    assert json.loads(out)["result"]["coefficients"]["1"] == "16*a3"


def test_hp_restricted_negative_max_index_is_a_usage_error(capsys):
    code, out, err = run(capsys, "hp", "restricted", "--max-index", "-1")
    assert code == 1
    assert out == ""
    assert "--max-index" in err


def test_hp_restricted_max_index_above_the_degree_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "hp", "restricted", "--max-index", "128")
    assert code == 1
    assert out == ""
    assert "--max-index" in err and "degree cap 256" in err


def test_space_as_json_literal(capsys):
    doc = json.dumps(
        {
            "group": "U(2)",
            "subgroup_roots": [],
            "label": "riemann-sphere",
        }
    )
    code, out, _ = run(capsys, "genus", "class", "--space", doc, "--json")
    assert code == 0
    assert json.loads(out)["result"]["class"] == "2*a1"


def test_reproduce_single_check(capsys):
    code, out, _ = run(capsys, "reproduce", "--id", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["all_passed"] is True
    assert [r["id"] for r in doc["result"]["rows"]] == [1]


def test_reproduce_failing_check_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        homgenus.verification,
        "CHECKS",
        [{"id": 99, "group": 9, "name": "always sad", "fn": lambda: (1, 0, False)}],
    )
    code, out, _ = run(capsys, "reproduce", "--id", "99", "--json")
    assert code == 3
    assert json.loads(out)["result"]["all_passed"] is False


def test_reproduce_crashing_check_is_a_failure_not_a_crash(capsys, monkeypatch):
    def boom():
        raise RuntimeError("kaput")

    monkeypatch.setattr(
        homgenus.verification,
        "CHECKS",
        [{"id": 99, "group": 9, "name": "boom", "fn": boom}],
    )
    code, out, _ = run(capsys, "reproduce", "--id", "99", "--json")
    assert code == 3
    row = json.loads(out)["result"]["rows"][0]
    assert not row["passed"]
    assert "kaput" in row["computed"]


def test_python_dash_m_runs_the_cli():
    # runs from a source checkout, with no install: the package's parent on the path
    src = os.path.dirname(os.path.dirname(homgenus.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "homgenus", "space", "list"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "S6"


def test_console_script_installed():
    exe = shutil.which("homgenus")
    assert exe, "console script should be on PATH after pip install"
    proc = subprocess.run(
        [exe, "genus", "todd", "--space", "CP2", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["value"] == 1
