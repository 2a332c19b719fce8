#!/usr/bin/env python3
"""Check that this checkout's CLI prints what another checkout's prints.

Usage: python tools/same_outputs.py PARENT_CHECKOUT

Runs a fixed list of `python -m homgenus` commands in this tree and in
PARENT_CHECKOUT, each with PYTHONPATH=<tree>/src, the two sides of a command
at the same time:

- `reproduce --json`, `hp obstruction --json` and `hp restricted --json`
  for both `--which` values;
- `space list --json`, and on each catalog space it lists, with `--json`:
  `space info`, `su find`, `genus chi-y`, `genus signature`, `genus todd`,
  `genus s` at omega = (0, ..., 0, 1), `genus class` at the dimension and
  at cutoff 1, `rigidity certify` and `fibration check` (on HP1 and HP2,
  which have no invariant structure, the structure commands compare their
  errors);
- `genus chi-y` under a second generic ordering on U4-flag and G42;
- the plain `rigidity certify` and plain and CSV `rigidity independence`
  output, which print sample points;
- BAD_INPUT, commands at the edge of what the CLI accepts: malformed JSON
  space documents (floats and booleans among them) and a bad `--omega`,
  `--at`, `--series`, `--fiber-roots`, `--max-index` and `--cutoff`, so
  that error messages and exit codes are compared too, and an `--at` point
  whose first coordinate is negative, given after a space.

It compares stdout, stderr and exit code, apart from the timing lines
("ms" and "timing_ms") of the JSON output.  It prints one line per
difference, and exits 1 on any difference, 0 on none and 2 on bad usage.
Standard library only.
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
TIMING = re.compile(r'^\s*"(ms|timing_ms)": \d+,?$')


def run(tree, argv):
    """(stdout, stderr, exit code) of `python -m homgenus argv` in `tree`."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "homgenus", *argv], cwd=tree, env=env, capture_output=True, text=True
    )
    return proc.stdout, proc.stderr, proc.returncode


def _lines(text):
    return [line for line in text.splitlines() if not TIMING.match(line)]


def _at(lines, i):
    return repr(lines[i]) if i < len(lines) else "end of output"


KERNEL = "u/(1+u^2)"
BAD_INPUT = [
    ["space", "info", "--space", '{"group":"U(3)","subgroup_roots":[[null,0,0]]}'],
    ["space", "info", "--space", '{"group":"U(3)","subgroup_roots":[1,2]}'],
    ["space", "info", "--space", '{"group":{"dim":2,"roots":[[1,0],[-1,0]],"gram":[1,2]}}'],
    ["space", "info", "--space", '{"group":{"dim":"2","roots":[[1,0],[-1,0]]}}'],
    ["space", "info", "--space", '{"group":{"dim":1,"roots":[["1/0"],[-1]]}}'],
    ["space", "info", "--space", '{"group":{"dim":2,"roots":[[1,0],[-1,0]],"gram":[[1,0],[0,1],[0,0]]}}'],
    ["space", "info", "--space", '{"group":"U(2)","subgroup_roots":[[2,0]]}'],
    ["space", "info", "--space", '{"group":"U(3)"'],
    ["space", "info", "--space", '{"group":{"dim":1,"roots":[[0.1],[-0.1]]}}'],
    ["space", "info", "--space", '{"group":{"dim":2,"roots":[[true,-1],[-1,1]]}}'],
    ["genus", "s", "--space", "G42", "--omega", "1,0"],
    ["genus", "s", "--space", "G42", "--omega", "1,x"],
    ["rigidity", "eval", "--space", "G42", "--series", KERNEL, "--at", "1,2"],
    ["rigidity", "eval", "--space", "G42", "--series", KERNEL, "--at", "1,1,0,0"],
    ["rigidity", "eval", "--space", "G42", "--series", KERNEL, "--at", "1/0,1,0,3"],
    ["rigidity", "eval", "--space", "CP3", "--series", "1/0", "--at", "1,2,3,4"],
    ["rigidity", "eval", "--space", "CP3", "--series", "u +", "--at", "1,2,3,4"],
    ["rigidity", "eval", "--space", "U3-flag", "--series", KERNEL, "--at", "-6/5,-11/3,-11/7"],
    ["fibration", "check", "--space", "CP2", "--fiber-roots", "[[null,0,0]]"],
    ["fibration", "check", "--space", "CP3", "--fiber-roots", "[[0,1,-1,0"],
    ["fibration", "check", "--space", "CP3", "--fiber-roots", "[[0,1,-1,0]]"],
    ["hp", "restricted", "--max-index", "-1"],
    ["hp", "restricted", "--max-index", "128"],
    ["genus", "class", "--space", "S6", "--cutoff", "-1"],
    ["fibration", "check", "--space", "CP2", "--cutoff", "257"],
]


def commands(spaces):
    """The commands to compare; `spaces` maps each catalog name to its
    complex dimension."""
    yield ["reproduce", "--json"]
    yield ["hp", "obstruction", "--json"]
    for which in ("sp-flag", "cp-odd"):
        yield ["hp", "restricted", "--which", which, "--json"]
    yield ["space", "list", "--json"]
    for s, n in spaces.items():
        yield ["space", "info", "--space", s, "--json"]
        yield ["su", "find", "--space", s, "--json"]
        yield ["genus", "chi-y", "--space", s, "--json"]
        yield ["genus", "signature", "--space", s, "--json"]
        yield ["genus", "todd", "--space", s, "--json"]
        yield ["genus", "s", "--space", s, "--omega", ",".join(["0"] * (n - 1) + ["1"]), "--json"]
        yield ["genus", "class", "--space", s, "--json"]
        yield ["genus", "class", "--space", s, "--cutoff", "1", "--json"]
        yield ["rigidity", "certify", "--space", s, "--json"]
        yield ["fibration", "check", "--space", s, "--json"]
    for s in ("U4-flag", "G42"):
        yield ["genus", "chi-y", "--space", s, "--ordering", "10,7,3,1", "--json"]
    yield ["rigidity", "certify", "--space", "U3-flag", "--series", KERNEL]
    for fmt in ("--plain", "--csv"):
        yield ["rigidity", "independence", "--space", "CP3", "--series", KERNEL, "--samples", "2", fmt]
    yield from BAD_INPUT


def differences(argv, parent, here):
    """One line per stream of `argv` whose output differs, timing aside."""
    cmd = " ".join(argv)
    for stream, a, b in zip(("stdout", "stderr"), parent, here):
        a, b = _lines(a), _lines(b)
        if a != b:
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            yield "%s: %s differs at line %d: parent %s, this tree %s" % (cmd, stream, i + 1, _at(a, i), _at(b, i))
    if parent[2] != here[2]:
        yield "%s: exit code %d in the parent, %d in this tree" % (cmd, parent[2], here[2])


def main(argv):
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "homgenus").is_dir():
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    listing, _, code = run(HERE, ["space", "list", "--json"])
    if code:
        print("space list --json failed in this tree", file=sys.stderr)
        return 2
    spaces = {s["name"]: s["dim"] for s in json.loads(listing)["result"]["spaces"]}
    found, count = 0, 0
    with ThreadPoolExecutor(2) as pool:
        for cmd in commands(spaces):
            sides = pool.map(run, (parent, HERE), (cmd, cmd))
            for line in differences(cmd, *sides):
                print(line)
                found += 1
            count += 1
    print("%d commands, %d differences" % (count, found))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
