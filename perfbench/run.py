"""Run one homgenus benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each pass is a fresh worker process (worker.py)
that runs the workload's seeded op list one exact computation at a time,
checking every output.  Passes repeat while another one still fits in
--seconds, with at least two.  Before and after the passes, a few workers
only import homgenus, to sample set-up time.

--trace 0 reports the end-to-end metrics, each the median over the run:
setup_s, wall_ref and peak_rss_mb.  wall_ref is a pass's wall time in units
of a reference loop timed throughout the pass (probe.py), so the host's
changing speed cancels out; the plain wall_s is printed beside it.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones; the traced passes must reproduce the untraced
results op for op.  The spans of a traced run are written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give a run record and every metric
by name with its unit.  With no homgenus source at src/ next to this
directory the script exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 4  # before the passes, and as many after
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # no pass may run past this, so the run ends within 180 s
WORKER_ENV = {"PYTHONPATH": str(SRC), "HOMGENUS_SRC": str(SRC / "homgenus"), "PYTHONHASHSEED": "0"}
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}


class PassFailed(Exception):
    pass


def spawn(workload, seed, flags, timeout):
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd + flags,
            env=dict(os.environ, **WORKER_ENV),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed("worker ran past the %.0f-s run limit" % RUN_LIMIT_S)
    if proc.returncode != 0:
        raise PassFailed("worker exited with %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise PassFailed("worker printed no result")


def commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def digest_mismatches(passes):
    """Ops whose digest differs from the first untraced pass."""
    reference = passes[0][1]["digests"]
    bad = []
    for mode, result in passes[1:]:
        for op_id, d in result["digests"].items():
            if op_id in reference and reference[op_id] != d:
                bad.append("op %s: %s pass gave a different result" % (op_id, mode))
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "homgenus" / "__init__.py").is_file():
        print("no homgenus source at %s" % SRC, file=sys.stderr)
        return 2

    start = time.monotonic()
    op_count = len(workloads.ops_for(args.workload, args.seed))
    calib_before = probe.calib()
    problems = []
    setups = []
    passes = []
    durations = []
    modes = ["plain", "traced"] if args.trace else ["plain"]

    def sample_setup():
        for _ in range(SETUP_SAMPLES):
            setups.append(spawn(args.workload, args.seed, ["--setup-only"], RUN_LIMIT_S)["setup_s"])

    try:
        sample_setup()
        while len(passes) < MIN_PASSES or time.monotonic() - start + max(durations) <= args.seconds:
            mode = modes[len(passes) % len(modes)]
            t = time.monotonic()
            flags = ["--trace"] if mode == "traced" else []
            result = spawn(args.workload, args.seed, flags, RUN_LIMIT_S - (t - start))
            durations.append(time.monotonic() - t)
            passes.append((mode, result))
        sample_setup()
    except PassFailed as exc:
        problems.append(str(exc))
    calib_after = probe.calib()

    plain = [r for mode, r in passes if mode == "plain"]
    traced = [r for mode, r in passes if mode == "traced"]
    if not plain or (args.trace and not traced):
        print("no complete pass: %s" % "; ".join(problems), file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for _, r in passes)
    failures = [f for _, r in passes for f in r["failures"]]
    failed = len(failures)
    if problems:
        # the pass that broke counts every op as failed
        attempted += op_count
        failed += op_count
    mismatches = digest_mismatches(passes)
    failed += len(mismatches)
    failures += problems + mismatches

    if args.trace:
        units = tracing.metric_units()
        values = {
            name: statistics.median(r["layers"][name] for r in traced) for name in units if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "wall_ref": statistics.median(r["wall_ref"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": op_count,
        "trace": args.trace,
        "passes": [mode for mode, _ in passes],
        "pass_wall_s": [r["wall_s"] for _, r in passes],
        "pass_wall_ref": [r["wall_ref"] for _, r in passes],
        "setup_samples_s": setups,
        "calib_s": {"before": calib_before, "after": calib_after},
        "commit": commit(),
        "python": platform.python_version(),
        "PYTHONHASHSEED": WORKER_ENV["PYTHONHASHSEED"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }
    print("record " + json.dumps(record))
    for name in units:
        print("%s = %.6g %s" % (name, values[name], units[name]))
    if not args.trace:
        print("wall_s = %.6g s" % statistics.median(r["wall_s"] for r in plain))
    print("fail_frac = %.6g ratio (%d of %d ops)" % (failed / attempted, failed, attempted))
    for line in failures[:20]:
        print("problem: " + line, file=sys.stderr)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        doc = {"record": record, "metrics": values, "spans": [r["spans"] for r in traced]}
        path.write_text(json.dumps(doc))
        print("spans written to %s" % path.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
