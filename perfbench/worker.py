"""One measured pass of a workload, in a fresh process.

Usage: python3 worker.py --workload NAME --seed N --t0 MONOTONIC [--trace] [--setup-only]

`--t0` is the parent's time.monotonic() just before it started this process,
so setup_s covers interpreter start, the import of homgenus and loading the
catalog.  The ops run under a SpeedProbe (see probe.py), which gives the
pass's wall time both in seconds and in reference-loop units.  The pass
prints one JSON object on stdout.  It expects homgenus on PYTHONPATH and
exits with code 3 if the copy it imports is not under the
directory named by HOMGENUS_SRC.
"""

import argparse
import json
import os
import resource
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import homgenus
    from homgenus import catalog

    catalog.catalog_list()
    setup_s = time.monotonic() - args.t0
    src = os.path.realpath(os.environ["HOMGENUS_SRC"])
    if not os.path.realpath(homgenus.__file__).startswith(src + os.sep):
        print("imported homgenus from %s, not from %s" % (homgenus.__file__, src), file=sys.stderr)
        return 3
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import ops
    import probe
    import tracing
    import workloads

    op_list = workloads.ops_for(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    # probes would land inside the spans of a traced pass, so it has none
    with probe.SpeedProbe(0 if args.trace else probe.PROBE_PERIOD_S) as speed:
        digests, failures = ops.run_ops(op_list, ops.Context(tracer))
    out = {
        "setup_s": setup_s,
        "wall_s": speed.wall_s,
        "wall_ref": speed.wall_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(op_list),
        "failures": failures,
        "digests": digests,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters)
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
