"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ops  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SeedDiscipline(unittest.TestCase):
    def test_same_seed_gives_identical_op_list(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.ops_for(name, 7), workloads.ops_for(name, 7), name)

    def test_seed_changes_the_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(workloads.ops_for(name, 7), workloads.ops_for(name, 8), name)

    def test_op_count_does_not_depend_on_seed(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(len(workloads.ops_for(name, 1)), len(workloads.ops_for(name, 2)), name)


class Oracles(unittest.TestCase):
    def test_wrong_expected_value_is_counted_and_the_run_goes_on(self):
        good = {"kind": "build", "space": "CP2", "euler": 3, "dim": 2, "summands": 1, "id": 0}
        wrong = dict(good, euler=4, id=1)
        rigidity = {"kind": "rigidity", "space": "CP2", "kernel": "u/(1+u^2)", "point": [3, 2, 1], "id": 2}
        rigidity["value"] = 10**6
        digests, failures = ops.run_ops([good, wrong, rigidity], ops.Context())
        self.assertEqual(len(failures), 2)
        self.assertIn("op 1 (build): OracleError", failures[0])
        self.assertIn("op 2 (rigidity): OracleError", failures[1])
        self.assertEqual(list(digests), [0])

    def test_seeded_ops_pass_their_oracles(self):
        picked = [
            op
            for op in workloads.ops_for("genus_sweep", 3)
            if op["kind"] == "class" and op["space"] in ("S6", "CP2", "U3-flag")
        ]
        digests, failures = ops.run_ops(picked, ops.Context())
        self.assertEqual(failures, [])
        self.assertEqual(len(digests), len(picked))


class StagedTrace(unittest.TestCase):
    def run_both(self, op_list):
        plain, failures = ops.run_ops(op_list, ops.Context())
        self.assertEqual(failures, [])
        tracer = tracing.Tracer()
        staged, failures = ops.run_ops(op_list, ops.Context(tracer))
        self.assertEqual(failures, [])
        self.assertEqual(plain, staged)
        return tracer

    def test_staged_class_equals_chern_dold_genus(self):
        op_list = [
            {"kind": "class", "space": "S6", "signs": "+", "value": workloads.CLASSES["S6"], "id": 0},
            {"kind": "class", "space": "U3-flag", "signs": "+-+", "value": None, "id": 1},
        ]
        tracer = self.run_both(op_list)
        names = {s["name"] for s in tracer.spans}
        for name in ("structures.fixed_points", "toricgenus.numerator", "exactalg.divide", "toricgenus.extract"):
            self.assertIn(name, names)
        self.assertEqual(tracer.counters["exactalg.divide_calls"], tracer.counters["toricgenus.lines"])

    def test_staged_basis_convert_equals_basis_convert(self):
        terms = [[[0, 0, 1, 0, 0, 0], "2/3"], [[1, 1, 0, 0, 0, 0], "-5/1"]]
        tracer = self.run_both([{"kind": "round_trip", "terms": terms, "id": 0}])
        self.assertEqual(tracer.counters["exactalg.subs_calls"], 2)
        self.assertEqual(tracer.counters["cobordism.dict_calls"], 2)

    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 0, "name": "bench.op", "parent": None, "start": 0.0, "end": 10.0, "error": None},
            {"id": 1, "name": "rootdata.weyl", "parent": 0, "start": 1.0, "end": 4.0, "error": None},
            {"id": 2, "name": "exactalg.divide", "parent": 0, "start": 5.0, "end": 6.0, "error": "PoleCancellationError"},
        ]
        self.assertEqual(tracing.self_times(spans), {0: 6.0, 1: 3.0, 2: 1.0})
        metrics = tracing.layer_metrics(spans, {})
        self.assertEqual(metrics["bench.self_s"], 6.0)
        self.assertEqual(metrics["rootdata.weyl_s"], 3.0)
        self.assertEqual(metrics["exactalg.errors"], 1)
        self.assertEqual(set(metrics) | {"trace.overhead_s"}, set(tracing.metric_units()))


class SpeedProbe(unittest.TestCase):
    def test_each_stretch_is_divided_by_the_probe_after_it(self):
        # 2 s of work at probe time 0.5 s, then 3 s at 0.25 s; probe time is left out
        wall_s, wall_ref = probe.measure(10.0, [(12.0, 0.5), (15.5, 0.25)])
        self.assertEqual(wall_s, 5.0)
        self.assertEqual(wall_ref, 16.0)

    def test_probes_run_during_the_block(self):
        with probe.SpeedProbe() as speed:
            end = probe.perf_counter() + 3 * probe.PROBE_PERIOD_S
            while probe.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(speed.probes), 3)
        self.assertGreater(speed.wall_s, 2 * probe.PROBE_PERIOD_S)
        self.assertGreater(speed.wall_ref, 0)


if __name__ == "__main__":
    unittest.main()
