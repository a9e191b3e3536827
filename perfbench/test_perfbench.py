"""Smoke tests for the benchmark itself, at bound 3.

    python3 -m pytest perfbench -q

They check that every metric named in BENCHMARK.json is printed with its
unit, and that a planted wrong expectation makes a run fail.
"""

import io
import json
import sys
import unittest
from contextlib import redirect_stdout
from random import Random
from unittest import mock

import oracle
import run
import speed
import workloads
from workloads import Sizes

SMALL = Sizes(views_bound=3, batch=10, tail=(40, -40), probe=(1_200,), closure_bound=3, queries=50,
              evidence_bound=3, verify_bound=3)
ONE = Sizes(views_bound=3, tail=(), probe=(), closure_bound=3, seedsets=("swap",), queries=50,
            evidence_bound=3, verify_bound=3, candidates=("poly",))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


class MetricNames(unittest.TestCase):
    def test_end_to_end_metrics_have_their_units(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in workloads.WORKLOADS:
            result = run.end_to_end(workload, 1, 0, SMALL)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(units(result["metrics"]), expected, workload)
            self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()), workload)

    def test_per_layer_metrics_have_their_units(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        got = {}
        for workload in workloads.WORKLOADS:
            got.update(units(run.traced_part(workload, 1, SMALL)["metrics"]))
        self.assertEqual(got, expected)

    def test_deep_combs_count_as_failed_calls(self):
        metrics = run.traced_part("views", 1, SMALL)["metrics"]
        T = run.load_treealg()
        for name, call in (("trees.parse_tree", lambda t: T.parse_tree(oracle.encode(t))),
                           ("morphisms.graft", lambda t: T.graft(T.Grafting("a", "b"), t))):
            try:
                call(oracle.comb(Random(0), "abc", 1_200, left=True))
                raises = 0
            except RecursionError:
                raises = 2  # the probe tries a left and a right comb
            self.assertEqual(metrics[f"views.{name}.failed"]["value"], raises)

    def test_raising_tree_is_a_failed_op_not_a_crash(self):
        T = run.load_treealg()
        rnd = workloads.views(T, 1, Sizes(views_bound=2, tail=(-1_200,), probe=()))
        comb = oracle.comb(Random(0), "abc", 1_200, left=False)
        raises = bool(workloads._failing_calls(T, comb, T.Grafting("a", "b")))
        self.assertEqual(rnd.failed, int(raises))
        self.assertEqual(rnd.work + rnd.failed, oracle.universe_size(2, 3) + 1)


class ReferenceClock(unittest.TestCase):
    def test_clock_is_monotonic_and_samples_at_any_depth(self):
        def deep(n):
            return deep(n - 1) if n else [speed.clock() for _ in range(20_000)]

        with speed.Speedometer() as meter:
            depth = sys.getrecursionlimit() - 60
            reads = [t for _ in range(10) for t in deep(depth)]
        self.assertEqual(reads, sorted(reads))
        self.assertGreater(meter.slices, speed.WINDOW)
        self.assertIsNone(speed._active)

    def test_clock_stands_still_while_a_slice_runs(self):
        with speed.Speedometer() as meter:
            before = speed.clock()
            meter._sample()
            after = speed.clock()
        self.assertLess(after - before, speed.NOMINAL_S / 10)


class PlantedErrors(unittest.TestCase):
    def setUp(self):
        self.T = run.load_treealg()

    def test_wrong_class_count_fails(self):
        with mock.patch.object(oracle.SeedSet, "class_count", lambda self, bound: 1):
            with self.assertRaises(oracle.Mismatch):
                workloads.closure(self.T, 1, ONE)

    def test_wrong_universe_count_fails(self):
        with mock.patch.object(oracle, "universe_size", lambda bound, letters: 65):
            with self.assertRaises(oracle.Mismatch):
                workloads.views(self.T, 1, ONE)

    def test_wrong_verdict_fails(self):
        with mock.patch.object(oracle.Candidate, "is_cp", property(lambda self: False)):
            with self.assertRaises(oracle.Mismatch):
                workloads.evidence(self.T, 1, ONE)

    def test_wrong_output_exits_nonzero(self):
        out = io.StringIO()
        with mock.patch.object(run, "Sizes", lambda: ONE), \
                mock.patch.object(oracle.SeedSet, "class_count", lambda self, bound: 1), \
                redirect_stdout(out):
            code = run.main(["--workload", "closure", "--seed", "1", "--seconds", "0"])
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(out.getvalue().splitlines()[-1])["correct"])

    def test_correct_run_passes(self):
        for workload, fn in workloads.WORKLOADS.items():
            rnd = fn(self.T, 1, ONE)
            self.assertEqual(rnd.failed, 0, workload)
            self.assertTrue(rnd.ops, workload)
        self.assertEqual(workloads.views(self.T, 1, ONE).work, oracle.universe_size(3, 3))


if __name__ == "__main__":
    unittest.main()
