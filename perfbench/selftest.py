"""Self-tests of the benchmark itself, on tiny runs.

Run from the repository root:

    python3 perfbench/selftest.py

The file is not named ``test_*.py``, so the package's own test run does not
collect it.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

SEED = 7
TINY_ITEMS = 3


def tiny_timed(name):
    workload, setup_s = run.set_up(name)
    result = run.run_timed(workload, SEED, seconds=0.0, min_items=TINY_ITEMS)
    return result, run.end_to_end_metrics(result, [setup_s])


def tiny_traced(name):
    workload, _ = run.set_up(name)
    values, _, untraced, traced = run.run_traced(workload, SEED, TINY_ITEMS)
    return values, untraced, traced


def counts(values):
    return {k: v for k, v in values.items() if not k.endswith(("self_s", "overhead_frac"))}


class MetricNames(unittest.TestCase):
    def test_every_end_to_end_metric_and_unit(self):
        declared = run.declared_metrics()["end_to_end"]
        for name in ("mub_scan", "lhs_suite", "qubit_opt"):
            with self.subTest(workload=name):
                result, values = tiny_timed(name)
                self.assertEqual(len(result.times), TINY_ITEMS)
                self.assertEqual(result.failures, [])
                metrics = run.select(values, declared)
                self.assertEqual(set(metrics), set(declared))
                for metric, unit in declared.items():
                    self.assertEqual(metrics[metric]["unit"], unit)
                    self.assertGreater(metrics[metric]["value"], 0.0)

    def test_every_per_layer_metric_and_unit(self):
        declared = run.declared_metrics()["per_layer"]
        for name in ("mub_scan", "lhs_suite", "qubit_opt"):
            with self.subTest(workload=name):
                values, untraced, traced = tiny_traced(name)
                self.assertEqual(untraced.failures + traced.failures, [])
                metrics = run.select(values, declared)
                self.assertEqual({m: metrics[m]["unit"] for m in metrics}, declared)


class TracedCounts(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for name in ("mub_scan", "lhs_suite", "qubit_opt"):
            with self.subTest(workload=name):
                first, _, _ = tiny_traced(name)
                second, _, _ = tiny_traced(name)
                self.assertEqual(counts(first), counts(second))

    def test_evaluate_calls_equal_mub_predicate_calls(self):
        # mub_scan has no closed-form path: every predicate call is one
        # full-pipeline evaluation.
        values, _, _ = tiny_traced("mub_scan")
        self.assertGreater(values["steering.evaluate.calls"], 0)
        self.assertEqual(
            values["steering.evaluate.calls"], values["jointmeas.bisect_threshold.pred_calls"]
        )

    def test_wrappers_are_removed(self):
        import qsteer

        def bindings():
            return qsteer.steering.evaluate, qsteer.qobj.Povm.__init__, qsteer.scenarios.bisect_threshold

        before = bindings()
        tiny_traced("mub_scan")
        self.assertEqual(before, bindings())


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(
                Path(run.__file__).parent,
                Path(tmp) / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "mub_scan",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp,
                capture_output=True,
                text=True,
                timeout=60,
            )
        self.assertNotEqual(out.returncode, 0)
        for line in out.stdout.splitlines():
            self.assertNotIn("correct", json.loads(line))


if __name__ == "__main__":
    unittest.main()
