"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q

Every workload runs at n=4 (locate: a few points at n=4) untraced and
traced.  The tests assert that each metric named in BENCHMARK.json appears
with its unit, that the traced counts match the call structure of the
library, and that a deliberately corrupted output is counted as a failure.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import cobinary  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


class BenchTestCase(unittest.TestCase):
    def setUp(self) -> None:
        tmp = TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.record = Path(tmp.name) / "runs.jsonl"

    def run_workload(self, name: str, trace: bool = False, seconds: float = 0.01) -> dict:
        return bench.run(name, seed=0, seconds=seconds, trace=trace, n=4, record=self.record)


class MetricsTest(BenchTestCase):
    def test_workloads_match_the_spec(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))

    def test_every_end_to_end_metric_with_its_unit(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                entry = self.run_workload(name)
                self.assertTrue(entry["correct"])
                self.assertEqual(entry["failed"], 0)
                self.assertGreaterEqual(entry["attempted"], 1)
                got = {k: m["unit"] for k, m in entry["metrics"].items()}
                self.assertEqual(got, units("end_to_end"))
                for key, m in entry["metrics"].items():
                    self.assertGreater(m["value"], 0, key)
                self.assertEqual(entry["figures"]["error_rate"]["value"], 0)

    def test_every_per_layer_metric_with_its_unit(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                entry = self.run_workload(name, trace=True)
                self.assertTrue(entry["correct"])
                self.assertGreaterEqual(entry["items_traced"], 1)
                got = {k: m["unit"] for k, m in entry["metrics"].items()}
                self.assertEqual(got, units("per_layer"))

    def test_traced_counts_follow_the_call_structure(self):
        metrics = self.run_workload("bijection", trace=True)["metrics"]
        value = {k: m["value"] for k, m in metrics.items()}
        # n=4: Catalan(4) = 14 pairs; 3x3 inverses by adjugate (9 minors + 1 det).
        self.assertEqual(value["linalg.inverse_integer.per_pair"], 4.0)
        self.assertEqual(value["linalg.det.per_inverse"], 10.0)
        self.assertEqual(value["correspondence.rankings_per_pair"], 1.0)
        self.assertEqual(value["correspondence.tree_to_cluster.calls"], 14.0)
        self.assertAlmostEqual(sum(value[f"{layer}.share"] for layer in
                                   ("linalg", "trees", "regions", "exchange", "clusters",
                                    "correspondence", "serialize", "verify", "cli", "other")),
                               1.0, places=6)
        metrics = self.run_workload("verify", trace=True)["metrics"]
        # 14 trees per sample, plus the check inside locate_tree.
        self.assertEqual(metrics["regions.region_contains.per_sample"]["value"], 15.0)

    def test_tracing_restores_every_binding(self):
        before = cobinary.regions.region_contains
        self.run_workload("locate", trace=True)
        self.assertIs(cobinary.regions.region_contains, before)
        self.assertIs(cobinary.verify.region_contains, before)


class CorruptionTest(BenchTestCase):
    """One returned tree swapped for another must count as a failed item."""

    def assert_counted(self, entry: dict) -> None:
        self.assertFalse(entry["correct"])
        self.assertGreaterEqual(entry["failed"], 1)
        self.assertGreater(entry["figures"]["error_rate"]["value"], 0)

    def test_locate(self):
        real = cobinary.locate_tree

        def swapped(x, eps):
            return real(tuple(reversed(x)), eps)

        with mock.patch.object(cobinary, "locate_tree", swapped):
            self.assert_counted(self.run_workload("locate"))

    def test_flip_graph(self):
        real = cobinary.enumerate_trees

        def swapped(eps):
            trees = real(eps)
            trees[0] = trees[1]
            return trees

        with mock.patch.object(cobinary, "enumerate_trees", swapped):
            self.assert_counted(self.run_workload("flip-graph"))

    def test_bijection(self):
        real = cobinary.cli.bijection_report

        def swapped(eps):
            report = real(eps)
            report[0]["tree"], report[1]["tree"] = report[1]["tree"], report[0]["tree"]
            return report

        with mock.patch.object(cobinary.cli, "bijection_report", swapped):
            self.assert_counted(self.run_workload("bijection"))

    def test_verify(self):
        real = cobinary.verify.cluster_to_tree
        calls = []

        def swapped(cluster, eps):
            calls.append(cluster)
            tree = real(cluster, eps)
            return cobinary.initial_tree(eps) if len(calls) == 2 else tree

        with mock.patch.object(cobinary.verify, "cluster_to_tree", swapped):
            self.assert_counted(self.run_workload("verify"))

    def test_pinned_stdout(self):
        first = next(WORKLOADS["verify"](0, 4).items())
        with mock.patch.dict("workloads.PINNED_STDOUT", {" ".join(first): "0" * 64}):
            self.assert_counted(self.run_workload("verify"))


class HarnessTest(BenchTestCase):
    def test_compare_lines_up_two_records(self):
        self.run_workload("locate")
        self.run_workload("flip-graph")
        with mock.patch("sys.stdout") as out:
            bench.compare(self.record, self.record)
        text = "".join(call.args[0] for call in out.write.call_args_list)
        self.assertIn("== locate (trace 0)", text)
        self.assertIn("== flip-graph (trace 0)", text)
        self.assertIn("1.000", text)

    def test_probe_samples_only_timed_calls(self):
        probe = bench.SpeedProbe()
        with probe.running():
            time.sleep(0.2)  # not a timed call: no samples
            self.assertEqual(probe.samples, [])
            probe.timing = True
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                pass
            probe.timing = False
        self.assertGreater(len(probe.samples), 0)
        self.assertAlmostEqual(probe.spent, sum(probe.samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_throughput_is_rescaled_by_host_speed(self):
        entry = self.run_workload("locate", seconds=0.5)
        figures = {k: m["value"] for k, m in entry["figures"].items()}
        self.assertGreater(figures["speed_samples"], 0)
        self.assertAlmostEqual(entry["metrics"]["norm_work_per_s"]["value"],
                               figures["work_per_s"] / figures["host_speed"])

    def test_fails_without_the_library(self):
        with TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "locate", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120, check=False,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
