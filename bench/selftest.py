"""Tests of the benchmark itself; run from the repository root with

    python3 bench/selftest.py

They start real qwproj children and take about a minute.  The file name
keeps them out of the library's pytest run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        run.WORK_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=run.WORK_DIR))

    def tearDown(self):
        shutil.rmtree(self.work)
        if not any(run.WORK_DIR.iterdir()):
            run.WORK_DIR.rmdir()

    def test_initial_state_is_a_seeded_unit_vector_at_the_origin(self):
        for w in run.WORKLOADS.values():
            first = json.loads(run.initial_state(w, 7))
            self.assertEqual(first, json.loads(run.initial_state(w, 7)))
            self.assertNotEqual(first, json.loads(run.initial_state(w, 8)))
            (entry,) = first["support"]
            self.assertEqual(tuple(entry["pos"]), w.origin)
            self.assertEqual(len(entry["coin"]), w.coin_dimension)
            self.assertAlmostEqual(sum(re * re + im * im for re, im in entry["coin"]), 1.0,
                                   places=12)

    def test_declared_metrics_are_the_reported_ones(self):
        declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]},
                         {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"})

    def test_failed_verification_counts_as_failed_and_is_not_timed(self):
        w = run.WORKLOADS["plane_verify"]
        single = run.run_workload(w, 1, self.work, False, ("--tol", "1e-300"))
        self.assertFalse(single.ok)
        self.assertEqual(single.reason, "exit code 4")
        result = run.end_to_end(w, 1, 0.1, self.work, ("--tol", "1e-300"))
        self.assertGreaterEqual(result["attempted"], run.MIN_RUNS)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertNotIn("wall_s", result["metrics"])

    def test_traced_run_reports_every_layer_and_changes_nothing(self):
        # per_layer raises BenchmarkError when a traced report differs from
        # the untraced one or a count differs between traced runs.
        result = run.per_layer(run.WORKLOADS["circle_verify"], 1, 0.1, self.work)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER_UNITS))
        self.assertEqual(result["metrics"]["walk.apply_step.calls"][0], 2000)

    def test_refuses_to_run_without_the_program_sources(self):
        bare = self.work / "bare"
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "plane_verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
