#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_smoke.py          (from the root of a checkout)

Runs every workload in --smoke mode (small inputs, a few seconds), untraced
and traced, and checks that the result line carries every metric of
BENCHMARK.json with its unit and that the correctness gates pass. Also
checks that the benchmark refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)


def add_cases():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            def case(self, workload=workload, trace=trace):
                self.check(workload, trace)
            setattr(SmokeTest, f"test_{workload}_trace{trace}", case)


add_cases()


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark itself.
        build = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
        bare = (build if build.is_absolute() else ROOT / build) / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench("walk_dblp", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
