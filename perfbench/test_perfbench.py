#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from anywhere:

    python3 perfbench/test_perfbench.py

Smoke runs (--smoke: tiny inputs, one pass) must print every metric that
BENCHMARK.json names, with its unit; doctored outputs (--doctor: every
checked output corrupted before its check) must be counted as failures;
the modeled-output digest must repeat for a repeated seed; and the
benchmark must fail without printing a result when it cannot build.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Runnable, and driving the per-layer KSPACE probe, but not a BENCHMARK.json
# workload (see README.md): its checks are tested all the same.
ALL_WORKLOADS = WORKLOADS + ["kspace_md"]


def run(workload, trace, *extra, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result(proc):
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def human_metrics(proc):
    """name -> value of the 'metric NAME = VALUE UNIT' lines."""
    out = {}
    for line in proc.stdout.split("\n"):
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric" and parts[2] == "=":
            out[parts[1]] = float(parts[3])
    return out


class Smoke(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in ALL_WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result(proc)
                    self.assertEqual(set(res),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(res["metrics"]), set(want))
                    printed = human_metrics(proc)
                    for name, unit in want.items():
                        value = res["metrics"][name]["value"]
                        self.assertEqual(res["metrics"][name]["unit"], unit)
                        self.assertTrue(math.isfinite(value), name)
                        self.assertIn(name, printed)
                    self.assertEqual(printed["error_rate"], 0.0)

    def test_doctored_outputs_count_as_errors(self):
        for workload in ALL_WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--doctor")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result(proc)
                self.assertFalse(res["correct"])
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(res["failed"], res["attempted"])
                self.assertEqual(human_metrics(proc)["error_rate"], 1.0)

    def test_modeled_digest_repeats_for_a_seed(self):
        for workload in ALL_WORKLOADS:
            with self.subTest(workload=workload):
                digests = []
                for _ in range(2):
                    proc = run(workload, 0)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    digests.append([line for line in proc.stdout.split("\n")
                                    if line.startswith("digest ")])
                self.assertEqual(len(digests[0]), 1)
                self.assertEqual(digests[0], digests[1])

    def test_fixed_op_percentiles_are_over_per_op_means(self):
        proc = run("paper_scaling", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = next(line for line in proc.stdout.split("\n")
                    if line.startswith("per-op mean ms over "))
        means = sorted(float(x) for x in line.split(":")[1].split())
        self.assertEqual(len(means), result(proc)["attempted"])
        mid = len(means) // 2
        want = (means[mid] if len(means) % 2
                else (means[mid - 1] + means[mid]) / 2)
        got = result(proc)["metrics"]["op_p50_ms"]["value"]
        self.assertAlmostEqual(got, want, delta=1e-3)  # printed to 3 places

    def test_unknown_workload_fails_without_result(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_fails_without_sources(self):
        # A tree holding only BENCHMARK.json and perfbench/ cannot build.
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bare = os.path.join(ROOT, target, "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run(WORKLOADS[0], 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
