#!/usr/bin/env python3
"""Short-mode test of the ckesim benchmark.

    python3 ckebench/test_bench.py

Runs every workload in --short mode, traced and untraced, and checks that
each prints every metric BENCHMARK.json declares, with its unit, and no
failed operation. Then proves the output checks bite: a wrong recorded
tables digest (paper_eval) and a wrong recorded fingerprint (sim_busy)
must each be counted as failed operations, and a directory holding only
the benchmark must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(HERE, "expected.json")) as f:
    EXPECTED = json.load(f)


def run_bench(workload, trace, seed=1, expected=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "ckebench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--short"]
    if expected is not None:
        cmd += ["--expected", expected]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError("benchmark exited %d:\n%s"
                             % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = os.path.join(bench.build_dir(), "test-tmp")
        shutil.rmtree(cls.tmp, ignore_errors=True)
        os.makedirs(cls.tmp)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def corrupted(self, name, edit):
        exp = json.loads(json.dumps(EXPECTED))
        edit(exp["short"])
        path = os.path.join(self.tmp, name)
        with open(path, "w") as f:
            json.dump(exp, f)
        return path

    def test_every_workload_prints_every_metric(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    r = result_of(run_bench(workload, trace))
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    declared = SPEC["per_layer" if trace else "end_to_end"]
                    self.assertEqual(list(r["metrics"]),
                                     [m["name"] for m in declared])
                    for m in declared:
                        got = r["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        if not trace:
                            self.assertGreater(got["value"], 0, m["name"])
                    if trace and workload == "service":
                        # The resumed daemon served resent refs from its
                        # journal shards.
                        self.assertGreater(
                            r["metrics"]["svc.journal_hits"]["value"], 0)

    def test_wrong_tables_digest_is_a_failed_operation(self):
        def edit(exp):
            exp["paper_eval"]["md5"]["bench_t2_characterization"] = "0" * 32
        r = result_of(run_bench("paper_eval", 0,
                                expected=self.corrupted("md5.json", edit)))
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)

    def test_wrong_fingerprint_is_a_failed_operation(self):
        def edit(exp):
            exp["sim"]["fingerprints"]["pf+bp/ws"] = "0x" + "0" * 16
        seed = EXPECTED["short"]["sim"]["seed"]
        r = result_of(run_bench("sim_busy", 0, seed=seed,
                                expected=self.corrupted("fp.json", edit)))
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)

    def test_benchmark_alone_fails_without_a_result(self):
        alone = os.path.join(self.tmp, "alone")
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "ckebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run_bench("sim_busy", 0, cwd=alone)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
