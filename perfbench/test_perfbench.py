#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench the way run.py does, then checks the percentile helpers,
that the library's environment knobs cannot move a simulated metric, that
traced and untraced runs simulate the same thing, and that the benchmark
refuses to report from a checkout without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("paper_rig", "bcast_1024", "traffic_sat", "stream_fault")
SIM_METRICS = ("sim_op_p50_us", "sim_op_tail_us", "sim_flits_per_us",
               "completed_op_ratio")
# NIMCAST_* variables that pick a thread count, an engine, a window, a
# merge mode, a selection policy or a reduced rig in the library and the
# figure benches. The benchmark configures its engines explicitly, so none
# of them may reach a simulated output.
KNOBS = {
    "NIMCAST_THREADS": "4",
    "NIMCAST_SHARDS": "4",
    "NIMCAST_WINDOW": "50",
    "NIMCAST_EAGER_MERGE": "1",
    "NIMCAST_SELECTION": "static",
    "NIMCAST_QUICK": "1",
}

OUT = None


def setUpModule():
    global OUT
    OUT = run.build()


def bench(workload, seed=7, trace="0", env=None):
    """One short run of the binary: (exit code, sim_digest, result)."""
    proc = subprocess.run(
        [os.path.join(OUT, "nimcast_perfbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", trace],
        stdout=subprocess.PIPE, text=True, timeout=170,
        env=dict(os.environ, **(env or {})))
    lines = proc.stdout.splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest "))
    return proc.returncode, digest, json.loads(lines[-1])


class Percentiles(unittest.TestCase):
    def test_selftest(self):
        proc = subprocess.run([os.path.join(OUT, "perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class SimulatedOutputs(unittest.TestCase):
    def test_knobs_leave_sim_metrics_and_digest_unchanged(self):
        for workload in WORKLOADS:
            code, digest, base = bench(workload)
            self.assertEqual(code, 0)
            self.assertTrue(base["correct"])
            for var, value in KNOBS.items():
                with self.subTest(workload=workload, var=var):
                    code, got_digest, got = bench(workload, env={var: value})
                    self.assertEqual(code, 0)
                    self.assertEqual(got_digest, digest)
                    for m in SIM_METRICS:
                        self.assertEqual(got["metrics"][m], base["metrics"][m], m)

    def test_traced_run_simulates_the_same(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, untraced, _ = bench(workload, seed=11)
                code, traced, result = bench(workload, seed=11, trace="1")
                self.assertEqual(code, 0)
                self.assertEqual(traced, untraced)
                self.assertGreater(result["metrics"]["trace.spans"]["value"], 0)

    def test_seed_changes_the_inputs(self):
        _, a, _ = bench("paper_rig", seed=1)
        _, b, _ = bench("paper_rig", seed=2)
        self.assertNotEqual(a, b)

    @unittest.expectedFailure
    def test_stream_survives_a_reorienting_link_fault(self):
        # Known defect: a link fault that re-orients up*/down* can deadlock
        # a rotated (R = 4) stream. Seed 1 draws such a fault. When this
        # passes, widen stream_fault's fault draw and drop this test.
        code, _, result = bench("stream_fault_reorient", seed=1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(code, 0)


class Contract(unittest.TestCase):
    def test_fails_without_library_sources(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        bare = os.path.join(OUT, "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_rig",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
