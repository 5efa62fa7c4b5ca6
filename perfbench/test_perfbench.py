#!/usr/bin/env python3
"""The benchmark's own tests, at a small scale of each workload.

Run from the repository root:  python3 perfbench/test_perfbench.py

They check that every workload closes its ledger (the binary exits non-zero
otherwise), that two processes given the same seed produce the same
simulated digest, that traced and untraced runs agree (which on rack_burst
also shows its digest does not depend on the shard count), and that
spec.json and BENCHMARK.json describe the same metrics.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as perfbench  # noqa: E402

WORKLOADS = ("dense_catalog", "rack_burst", "rack_chaos")


def run_small(workload, *extra, seed=7):
    cmd = [str(perfbench.BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--small", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not perfbench.build():
            raise RuntimeError("perfbench build failed")

    def test_ledger_closes_and_same_seed_repeats(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run_small(workload)
                second = run_small(workload)
                self.assertTrue(first["correct"])
                self.assertEqual(first["failed"], 0)
                self.assertGreater(first["attempted"], 0)
                self.assertEqual(first["digests"], second["digests"])
                for name in ("e2e_p50_ms", "e2e_p99_ms", "startup_p99_ms",
                             "sim_peak_mem_gib", "warm_envs_peak"):
                    self.assertEqual(first["end_to_end"][name], second["end_to_end"][name])

    def test_other_seed_changes_the_inputs(self):
        self.assertNotEqual(run_small("rack_chaos", seed=7)["digests"],
                            run_small("rack_chaos", seed=8)["digests"])

    def test_traced_run_matches_untraced(self):
        # A --trace 1 process runs rack_burst at 2 shards and a --trace 0
        # process at 1, so equal digests also prove its shard invariance.
        spec = perfbench.load_spec()
        spec_layers = {m["name"] for m in spec["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced = run_small(workload)
                traced = run_small(workload, "--trace", "1")
                self.assertEqual(untraced["digests"], traced["digests"])
                self.assertEqual(traced["subtraces"], spec["workloads"][workload]["subtraces"])
                self.assertLessEqual(set(traced["per_layer"]), spec_layers)
                self.assertIn("obs.bench_trace_overhead", traced["per_layer"])

    def test_result_line_carries_every_metric(self):
        spec = perfbench.load_spec()
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", "rack_burst",
                   "--seed", "3", "--seconds", "0", "--trace", trace, "--small"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
            self.assertEqual(proc.returncode, 0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            expected = {m["name"] for m in spec[section] if not m.get("table_only")}
            self.assertEqual(set(result["metrics"]), expected)

    def test_spec_matches_benchmark_json(self):
        spec = perfbench.load_spec()
        with open(perfbench.ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(spec["workloads"]))
        for section in ("end_to_end", "per_layer"):
            want = [(m["name"], m["unit"], m["better"]) for m in spec[section]
                    if not m.get("table_only")]
            got = [(m["name"], m["unit"], m["better"]) for m in bench[section]]
            self.assertEqual(got, want, section)


if __name__ == "__main__":
    unittest.main()
