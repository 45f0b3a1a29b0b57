#!/usr/bin/env python3
"""Self-checks of the end-to-end benchmark, on reduced sizes (--small).

    python3 perfbench/test_bench.py

- Determinism: two runs of one seed report bit-identical simulated,
  amplification and per-layer count metrics (host-clock metrics excepted).
- A second seed generates different data and still verifies.
- Verification bites: a mismatch injected into the host-side model makes
  the run exit nonzero and count the mismatch.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HOST_E2E = run.HOST_E2E


def small(workload, seed, trace=False, inject=False):
    extra = ["--small=1"]
    if inject:
        extra.append("--inject_mismatch=1")
    return run.run_once(workload, seed, trace, extra)


def deterministic_part(result):
    e2e = {k: v for k, v in result["e2e"].items() if k not in HOST_E2E}
    layer = {k: v for k, v in result["layer"].items()
             if not run.is_host_layer(k)}
    return e2e, layer, result["info"]


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def test_same_seed_is_bit_identical(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code_a, a = small(workload, 7, trace=True)
                code_b, b = small(workload, 7, trace=True)
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertEqual(deterministic_part(a), deterministic_part(b))

    def test_other_seed_changes_data_and_verifies(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code_a, a = small(workload, 7)
                code_b, b = small(workload, 8)
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertEqual((b["failed"], b["mismatches"]), (0, 0))
                self.assertNotEqual(deterministic_part(a)[0],
                                    deterministic_part(b)[0])

    def test_injected_mismatch_fails_the_run(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = small(workload, 7, inject=True)
                self.assertNotEqual(code, 0)
                self.assertGreater(result["mismatches"], 0)

    def test_serve_folds_under_load(self):
        code, result = small("serve", 7)
        self.assertEqual(code, 0)
        self.assertGreaterEqual(int(result["info"]["nominal_watermark_folds"]),
                                3)
        self.assertEqual(result["info"]["probe_watermark_folds"], "0")
        self.assertGreater(result["e2e"]["kops_per_sim_s"], 0)


if __name__ == "__main__":
    unittest.main()
