"""Self-tests of the benchmark's own parts.

    python3 bench/selftest.py

Run from the root of a devex checkout. The file name keeps it out of the
repository's pytest collection.
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def digest(specs):
    return json.dumps([inputs.public_spec(s) for s in specs], sort_keys=True)


class GeneratorTest(unittest.TestCase):
    def test_sweep_pools_are_deterministic_per_seed(self):
        for workload in ("sweep_small_k", "sweep_large_k"):
            a = digest(sum(inputs.sweep_pool(7, workload), []))
            b = digest(sum(inputs.sweep_pool(7, workload), []))
            c = digest(sum(inputs.sweep_pool(8, workload), []))
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)

    def test_cli_inputs_are_deterministic_per_seed(self):
        work = HERE / ".work" / "selftest"
        try:
            runs = []
            for seed in (7, 7, 8):
                shutil.rmtree(work, ignore_errors=True)
                ops, _ = inputs.cli_ops(seed, work)
                ops += inputs.simulate_ops(seed, work)
                files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
                runs.append(([op["argv"] for op in ops], files))
            self.assertEqual(runs[0], runs[1])
            self.assertNotEqual(runs[0], runs[2])
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_pool_keeps_every_input_class(self):
        timed, probe = inputs.sweep_pool(3, "sweep_small_k")
        pool = timed + probe
        hs = sorted(s["h"] for s in pool if "h" in s)
        self.assertLess(hs[0], 1e-6)
        self.assertEqual({s["class"] for s in pool}, set(inputs.CLASSES))
        self.assertEqual({s["th_kind"] for s in pool}, set(inputs.THRESHOLD_KINDS))
        self.assertEqual({s["fisher"]["name"] for s in probe if s.get("family_pair")},
                         {"bernoulli", "ternary"})
        self.assertEqual({s["fisher"]["name"] for s in timed if "fisher" in s},
                         {"bernoulli", "ternary"})
        self.assertTrue(all(s["_defect"] for s in probe))
        self.assertFalse(any(s["_defect"] for s in timed))
        self.assertTrue(all(s["class"] == "near" for s in pool if s.get("family_pair")))


class OracleTest(unittest.TestCase):
    def test_symmetric_binary_chernoff(self):
        c, t = oracle.PairOracle([0.4, 0.6], [0.6, 0.4]).chernoff()
        self.assertAlmostEqual(float(c), 0.0204110, places=7)
        # closed form for the binary64 inputs, normalized exactly
        a, b = mp.mpf(0.4), mp.mpf(0.6)
        exact = -mp.log(2 * mp.sqrt(a * b) / (a + b))
        self.assertLess(abs(c - exact), mp.mpf(10) ** -30)
        self.assertLess(abs(t - mp.mpf(0.5)), mp.mpf(10) ** -30)


class TracerTest(unittest.TestCase):
    def test_calls_under_one_compare_report(self):
        import devex

        pair = devex.HypothesisPair(devex.make_pmf(["0", "1"], [0.4, 0.6]),
                                    devex.make_pmf(["0", "1"], [0.6, 0.4]))
        tracer = spans.Tracer()
        tracer.install()
        try:
            devex.compare_report(pair, devex.ZERO_THRESHOLDS)
        finally:
            tracer.uninstall()
        self.assertFalse(hasattr(devex.compare_report, "__wrapped__"))
        summary = spans.summarize(tracer.records())
        self.assertEqual(summary["calls"]["exponents.compare_report"], 1)
        self.assertEqual(summary["calls"]["exponents.check_admissible"], 4)
        self.assertEqual(summary["calls"]["probdist.llr_stats"], 6)
        self.assertEqual(summary["calls"]["probdist.kl_divergence"], 8)
        self.assertEqual(summary["descendants"][("exponents.compare_report",
                                                 "exponents.check_admissible")], [4])


class EstimatorTest(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        value, pct, count = run.tail([float(i) for i in range(40)])
        self.assertEqual((value, pct, count), (29.0, 75.0, 40))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_upper_decile_per_op(self):
        times = [4.0, 9.0, 1.0, 3.0, 2.0, 7.0, 8.0] + [float(i) for i in range(10)]
        ops = [0, 1, 0, 0, 0, 1, 2] + [3] * 10
        self.assertEqual(run.upper_decile_times(times, ops), [4.0, 9.0, 8.0, 9.0])


if __name__ == "__main__":
    unittest.main()
