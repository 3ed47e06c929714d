"""Tests of the benchmark's statistics helpers and metric emission.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 201))
        self.assertEqual(stats.percentile(values, 95), 190)
        self.assertEqual(stats.percentile(values, 50), 100)
        self.assertEqual(stats.percentile(values, 100), 200)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_beyond_counts_samples_above_the_percentile(self):
        self.assertEqual(stats.beyond(200, 95), 10)
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(999, 99), 9)
        self.assertEqual(stats.beyond(100, 90), 10)

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail(list(range(1000)), ladder=(99.0, 95.0))[0], 99)
        self.assertEqual(stats.tail(list(range(999)), ladder=(99.0, 95.0))[0], 95)
        self.assertEqual(stats.tail(list(range(200)))[0], 95)
        self.assertEqual(stats.tail(list(range(199)))[0], 90)
        self.assertEqual(stats.tail(list(range(100)))[0], 90)

    def test_tail_is_capped_at_p95(self):
        p, value, n = stats.tail(list(range(100000)))
        self.assertEqual((p, n), (95, 100000))
        self.assertEqual(value, stats.percentile(list(range(100000)), 95))

    def test_tail_falls_back_to_median_with_few_samples(self):
        values = [5.0, 1.0, 3.0, 9.0, 7.0]
        self.assertEqual(stats.tail(values), (50.0, 5.0, 5))

    def test_tail_reports_value_and_count(self):
        values = [float(v) for v in range(300, 0, -1)]
        self.assertEqual(stats.tail(values), (95.0, 285.0, 300))


class MedianQuartileTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0, 10.0]
        self.assertEqual(stats.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles(values)[1], stats.median(values))

    def test_spread_is_interquartile_share_of_median(self):
        values = [10.0] * 5 + [11.0] * 5
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([4.0] * 10), 0.0)


class BestOfRepeatsTest(unittest.TestCase):
    def test_each_op_counts_once_at_its_fastest_repeat(self):
        # Three ops (keys 0-2), each repeated in two passes.
        op_ms = [4.0, 2.0, 9.0] + [3.0, 5.0, 1.0]
        op_key = [0, 1, 2] * 2
        p50, tail, rate = stats.best_of_repeats(op_ms, op_key, [2.0, 1.5], [3, 3], [0, 0])
        self.assertEqual(p50, 2.0)  # fastest repeats 3.0, 2.0, 1.0
        self.assertEqual(tail, (50.0, 2.0, 3))
        self.assertEqual(rate, 2.0)  # the faster pass: 3 ops in 1.5 s

    def test_rate_sums_the_fastest_pass_of_each_kind(self):
        # Pass kinds 0 and 1 alternate; the fastest of each is 2.0 s and 3.0 s.
        rate = stats.best_of_repeats([1.0], [0], [2.0, 4.0, 2.5, 3.0], [10, 12, 10, 12],
                                     [0, 1, 0, 1])[2]
        self.assertEqual(rate, (10 + 12) / (2.0 + 3.0))

    def test_tail_is_taken_over_the_fastest_repeats(self):
        slow = [float(v) + 100.0 for v in range(200)]
        fast = [float(v) for v in range(200)]
        op_key = list(range(200)) * 2
        _, (p, value, n), _ = stats.best_of_repeats(slow + fast, op_key, [1.0], [1], [0])
        self.assertEqual((p, value, n), (95.0, stats.percentile(fast, 95), 200))

    def test_unique_keys_keep_every_sample(self):
        op_ms = [5.0, 1.0, 3.0, 2.0, 4.0]
        p50, tail, _ = stats.best_of_repeats(op_ms, range(5), [1.0], [5], [0])
        self.assertEqual((p50, tail), (3.0, (50.0, 3.0, 5)))

    def test_no_samples_raises(self):
        with self.assertRaises(ValueError):
            stats.best_of_repeats([], [], [1.0], [1], [0])


class EmitTest(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        for kind in ("end_to_end", "per_layer"):
            specs = run.SPEC[kind]
            values = {spec["name"]: 1.5 for spec in specs}
            emitted = stats.emit(values, specs)
            self.assertEqual(list(emitted), [spec["name"] for spec in specs])
            for spec in specs:
                self.assertEqual(emitted[spec["name"]], {"value": 1.5, "unit": spec["unit"]})

    def test_missing_metric_raises(self):
        specs = run.SPEC["end_to_end"]
        values = {spec["name"]: 1.0 for spec in specs[1:]}
        with self.assertRaises(KeyError):
            stats.emit(values, specs)

    def test_sim_churn_layers_cover_every_per_layer_metric(self):
        attrs = {"pivots": 400.0, "lp_s": 2.0, "oracle_s": 0.5, "sched_solve_s": 3.0,
                 "cold_solves": 20.0, "warm_resolves": 150.0, "warm_start_hits": 30.0,
                 "degraded_rounds": 0.0, "fallback_rounds": 0.0, "basis_repairs": 0.0,
                 "dense_fallbacks": 0.0, "tableau_fallbacks": 0.0, "migrations": 9.0,
                 "straggler_workers": 4.0}
        output = {"workload": "sim_churn",
                  "samples": {"op_ms": [float(r % 7) for r in range(400)],
                              "op_key": [float(r) for r in range(400)],
                              "pass_s": [4.0, 5.0], "pass_ops": [200.0, 200.0],
                              "pass_key": [0.0, 1.0]}}
        spans = [{"name": "sim.run", "request": 0, "start": 10.0, "end": 14.0, "attrs": attrs}]
        layers = run.per_layer(output, spans)
        emitted = stats.emit(layers, run.SPEC["per_layer"])
        self.assertEqual(len(emitted), len(run.SPEC["per_layer"]))
        self.assertAlmostEqual(layers["core.other_s"], 0.5)
        self.assertAlmostEqual(layers["sim.other_s"], 1.0)
        self.assertAlmostEqual(layers["solver.us_per_pivot"], 5000.0)
        self.assertEqual(layers["service.batches"], 0.0)


class ReferenceTest(unittest.TestCase):
    def coop_output(self, seed, objectives):
        return {"workload": "coop_cold", "seed": seed,
                "samples": {"objective": objectives,
                            "instance": [float(i % 2) for i in range(len(objectives))]}}

    def test_recorded_objectives_pass_and_a_drift_fails(self):
        references = json.loads((HERE / "references.json").read_text())["1"]
        good = references[:2] * 2
        self.assertEqual(run.reference_failures(self.coop_output(1, good)), [])
        bad = list(good)
        bad[3] += 1e-3
        failures = run.reference_failures(self.coop_output(1, bad))
        self.assertEqual(len(failures), 1)
        self.assertIn("call 3", failures[0])

    def test_seeds_without_references_get_property_checks_only(self):
        self.assertEqual(run.reference_failures(self.coop_output(987654, [1.0, 2.0])), [])


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_matches_metric_specs(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        bench = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.SPEC["workloads"]))
        for kind in ("end_to_end", "per_layer"):
            keys = bench[kind][0].keys()
            self.assertEqual(bench[kind], [{k: spec[k] for k in keys} for spec in run.SPEC[kind]])


if __name__ == "__main__":
    unittest.main()
