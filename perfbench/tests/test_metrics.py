"""Tests of the benchmark's own parsing: percentiles, /metrics deltas,
/proc fields, ExecStats trees and span self times.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import metrics as M  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000, shuffled order is irrelevant
        values.reverse()
        self.assertEqual(M.percentile(values, 99), (990, 10))
        self.assertEqual(M.percentile(values, 50), (500, 500))
        self.assertEqual(M.percentile(values, 100), (1000, 0))

    def test_small_samples_have_few_beyond(self):
        # 200 samples cannot support a p99 with ten samples beyond it.
        _, beyond = M.percentile(list(range(200)), 99)
        self.assertEqual(beyond, 2)

    def test_single_sample(self):
        self.assertEqual(M.percentile([7], 99), (7, 0))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            M.percentile([], 50)


class GeomeanTest(unittest.TestCase):
    def test_each_value_weighs_the_same(self):
        self.assertAlmostEqual(M.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(M.geomean([2.0, 2.0, 2.0]), 2.0)
        # Halving one of four kinds moves the summary by 2^(1/4).
        self.assertAlmostEqual(M.geomean([0.5, 1, 1, 1]) / M.geomean([1, 1, 1, 1]),
                               0.5 ** 0.25)

    def test_empty_or_nonpositive_is_an_error(self):
        for bad in ([], [1.0, 0.0], [-1.0]):
            with self.assertRaises(ValueError):
                M.geomean(bad)


def metrics_doc(counters, histograms=None):
    hist = {name: {"count": c, "sum": s, "buckets": []}
            for name, (c, s) in (histograms or {}).items()}
    return json.dumps({"counters": counters, "histograms": hist})


class MetricsDeltaTest(unittest.TestCase):
    def test_counter_and_histogram_deltas(self):
        before = metrics_doc({"serve.requests": 10, "ingest.fixes": 5},
                             {"serve.request_ns": (10, 1000)})
        after = metrics_doc({"serve.requests": 25, "ingest.fixes": 5,
                             "serve.rejected": 2},
                            {"serve.request_ns": (25, 4000)})
        d = M.metrics_delta(before, after)
        self.assertEqual(d["counters"]["serve.requests"], 15)
        self.assertEqual(d["counters"]["ingest.fixes"], 0)
        # Registered after the first snapshot: counts from zero.
        self.assertEqual(d["counters"]["serve.rejected"], 2)
        self.assertEqual(d["histograms"]["serve.request_ns"], (15, 3000))

    def test_empty_registry(self):
        empty = '{"counters":{},"histograms":{}}'
        d = M.metrics_delta(empty, empty)
        self.assertEqual(d, {"counters": {}, "histograms": {}})


class ProcTest(unittest.TestCase):
    def test_cpu_seconds_survive_spaces_in_the_command_name(self):
        fields = ["S"] + ["0"] * 10 + ["250", "50"] + ["0"] * 30
        stat = "4242 (mod bd) (x) " + " ".join(fields)
        self.assertAlmostEqual(M.proc_cpu_seconds(stat, 100), 3.0)

    def test_host_steal(self):
        stat = ("cpu  100 0 50 9000 10 0 5 250 0 0\n"
                "cpu0 25 0 12 2250 2 0 1 60 0 0\n")
        self.assertEqual(M.host_steal_seconds(stat, 100), 2.5)

    def test_peak_rss(self):
        status = "Name:\tmodbd\nVmPeak:\t 900000 kB\nVmHWM:\t   20480 kB\n"
        self.assertEqual(M.proc_peak_rss_mb(status), 20.0)

    def test_missing_peak_rss_is_an_error(self):
        with self.assertRaises(ValueError):
            M.proc_peak_rss_mb("Name:\tmodbd\n")


class ExecStatsTest(unittest.TestCase):
    JOIN = json.dumps({
        "op": "pipeline", "index_candidates": 40, "index_hits": 10,
        "units_scanned": 2000, "wall_ns": 8000000,
        "children": [{"op": "scan"}, {"op": "join_probe",
                                       "index_candidates": 40}]})

    def test_root_wall_time(self):
        trees = [json.dumps({"op": "window_aggregate", "wall_ns": n})
                 for n in (1000000, 3000000, 2000000)]
        self.assertEqual(M.exec_root_ms(trees), 2.0)
        self.assertIsNone(M.exec_root_ms([]))

    def test_join_counters_come_from_the_root(self):
        j = M.index_counters([self.JOIN, self.JOIN])
        self.assertEqual(j["candidates_per_query"], 40)
        self.assertEqual(j["hits_per_query"], 10)
        self.assertEqual(j["units_scanned_per_query"], 2000)
        self.assertEqual(j["hit_ratio"], 0.25)
        self.assertEqual(j["refine_us_per_candidate"], 200.0)

    def test_join_without_candidates_has_no_ratio(self):
        tree = json.dumps({"op": "pipeline", "units_scanned": 5})
        j = M.index_counters([tree])
        self.assertNotIn("hit_ratio", j)
        self.assertEqual(j["candidates_per_query"], 0)
        self.assertEqual(j["units_scanned_per_query"], 5)


def span(name, kind, parent, start, end, work=0):
    return {"name": name, "kind": kind, "parent": parent, "req": 1,
            "start_ns": start, "end_ns": end, "work": work}


class SpanTest(unittest.TestCase):
    SPANS = [
        span("request", "select", -1, 0, 1000),
        span("serve.decode", "select", 0, 10, 110),
        span("db.run", "select", 0, 110, 810),
        span("serve.encode", "select", 0, 810, 960),
    ]

    def test_self_time_subtracts_children(self):
        self.assertEqual(M.self_times(self.SPANS), [50, 100, 700, 150])

    def test_layer_medians_by_kind(self):
        layers = M.layer_self_ms(self.SPANS)
        self.assertAlmostEqual(layers[("select", "db.run")], 0.0007)
        self.assertAlmostEqual(layers[("select", "request")], 0.00005)

    def test_unattributed_share(self):
        self.assertAlmostEqual(M.unattributed_share([0.2, 0.5, 0.1], 1.0), 0.2)

    def test_work_normalised_duration(self):
        spans = [span("temporal.atinstant", "atinstant", -1, 0, 5000, 100),
                 span("temporal.atinstant", "atinstant", -1, 0, 7000, 100),
                 span("temporal.atinstant", "atinstant", -1, 0, 6000, 100)]
        self.assertEqual(M.per_work_ns(spans, "temporal.atinstant"), 60.0)
        self.assertIsNone(M.per_work_ns(spans, "temporal.present"))


if __name__ == "__main__":
    unittest.main()
