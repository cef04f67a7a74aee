"""Tests of the benchmark's own logic: statistics, span self time, result
checking and the run orchestration (against tests/fake_driver.py).

    python3 -m unittest discover -s perfbench/tests
"""
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402
import run  # noqa: E402


class TailLatencyTest(unittest.TestCase):
    def test_eleventh_largest_has_ten_beyond(self):
        value, percentile, n = run.tail_latency(list(range(1, 101)))
        self.assertEqual(value, 90)
        self.assertEqual(percentile, 90.0)
        self.assertEqual(n, 100)
        self.assertEqual(sum(1 for x in range(1, 101) if x > value), 10)

    def test_order_of_samples_does_not_matter(self):
        samples = [5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 0]
        value, percentile, _ = run.tail_latency(samples)
        self.assertEqual(value, 1)
        self.assertAlmostEqual(percentile, 100 * 2 / 12)

    def test_fewer_than_eleven_samples_have_no_tail(self):
        self.assertIsNone(run.tail_latency(list(range(10))))
        self.assertEqual(run.tail_latency(list(range(11)))[0], 0)


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_are_counted_once(self):
        spans = [
            {"id": 0, "parent": -1, "begin_us": 0.0, "end_us": 100.0},
            {"id": 1, "parent": 0, "begin_us": 10.0, "end_us": 40.0},
            {"id": 2, "parent": 0, "begin_us": 30.0, "end_us": 60.0},
            # Sticks out past the parent's end: only 90..100 is covered.
            {"id": 3, "parent": 0, "begin_us": 90.0, "end_us": 120.0},
            {"id": 4, "parent": 1, "begin_us": 15.0, "end_us": 20.0},
        ]
        own = run.self_times(spans)
        self.assertAlmostEqual(own[0], 100.0 - 50.0 - 10.0)
        self.assertAlmostEqual(own[1], 30.0 - 5.0)
        self.assertAlmostEqual(own[2], 30.0)
        self.assertAlmostEqual(own[4], 5.0)

    def test_nested_child_inside_another_child(self):
        spans = [
            {"id": 0, "parent": -1, "begin_us": 0.0, "end_us": 10.0},
            {"id": 1, "parent": 0, "begin_us": 2.0, "end_us": 8.0},
            {"id": 2, "parent": 0, "begin_us": 3.0, "end_us": 4.0},
        ]
        self.assertAlmostEqual(run.self_times(spans)[0], 4.0)


class ResultCheckTest(unittest.TestCase):
    COUNTS = [34068, 6042, 230811]
    # Four calls per instance, CPU times alternating 100/300 ms (Q4),
    # 200/600 ms (Q5) and 300/900 ms (Q6); wall times a tenth of those.
    RAW = {"queries": ["Q4", "Q5", "Q6"], "setup_s": [0.3, 0.1, 0.2],
           "setup_cpu_s": [0.6, 0.2, 0.4],
           "loop_s": 2.0, "setup_peak_rss_bytes": 2.0 ** 20,
           "peak_rss_bytes": 2.0 ** 21,
           "untimed": COUNTS,
           "samples": [[i % 3, 0.01 * (i % 3 + 1) * (1 + 2 * (i // 3 % 2)),
                        0.1 * (i % 3 + 1) * (1 + 2 * (i // 3 % 2)),
                        [34068, 6042, 230811][i % 3]] for i in range(12)]}

    def test_error_rate_counts_a_wrong_match_count(self):
        raw = json.loads(json.dumps(self.RAW))
        raw["samples"][4][3] = 6041  # a deliberately wrong Q5 count
        raw["samples"][7][3] = -1    # a failed call
        metrics, detail = run.end_to_end(raw, ["Q4", "Q5", "Q6"],
                                         raw["untimed"])
        self.assertEqual(detail["failed"], 2)
        self.assertEqual(detail["attempted"], 12)
        self.assertAlmostEqual(detail["error_rate"], 2 / 12)
        self.assertAlmostEqual(detail["qps"], 10 / 2.0)

    def test_correct_run(self):
        metrics, detail = run.end_to_end(self.RAW, ["Q4", "Q5", "Q6"],
                                         self.RAW["untimed"])
        self.assertEqual(detail["error_rate"], 0)
        self.assertAlmostEqual(metrics["setup_s"], 0.4)
        self.assertAlmostEqual(detail["setup_wall_s"], 0.2)
        # Per instance the median of its calls: 200, 400 and 600 ms.
        self.assertAlmostEqual(metrics["q_first_cpu_ms"], 200.0)
        self.assertAlmostEqual(metrics["q_last_cpu_ms"], 600.0)
        self.assertAlmostEqual(metrics["cpu_ms_per_query"], 400.0)
        self.assertAlmostEqual(detail["p50_ms"]["Q6"], 60.0)
        self.assertAlmostEqual(metrics["setup_rss_mb"], 1.0)
        self.assertAlmostEqual(detail["peak_rss_mb"], 2.0)

    def test_every_instance_counts_once(self):
        # A second Q4 instance with a single 1 s call: Q4's figure is the
        # mean of the two instances' medians, not the median of all calls.
        raw = json.loads(json.dumps(self.RAW))
        raw["samples"].append([3, 0.1, 1.0, 34068])
        raw["queries"].append("Q4")
        metrics, _ = run.end_to_end(raw, ["Q4", "Q5", "Q6"],
                                    self.COUNTS + [34068])
        self.assertAlmostEqual(metrics["q_first_cpu_ms"], 600.0)
        self.assertAlmostEqual(metrics["cpu_ms_per_query"], 550.0)

    def test_cross_checked_reference_needs_both_engines_to_agree(self):
        cycle = ["Q2:Jan", "Q3:Jan"]
        reference, problem = run.references("paths", 7, cycle, [1, 2], [1, 3])
        self.assertIsNone(reference)
        self.assertIn("disagree", problem)
        self.assertEqual(run.references("paths", 7, cycle, [1, 2], [1, 2]),
                         ([1, 2], None))

    def test_pinned_reference_at_seed_42(self):
        reference, problem = run.references(
            "analytic", 42, ["Q4", "Q5", "Q6"], [0, 0, 0], None)
        self.assertEqual(reference, [34068, 6042, 230811])
        self.assertIsNone(problem)


class NamePoolTest(unittest.TestCase):
    TARGETS = {"messages": 100, "q3_rows": 1000}

    @staticmethod
    def names(pairs):
        return {"first_names": [
            {"name": "N%02d" % i, "persons": 10, "messages": m, "q3_rows": q}
            for i, (m, q) in enumerate(pairs)]}

    def test_closest_names_lead(self):
        pairs = [(100, 1000)] * 6 + [(10 ** 4, 1000), (100, 10 ** 6)] + \
            [(1000, 10 ** 5)] * 4
        pool = run.name_pool(self.names(pairs), 4, self.TARGETS)
        self.assertEqual(pool, ["N00", "N01", "N02", "N03"])

    def test_swaps_bring_the_sum_to_the_targets(self):
        # The four closest names are all 25 % heavy; two 25 % light ones
        # swapped in make the sums exact.
        pairs = [(125, 1250)] * 4 + [(75, 750)] * 2 + [(200, 2000)] * 6
        pool = run.name_pool(self.names(pairs), 4, self.TARGETS)
        self.assertEqual(sorted(pool), ["N02", "N03", "N04", "N05"])

    def test_too_few_names(self):
        with self.assertRaises(run.StepError):
            run.name_pool(self.names([(100, 1000)] * 11), 4, self.TARGETS)


class OrchestrationTest(unittest.TestCase):
    """run.main against the fake driver: no build, no real engine."""

    def setUp(self):
        self.work = tempfile.mkdtemp()
        patches = [
            mock.patch.object(run, "build", lambda: None),
            mock.patch.object(run, "BINARY",
                              os.path.join(HERE, "fake_driver.py")),
            mock.patch.object(run, "WORK", self.work),
            mock.patch.object(run, "GRAPHS", os.path.join(self.work, "g")),
            mock.patch.object(run, "RUNS", os.path.join(self.work, "r")),
            mock.patch.object(run, "TRACES", os.path.join(self.work, "t")),
        ]
        for p in patches:
            p.start()
            self.addCleanup(p.stop)
        self.addCleanup(shutil.rmtree, self.work)

    def main(self, *args, **env):
        out = io.StringIO()
        with mock.patch.dict(os.environ, env), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "analytic", "--seed", "42",
                             "--seconds", "1"] + list(args))
        return code, out.getvalue().strip().splitlines()

    def test_setup_s_excludes_generation(self):
        code, lines = self.main("--trace", "1", FAKE_GENERATE_S="0.3",
                                FAKE_SETUP_S="0.05")
        self.assertEqual(code, 0)
        metrics = json.loads(lines[-1])["metrics"]
        self.assertGreaterEqual(metrics["ldbc.generate_s"]["value"], 0.3)
        code, lines = self.main(FAKE_GENERATE_S="0.3", FAKE_SETUP_S="0.05")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertAlmostEqual(result["metrics"]["setup_s"]["value"], 0.05)
        self.assertTrue(result["correct"])

    def test_other_engine_checks_unpinned_seeds(self):
        code, lines = self.main("--seed", "7")
        self.assertEqual(code, 0)
        self.assertTrue(json.loads(lines[-1])["correct"])
        code, lines = self.main("--seed", "7", FAKE_BATCH_OFF_BY_ONE="1")
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(lines[-1])["correct"])

    def test_wrong_count_fails_the_run(self):
        code, lines = self.main(FAKE_WRONG_SAMPLE="4")
        self.assertEqual(code, 1)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 30)

    def test_prints_every_declared_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = self.main("--trace", str(trace))
            self.assertEqual(code, 0)
            result = json.loads(lines[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(list(result["metrics"]),
                             [m["name"] for m in bench[key]])
            for m in bench[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"],
                                 m["unit"])
                self.assertIn(m["name"], "\n".join(lines[:-1]))


class CompareTest(unittest.TestCase):
    QPS = {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}

    def test_regression_beyond_bound(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [x * 0.8 for x in base]
        result, wins, _ = compare.verdict(self.QPS, base, new,
                                          list(zip(base, new)))
        self.assertEqual(result, "worse")
        self.assertEqual(wins, 0)

    def test_gain_needs_nine_tenths_of_pairs(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [x * 1.05 for x in base]
        self.assertEqual(compare.verdict(self.QPS, base, new,
                                         list(zip(base, new)))[0], "gain")

    def test_wide_spread_is_unresolved(self):
        base = [70, 130, 100, 80, 120, 90, 110, 100, 60, 140]
        new = list(reversed(base))
        self.assertEqual(compare.verdict(self.QPS, base, new,
                                         list(zip(base, new)))[0],
                         "unresolved")

    def test_within_bound_is_ok(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [99, 102, 100, 98, 101, 100, 99, 100, 101, 100]
        self.assertEqual(compare.verdict(self.QPS, base, new,
                                         list(zip(base, new)))[0], "ok")


if __name__ == "__main__":
    unittest.main()
