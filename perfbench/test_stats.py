"""Unit tests of the benchmark's own statistics (perfbench/stats.py).

    python3 -m unittest discover -s perfbench
"""

import math
import statistics
import unittest

import stats


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        r = stats.percentile_rule(list(range(1, 1001)), 99.0)
        self.assertEqual((r["pct"], r["value"], r["n"]), (99.0, 990, 1000))

    def test_falls_back_to_highest_supported_percentile(self):
        r = stats.percentile_rule(list(range(1, 1000)), 99.0)  # 9 beyond p99
        self.assertEqual((r["pct"], r["value"]), (95.0, 950))
        r = stats.percentile_rule(list(range(1, 41)), 99.0)
        self.assertEqual((r["pct"], r["value"]), (75.0, 30))

    def test_never_reports_above_the_wanted_percentile(self):
        r = stats.percentile_rule(list(range(100000)), 50.0)
        self.assertEqual(r["pct"], 50.0)

    def test_too_few_samples(self):
        r = stats.percentile_rule([1.0] * 15, 99.0)
        self.assertIsNone(r["pct"])
        self.assertIsNone(r["value"])
        self.assertEqual(r["n"], 15)
        self.assertIsNone(stats.percentile_rule([], 99.0)["value"])

    def test_failures_count_as_misses(self):
        values = [1.0] * 985 + [math.inf] * 15
        self.assertEqual(stats.percentile_rule(values, 99.0)["value"], math.inf)
        self.assertEqual(stats.percentile_rule(values, 95.0)["value"], 1.0)

    def test_order_does_not_matter(self):
        values = [float((i * 7919) % 1000) for i in range(1000)]
        self.assertEqual(stats.percentile_rule(values, 99.0),
                         stats.percentile_rule(sorted(values), 99.0))


class MedianIqr(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        r = stats.median_iqr(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(r["median"], 3.0)
        self.assertAlmostEqual(r["iqr_frac"], (q3 - q1) / 3.0)
        self.assertAlmostEqual(r["iqr_frac"], 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.median_iqr([2.5] * 10)["iqr_frac"], 0.0)

    def test_single_value(self):
        r = stats.median_iqr([4.0])
        self.assertEqual((r["median"], r["iqr_frac"], r["n"]), (4.0, 0.0, 1))


class PoissonSchedule(unittest.TestCase):
    ARGS = dict(rates=[100, 400], durations_s=[2.0, 1.0], tenants=4,
                models=["a", "b"], small=100, large=2500, large_frac=0.05)

    def test_same_seed_same_schedule(self):
        self.assertEqual(stats.poisson_schedule(7, **self.ARGS),
                         stats.poisson_schedule(7, **self.ARGS))

    def test_different_seed_different_schedule(self):
        self.assertNotEqual(stats.poisson_schedule(7, **self.ARGS),
                            stats.poisson_schedule(8, **self.ARGS))

    def test_steps_rates_and_sizes(self):
        jobs = stats.poisson_schedule(3, **self.ARGS)
        due = [j["due_ms"] for j in jobs]
        self.assertEqual(due, sorted(due))
        per_step = [sum(1 for j in jobs if j["step"] == k) for k in (0, 1)]
        # 200 and 400 expected; Poisson counts stay within ~5 sigma.
        self.assertLess(abs(per_step[0] - 200), 5 * math.sqrt(200))
        self.assertLess(abs(per_step[1] - 400), 5 * math.sqrt(400))
        for j in jobs:
            lo, hi = (0.0, 2000.0) if j["step"] == 0 else (2000.0, 3000.0)
            self.assertTrue(lo <= j["due_ms"] < hi)
            self.assertIn(j["n"], (100, 2500))
            self.assertIn(j["tenant"], ("t0", "t1", "t2", "t3"))
            self.assertIn(j["model"], ("a", "b"))
        large = sum(1 for j in jobs if j["n"] == 2500)
        self.assertTrue(0 < large < 0.15 * len(jobs))

    def test_step_bounds(self):
        self.assertEqual(stats.step_bounds([1.0, 5.0, 2.0]),
                         [(0.0, 1.0), (1.0, 6.0), (6.0, 8.0)])


class Lateness(unittest.TestCase):
    def test_lateness(self):
        self.assertEqual(stats.lateness_ms([0.0, 10.0, 20.0], [0.5, 9.0, 23.0]),
                         [0.5, 0.0, 3.0])


def span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start": start,
            "end": end}


class SpanSelfTime(unittest.TestCase):
    def test_nested_and_concurrent_children(self):
        spans = [
            span(1, -1, "run", 0.0, 10.0),
            span(2, 1, "a", 1.0, 4.0),
            span(3, 2, "a.inner", 2.0, 3.0),
            span(4, 1, "b", 5.0, 9.0),
            span(5, 4, "b.task", 5.0, 8.0),  # two tasks on two threads
            span(6, 4, "b.task", 6.0, 9.0),
            span(7, -1, "elsewhere", 0.0, 100.0),  # not under the root
        ]
        got = stats.attribute(spans, 1)
        self.assertEqual(got, {"a.inner": 1.0, "a": 2.0, "b.task": 4.0,
                               "b": 0.0, "unattributed": 3.0})
        self.assertAlmostEqual(sum(got.values()), 10.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, -1, "run", 0.0, 2.0), span(2, 1, "late", 1.5, 3.0)]
        got = stats.attribute(spans, 1)
        self.assertAlmostEqual(got["unattributed"], 1.5)

    def test_repeated_names_accumulate(self):
        spans = [span(1, -1, "run", 0.0, 4.0), span(2, 1, "x", 0.0, 1.0),
                 span(3, 1, "x", 2.0, 3.0)]
        self.assertEqual(stats.attribute(spans, 1),
                         {"x": 2.0, "unattributed": 2.0})


if __name__ == "__main__":
    unittest.main()
