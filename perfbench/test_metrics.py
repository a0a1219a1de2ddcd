"""Tests for the benchmark's arithmetic.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import unittest

import metrics

GOOD_LINE = (
    "rh-submit: id=job-3 hash=0x82e4049f61a95d60 seed=103 cached=false "
    "coalesced=false cache_hits=0 executed=124 checkpointed=0 ckpt_skipped=0 "
    "speculations=0 duplicates=2 evictions=0 queue_depth=0 queue_wait_ms=7 "
    "rejected=0 auth_failures=0 cancelled=0 "
    "workers=local-0:avx2(120),local-1:scalar(4)\n"
)


class PercentileRule(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])

    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(xs, 0.5), 50)
        self.assertEqual(metrics.percentile(xs, 0.9), 90)
        self.assertEqual(metrics.percentile(xs, 1.0), 100)
        self.assertEqual(metrics.percentile([7], 0.9), 7)
        self.assertEqual(metrics.percentile(list(reversed(xs)), 0.9), 90)

    def test_rejects_bad_share(self):
        for q in (0, -0.1, 1.5):
            with self.assertRaises(ValueError):
                metrics.percentile([1, 2], q)

    def test_p90_needs_a_hundred_samples(self):
        # Ten samples beyond p90 needs n - ceil(0.9 n) >= 10.
        self.assertEqual(metrics.samples_beyond(100, 0.9), 10)
        self.assertTrue(metrics.percentile_supported(100, 0.9))
        self.assertEqual(metrics.samples_beyond(99, 0.9), 9)
        self.assertFalse(metrics.percentile_supported(99, 0.9))
        self.assertFalse(metrics.percentile_supported(13, 0.9))
        self.assertTrue(metrics.percentile_supported(20, 0.5))
        self.assertFalse(metrics.percentile_supported(19, 0.5))


class SubmitLine(unittest.TestCase):
    def test_parses_every_field(self):
        rec = metrics.parse_submit_line(GOOD_LINE)
        self.assertEqual(rec["id"], "job-3")
        self.assertEqual(rec["seed"], 103)
        self.assertIs(rec["cached"], False)
        self.assertEqual(rec["executed"], 124)
        self.assertEqual(rec["duplicates"], 2)
        self.assertEqual(rec["queue_wait_ms"], 7)
        self.assertEqual(rec["workers"], {"local-0": 120, "local-1": 4})

    def test_cache_hit_has_no_workers(self):
        line = GOOD_LINE.replace("cached=false", "cached=true").replace(
            "workers=local-0:avx2(120),local-1:scalar(4)", "workers="
        )
        rec = metrics.parse_submit_line(line)
        self.assertIs(rec["cached"], True)
        self.assertEqual(rec["workers"], {})

    def test_format_changes_fail_loudly(self):
        broken = [
            GOOD_LINE.replace("rh-submit: ", "rh-submit "),
            GOOD_LINE.replace("queue_wait_ms=7", "queue_wait=7"),
            GOOD_LINE.replace(" duplicates=2", ""),
            GOOD_LINE.replace("cancelled=0", "cancelled=0 new_counter=5"),
            GOOD_LINE.replace("executed=124", "executed=many"),
            GOOD_LINE.replace("cached=false", "cached=no"),
            GOOD_LINE.replace("local-1:scalar(4)", "local-1:scalar"),
            GOOD_LINE.replace("seed=103", "seed"),
        ]
        for line in broken:
            with self.assertRaises(ValueError, msg=line):
                metrics.parse_submit_line(line)


class DerivedRatios(unittest.TestCase):
    def test_max_worker_share(self):
        self.assertEqual(metrics.max_worker_share({"a": 62, "b": 62}), 0.5)
        self.assertAlmostEqual(
            metrics.max_worker_share({"a": 120, "b": 4}), 120 / 124
        )
        self.assertEqual(metrics.max_worker_share({"a": 5}), 1.0)
        with self.assertRaises(ValueError):
            metrics.max_worker_share({"a": 0, "b": 0})

    def test_exec_efficiency(self):
        self.assertEqual(metrics.exec_efficiency(4.0, 2, 2.0), 1.0)
        self.assertEqual(metrics.exec_efficiency(3.0, 2, 2.0), 0.75)
        self.assertEqual(metrics.exec_efficiency(1.0, 1, 2.0), 0.5)
        with self.assertRaises(ValueError):
            metrics.exec_efficiency(1.0, 0, 1.0)
        with self.assertRaises(ValueError):
            metrics.exec_efficiency(1.0, 2, 0.0)

    def test_round_robin_deal(self):
        self.assertEqual(metrics.round_robin_shares(124, 2), {0: 62, 1: 62})
        self.assertEqual(metrics.round_robin_shares(5, 2), {0: 3, 1: 2})
        self.assertEqual(metrics.round_robin_shares(1, 4), {0: 1})
        waits, wall = metrics.round_robin_waits([1.0, 2.0, 3.0, 4.0, 5.0], 2)
        self.assertEqual(waits, [0.0, 0.0, 1.0, 2.0, 4.0])
        self.assertEqual(wall, 9.0)


class HostSpeed(unittest.TestCase):
    def test_factor_is_reference_over_median_sample(self):
        self.assertEqual(metrics.speed_factor([0.24, 0.24, 0.25], 0.12), 0.5)
        self.assertEqual(metrics.speed_factor([0.1, 0.12, 9.0], 0.12), 1.0)
        self.assertEqual(
            metrics.speed_factor([metrics.CALIB_REF_S]), 1.0)
        with self.assertRaises(ValueError):
            metrics.speed_factor([])


if __name__ == "__main__":
    unittest.main()
