"""Tests for perfbench/stats.py: python3 -m unittest discover -s perfbench -p 'test_*.py'"""
import unittest

import stats


class QuartileTest(unittest.TestCase):
    def test_matches_exclusive_method_on_ten_values(self):
        values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        # statistics.quantiles' default "exclusive" method: positions
        # (n + 1) * i / 4 = 2.75, 5.5, 8.25 in the sorted values 1..10.
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([10, 1, 9, 2, 8, 3, 7, 4, 6, 5]),
                               (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([3.0] * 10), 0.0)
        self.assertEqual(stats.max_deviation([3.0] * 10), 0.0)

    def test_max_deviation(self):
        self.assertAlmostEqual(stats.max_deviation([9, 10, 10, 10, 13]), 0.3)

    def test_worsening_respects_direction(self):
        self.assertAlmostEqual(stats.worsening([10, 10, 10], [12, 12, 12], "lower"), 0.2)
        self.assertAlmostEqual(stats.worsening([10, 10, 10], [12, 12, 12], "higher"), -0.2)


if __name__ == "__main__":
    unittest.main()
