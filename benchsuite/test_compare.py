"""Verdicts of compare.py on synthetic run lists.

    cd benchsuite && python3 -m unittest -v test_compare
"""

import unittest

from compare import verdict


def judge(base, change, lower_is_better=True, bound=0.25):
    return verdict(base, change, lower_is_better, bound,
                   list(zip(base, change)))[0]


class Verdict(unittest.TestCase):
    def test_same_runs_are_within_bound(self):
        runs = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        self.assertEqual(judge(runs, list(runs)), "within bound")

    def test_clearly_faster_is_better(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        self.assertEqual(judge(base, [v / 2 for v in base]), "better")

    def test_slower_by_more_than_bound_is_worse(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        self.assertEqual(judge(base, [v * 1.5 for v in base]), "worse")

    def test_noisy_regression_is_still_worse(self):
        # Twice as slow, and the change also spreads far beyond the bound:
        # every change run is slower than every base run.
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        change = [20.0, 35.0, 21.0, 40.0, 22.0, 38.0, 25.0, 30.0, 21.5, 39.0]
        self.assertEqual(judge(base, change), "worse")

    def test_noisy_regression_on_a_higher_is_better_metric(self):
        base = [100.0, 98.0, 101.0, 99.0, 102.0, 100.5, 99.5, 100.0]
        change = [50.0, 30.0, 45.0, 25.0, 48.0, 28.0, 40.0, 35.0]
        self.assertEqual(judge(base, change, lower_is_better=False), "worse")

    def test_overlapping_noise_is_unresolved(self):
        base = [10.0, 14.0, 8.0, 13.0, 9.0, 15.0, 7.5, 12.0, 10.5, 14.5]
        change = [12.0, 16.0, 9.0, 15.0, 10.0, 17.0, 8.5, 14.0, 11.5, 16.5]
        self.assertEqual(judge(base, change), "unresolved")


if __name__ == "__main__":
    unittest.main()
