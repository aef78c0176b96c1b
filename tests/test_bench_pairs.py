"""The verdicts of tools/bench_pairs.py on synthetic paired samples."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import quartiles, verdict, wins  # noqa: E402

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]  # IQR 0.2 on 10.0


def test_quartiles_are_exclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)


@pytest.mark.parametrize("change, better, want", [
    # every pair won by far more than the parent's IQR
    ([p - 1.0 for p in PARENT], "lower", "gain"),
    ([p + 1.0 for p in PARENT], "higher", "gain"),
    # 8 of 10 pairs won: no gain, however large the gap
    ([p - 1.0 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]], "lower", "unchanged"),
    # 10 of 10 won, by less than the parent's IQR
    ([p - 0.05 for p in PARENT], "lower", "unchanged"),
    # a median 30% worse against a bound of 25%, either direction
    ([p * 1.3 for p in PARENT], "lower", "worse"),
    ([p * 0.7 for p in PARENT], "higher", "worse"),
    # 20% worse is within the bound
    ([p * 1.2 for p in PARENT], "lower", "unchanged"),
])
def test_verdict_on_a_tight_parent(change, better, want):
    assert verdict(PARENT, change, better, 0.25) == want


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [6.0, 14.0, 7.0, 13.0, 10.0, 8.0, 12.0, 10.0, 9.0, 11.0]  # IQR 4.5 on 10.0
    # equal medians, 10% worse, and a win in every pair smaller than the IQR
    for change in (parent, [p * 1.1 for p in parent], [p - 1.0 for p in parent]):
        assert verdict(parent, change, "lower", 0.25) == "unresolved"
    assert verdict(parent, [p * 1.3 for p in parent], "lower", 0.25) == "worse"
    # every run of the change better than every run of the parent, by a
    # median gap larger and then smaller than the IQR
    assert verdict(parent, [5.0 - 0.01 * i for i in range(10)], "lower", 0.25) == "gain"
    assert verdict(parent, [5.9 - 0.01 * i for i in range(10)], "lower", 0.25) == "unchanged"
    # 9 of 10 pairs won, but one run of the change is the slowest of all
    assert verdict(parent, [5.9] * 9 + [16.0], "lower", 0.25) == "unresolved"


def test_ties_count_for_neither_side():
    assert wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "lower") == 1
    assert wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "higher") == 1
