"""Tail-percentile choice and the median/quartile summary."""

import pytest

from summary import describe, tail_percentile


@pytest.mark.parametrize("count, expected", [
    (10000, 99.9),  # exactly 10 samples above p99.9
    (9999, 99.0),
    (1000, 99.0),
    (999, 95.0),
    (200, 95.0),
    (100, 90.0),
    (40, 75.0),
    (20, 50.0),
    (19, None),
    (0, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_describe_reports_median_quartiles_and_count():
    s = describe([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s["median"] == 3.0
    assert s["count"] == 5
    assert s["q1"] <= s["median"] <= s["q3"]


def test_describe_single_sample():
    assert describe([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "count": 1}
