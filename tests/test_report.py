"""The streaming error reduction behind every verification report."""

import math

from zmcsurf.report import ErrorStats


def _stats(errors):
    stats = ErrorStats()
    for k, err in enumerate(errors):
        stats.add(err, (k, 0), err)
    return stats


def test_empty_stats():
    stats = ErrorStats()
    assert (stats.count, stats.max, stats.mean, stats.worst) == (0, 0.0, 0.0, None)


def test_first_maximal_error_is_the_worst_point():
    stats = _stats([0.0, 2.0, 1.0, 2.0, 0.5])
    assert stats.count == 5 and stats.max == 2.0
    assert stats.worst == {"coords": [1, 0], "lhs": 2.0, "rhs": 0.0}
    assert _stats([0.0, 0.0, 0.0]).worst["coords"] == [0, 0]


def test_first_nan_is_the_worst_point():
    stats = _stats([1.0, math.nan, 5.0, math.nan])
    assert math.isnan(stats.max) and math.isnan(stats.mean)
    assert stats.worst["coords"] == [1, 0]
    assert _stats([math.nan, 1.0]).worst["coords"] == [0, 0]


def test_mean_is_the_left_to_right_float_sum():
    errors = [1.0, 1.1e-16, 1.1e-16]
    total = 0.0
    for err in errors:
        total += err
    assert total != math.fsum(errors)  # the order matters for these values
    assert _stats(errors).mean == total / len(errors)
