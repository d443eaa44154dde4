"""The streaming error reduction behind every verification report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmcsurf.errors import EmptyGrid
from zmcsurf.report import BroadcastRows, ErrorStats, VerificationReport


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


# ---------------------------------------------------------------------------
# add_many: the array form of add
# ---------------------------------------------------------------------------

_errors = st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.nan, 1e-16]),
                             st.floats(0.0, 10.0)), max_size=12)


def _bits(stats):
    worst = stats.worst and {k: repr(v) for k, v in stats.worst.items()}
    return stats.count, repr(stats.max), repr(stats.mean), worst


@settings(max_examples=300, deadline=None)
@given(batches=st.lists(_errors, max_size=4))
def test_add_many_equals_a_loop_of_add(batches):
    looped, batched = ErrorStats(), ErrorStats()
    k = 0
    for batch in batches:
        coords = [(k + i, -(k + i)) for i in range(len(batch))]
        lhs = [0.5 * (k + i) for i in range(len(batch))]
        for err, xy, value in zip(batch, coords, lhs):
            looped.add(err, xy, value, -value)
        batched.add_many(np.array(batch, dtype=float), coords, np.array(lhs),
                         -np.array(lhs))
        k += len(batch)
    assert _bits(batched) == _bits(looped)


def test_add_many_keeps_the_first_of_tied_maxima_and_the_first_nan():
    stats = ErrorStats()
    stats.add_many(np.array([1.0, 3.0, 3.0]), np.arange(6.0).reshape(3, 2), 7.0)
    assert stats.worst == {"coords": [2.0, 3.0], "lhs": 7.0, "rhs": 0.0}
    stats.add_many(np.array([3.0, math.nan, math.nan]), np.arange(6.0, 12.0).reshape(3, 2), 7.0)
    assert math.isnan(stats.max) and stats.worst["coords"] == [8.0, 9.0] and stats.count == 6
    stats.add_many(np.array([]), [], 0.0)
    assert stats.count == 6 and math.isnan(stats.mean)


@pytest.mark.parametrize("columns, shape", [
    ((np.arange(5.0)[:, None], np.arange(10.0, 13.0)[None, :]), ()),    # lattice axes
    ((np.arange(4.0), -np.arange(4.0)), ()),                            # 1-d points
    ((np.arange(3.0)[:, None], -np.arange(3.0)[:, None]), (3, 2)),      # a row per leaf
    ((np.array([1 + 2j, -0.0j]), np.array([0.5, -0.0])), ()),
])
def test_broadcast_rows_are_the_rows_of_the_stacked_table(columns, shape):
    rows = BroadcastRows(*columns, shape=shape)
    flat = [np.broadcast_to(c, np.broadcast_shapes(shape, *map(np.shape, columns))).reshape(-1)
            for c in columns]
    table = list(zip(*(f.tolist() for f in flat)))
    assert [repr(rows[k]) for k in range(len(table))] == [repr(row) for row in table]
    with pytest.raises(ValueError):
        rows[len(table)]


def test_add_many_takes_broadcast_rows_as_coordinates():
    u, v = np.array([[0.0], [0.5]]), np.array([[1.0, 2.0, 3.0]])
    rows, table = ErrorStats(), ErrorStats()
    err = np.array([0.1, 0.2, 0.9, 0.4, 0.9, 0.3])
    rows.add_many(err, BroadcastRows(u, v), 7.0)
    table.add_many(err, np.column_stack([np.repeat(u, 3), np.tile(v.reshape(-1), 2)]), 7.0)
    assert _bits(rows) == _bits(table)
    assert rows.worst["coords"] == [0.0, 3.0]


_FIELDS = {"subject": "check", "parameters": {}, "grid": None, "policy": "principal",
           "tolerance": 1.0}


def test_report_of_stats_carries_count_max_mean_and_worst_point():
    report = VerificationReport.of(_stats([0.5, 2.0, 1.0]), **_FIELDS)
    assert (report.points_checked, report.max_abs_err, report.mean_abs_err) == (3, 2.0, 3.5 / 3)
    assert report.worst_point == {"coords": [1, 0], "lhs": 2.0, "rhs": 0.0}
    assert report.passed is False


def test_a_report_that_checked_nothing_is_empty():
    with pytest.raises(EmptyGrid, match="check: no points checked"):
        VerificationReport.of(ErrorStats(), **_FIELDS)
