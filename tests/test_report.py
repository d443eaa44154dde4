"""The one error reduction behind every verification report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmcsurf.errors import EmptyGrid
from zmcsurf.report import BroadcastRows, VerificationReport, reduce_errors


class LoopStats:
    """The reference reduction: max / mean / worst point of errors added one
    point at a time.  The worst point is the first maximal error in ``add``
    order, a NaN counts as maximal (the first NaN stays the worst point), and
    the mean is the left-to-right float sum divided by ``count``."""

    def __init__(self):
        self.count, self.max, self.worst, self.total = 0, 0.0, None, 0.0

    def add(self, err, coords, lhs, rhs=0.0):
        self.count += 1
        self.total += err
        if err > self.max or self.worst is None or (err != err and self.max == self.max):
            self.max = err
            self.worst = {"coords": list(coords), "lhs": lhs, "rhs": rhs}

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def fields(self):
        """The report fields that ``reduce_errors`` returns."""
        return {"points_checked": self.count, "max_abs_err": self.max,
                "mean_abs_err": self.mean, "worst_point": self.worst}


def _reduce(errors):
    return reduce_errors(np.array(errors, dtype=float), [(k, 0) for k in range(len(errors))],
                         np.array(errors, dtype=float))


def test_empty_stats():
    assert reduce_errors(np.array([]), [], 0.0) == {
        "points_checked": 0, "max_abs_err": 0.0, "mean_abs_err": 0.0, "worst_point": None}


def test_first_maximal_error_is_the_worst_point():
    fields = _reduce([0.0, 2.0, 1.0, 2.0, 0.5])
    assert fields["points_checked"] == 5 and fields["max_abs_err"] == 2.0
    assert fields["worst_point"] == {"coords": [1, 0], "lhs": 2.0, "rhs": 0.0}
    assert _reduce([0.0, 0.0, 0.0])["worst_point"]["coords"] == [0, 0]


def test_first_nan_is_the_worst_point():
    fields = _reduce([1.0, math.nan, 5.0, math.nan])
    assert math.isnan(fields["max_abs_err"]) and math.isnan(fields["mean_abs_err"])
    assert fields["worst_point"]["coords"] == [1, 0]
    assert _reduce([math.nan, 1.0])["worst_point"]["coords"] == [0, 0]


def test_mean_is_the_left_to_right_float_sum():
    errors = [1.0, 1.1e-16, 1.1e-16]
    total = 0.0
    for err in errors:
        total += err
    assert total != math.fsum(errors)  # the order matters for these values
    assert _reduce(errors)["mean_abs_err"] == total / len(errors)


_errors = st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.nan, 1e-16]),
                             st.floats(0.0, 10.0)), max_size=40)


def _bits(fields):
    return {k: repr(v) for k, v in fields.items()}


@settings(max_examples=300, deadline=None)
@given(errors=_errors)
def test_reduction_equals_a_loop_over_points(errors):
    coords = [(k, -k) for k in range(len(errors))]
    lhs = [0.5 * k for k in range(len(errors))]
    looped = LoopStats()
    for err, xy, value in zip(errors, coords, lhs):
        looped.add(err, xy, value, -value)
    got = reduce_errors(np.array(errors, dtype=float), coords, np.array(lhs), -np.array(lhs))
    assert _bits(got) == _bits(looped.fields())


def test_reduction_keeps_the_first_of_tied_maxima_and_the_first_nan():
    rows = np.arange(12.0).reshape(6, 2)
    fields = reduce_errors(np.array([1.0, 3.0, 3.0, 2.0]), rows, 7.0)
    assert fields["worst_point"] == {"coords": [2.0, 3.0], "lhs": 7.0, "rhs": 0.0}
    fields = reduce_errors(np.array([1.0, 3.0, 3.0, math.nan, 3.0, math.nan]), rows, 7.0)
    assert math.isnan(fields["max_abs_err"]) and fields["worst_point"]["coords"] == [6.0, 7.0]
    assert fields["points_checked"] == 6 and math.isnan(fields["mean_abs_err"])


_LEAF = np.arange(3.0)[:, None]


@pytest.mark.parametrize("columns, shape", [
    ((np.arange(5.0)[:, None], np.arange(10.0, 13.0)[None, :]), (5, 3)),  # lattice axes
    ((np.arange(4.0), -np.arange(4.0)), (4,)),                              # 1-d points
    ((np.broadcast_to(_LEAF, (3, 2)), np.broadcast_to(-_LEAF, (3, 2))), (3, 2)),  # a row per leaf
    ((np.array([1 + 2j, -0.0j]), np.array([0.5, -0.0])), (2,)),
])
def test_broadcast_rows_are_the_rows_of_the_stacked_table(columns, shape):
    rows = BroadcastRows(*columns)
    table = list(zip(*(np.broadcast_to(c, shape).reshape(-1).tolist() for c in columns)))
    assert len(table) == math.prod(shape)
    assert [repr(rows[k]) for k in range(len(table))] == [repr(row) for row in table]
    with pytest.raises(ValueError):
        rows[len(table)]


def test_reduction_takes_broadcast_rows_as_coordinates():
    u, v = np.array([[0.0], [0.5]]), np.array([[1.0, 2.0, 3.0]])
    err = np.array([0.1, 0.2, 0.9, 0.4, 0.9, 0.3])
    rows = reduce_errors(err, BroadcastRows(u, v), 7.0)
    table = reduce_errors(err, np.column_stack([np.repeat(u, 3), np.tile(v.reshape(-1), 2)]), 7.0)
    assert _bits(rows) == _bits(table)
    assert rows["worst_point"]["coords"] == [0.0, 3.0]
    # An error array of the lattice's shape reduces in row-major order.
    assert _bits(reduce_errors(err.reshape(2, 3), BroadcastRows(u, v), 7.0)) == _bits(rows)


_FIELDS = {"subject": "check", "parameters": {}, "grid": None, "policy": "principal",
           "tolerance": 1.0}


def test_report_of_stats_carries_count_max_mean_and_worst_point():
    errors = np.array([0.5, 2.0, 1.0])
    report = VerificationReport.of(errors, [(k, 0) for k in range(3)], errors, **_FIELDS)
    assert (report.points_checked, report.max_abs_err, report.mean_abs_err) == (3, 2.0, 3.5 / 3)
    assert report.worst_point == {"coords": [1, 0], "lhs": 2.0, "rhs": 0.0}
    assert report.passed is False


def test_a_report_that_checked_nothing_is_empty():
    with pytest.raises(EmptyGrid, match="check: no points checked"):
        VerificationReport.of(np.array([]), [], 0.0, **_FIELDS)
