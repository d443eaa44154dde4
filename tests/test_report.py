"""The one error reduction behind every verification report, and its JSON text."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_verification_suite import suite
from zmcsurf.errors import EmptyGrid
from zmcsurf.meshio import GridSpec
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


_U, _V = np.linspace(-1.0, 1.0, 4)[:, None], np.linspace(0.5, 2.0, 3)[None, :]


@pytest.mark.parametrize("shape, side", [
    ((12,), 0.25),
    ((12,), np.float64(-0.0)),
    ((12,), np.array(1.5 - 2j)),
    ((12,), np.arange(12.0) - 5.5),
    ((12,), np.exp(1j * np.arange(12.0))),
    ((4, 3), _U * _V),
    ((4, 3), _U),
    ((4, 3), _V),
    ((4, 3), _V.reshape(-1)),
    ((4, 3), _U + 1j * _V),
    ((4, 3), 1j * _V),
], ids=["number", "0-d", "0-d-complex", "flat", "flat-complex", "lattice", "u-axis", "v-axis",
        "v-trailing", "lattice-complex", "v-axis-complex"])
def test_worst_point_sides_are_the_broadcast_entries(shape, side):
    rows = BroadcastRows(np.zeros(shape))
    for i in range(math.prod(shape)):
        err = np.zeros(shape)
        err.flat[i] = 1.0
        point = reduce_errors(err, rows, side, side)["worst_point"]
        want = repr(np.broadcast_to(side, shape).flat[i].item())  # the broadcast read
        assert (repr(point["lhs"]), repr(point["rhs"])) == (want, want), i


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


def _reference_jsonable(value):
    """The report fields as the JSON values that ``json.dumps`` writes: with
    it, the reference text that ``to_json`` must equal."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {str(k): _reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    if hasattr(value, "to_dict"):
        return _reference_jsonable(value.to_dict())
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return value


def _reference_json(report, include_timestamp):
    fields = {
        "schema": 1, "subject": report.subject,
        "parameters": _reference_jsonable(report.parameters),
        "grid": _reference_jsonable(report.grid) if report.grid is not None else None,
        "points_checked": int(report.points_checked),
        "max_abs_err": float(report.max_abs_err), "mean_abs_err": float(report.mean_abs_err),
        "worst_point": _reference_jsonable(report.worst_point) if report.worst_point else None,
        "policy": report.policy, "tolerance": float(report.tolerance), "pass": report.passed,
    }
    if include_timestamp:
        fields["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    return json.dumps(fields, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def frozen_clock(monkeypatch):
    """The clock stands still, so a timestamp written twice is the same."""
    now = time.gmtime()
    monkeypatch.setattr(time, "gmtime", lambda *_: now)


@pytest.mark.parametrize("tag, check, args, kwargs", suite.CHECKS,
                         ids=[tag for tag, *_ in suite.CHECKS])
def test_report_text_is_json_dumps_of_its_fields(tag, check, args, kwargs, frozen_clock):
    report = check(*args, **kwargs)
    for stamped in (True, False):
        text = report.to_json(stamped)
        assert text == _reference_json(report, stamped)
        assert report.to_dict(stamped) == json.loads(text)
    assert "timestamp" in report.to_dict() and "timestamp" not in report.to_dict(False)


_awkward_text = st.one_of(st.text(), st.sampled_from([
    '"quoted"', "back\\slash", "\x00\x01\x1f\x7f\n\t\r", "caf\u00e9 \u2713 \U0001d11e", "\ud800"]))
_awkward_float = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, 1e22, 1e16, 0.1, math.nan, math.inf, -math.inf]))
_int_grids = st.builds(GridSpec, st.integers(-5, 0), st.integers(1, 5), st.integers(-5, 0),
                       st.integers(1, 5), st.integers(2, 9), st.integers(2, 9))
_leaf = st.one_of(
    st.none(), st.booleans(), _awkward_text, _awkward_float,
    st.integers(), st.sampled_from([2**64, -(2**70), 10**30]),
    st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.complex_numbers(),
    st.sampled_from([complex(math.nan, 1.0), complex(-0.0, math.nan), complex(math.inf, -0.0)]),
    _int_grids)
_key = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none(),
                 st.sampled_from(["1", "True", "None"]))
_value = st.recursive(_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_key, inner, max_size=4)), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(parameters=st.dictionaries(_key, _value, max_size=5),
       worst_point=st.one_of(st.none(), st.dictionaries(_key, _value, max_size=4)),
       grid=st.one_of(st.none(), _int_grids))
def test_report_text_is_json_dumps_of_any_fields(parameters, worst_point, grid):
    report = VerificationReport("check \"x\"", parameters, grid, 3, 0.5, 0.25, worst_point,
                                "principal", 1.0)
    text = report.to_json(include_timestamp=False)
    assert text == _reference_json(report, include_timestamp=False)


def test_a_grid_with_int_bounds_keeps_them_ints():
    report = VerificationReport("check", {}, GridSpec(0, 1, -2, 2, 3, 3), 1, 0.0, 0.0, None,
                                "principal", 1.0)
    text = report.to_json(include_timestamp=False)
    assert '"u_max": 1,' in text and '"v_min": -2\n' in text
    assert '"parameters": {},' in text and '"worst_point": null\n' in text


@pytest.mark.parametrize("value, name", [(object(), "object"), ({1, 2}, "set"),
                                         (b"bytes", "bytes"), (np.datetime64("2020-01-01"), "date")])
def test_the_writer_names_the_type_it_cannot_write(value, name):
    report = VerificationReport("check", {"bad": [value]}, None, 1, 0.0, 0.0, None,
                                "principal", 1.0)
    with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
        report.to_json()
