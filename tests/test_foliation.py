"""The shifted-helicoid leaf family: continuity, coverage, disjointness."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_meshio_arrays import _EXTREME_BOUNDS
from test_verification_suite import suite

from zmcsurf import foliation, zmc
from zmcsurf.catalog import HeightSurface
from zmcsurf.errors import DomainViolation, EmptyGrid
from zmcsurf.foliation import (
    MAX_BOUNDARIES,
    ROUNDTRIP_TOLERANCE,
    TWO_PI,
    ExcludedPoint,
    LeafSurface,
    TooManyBoundaries,
    UnplaceableProbes,
    band_index,
    foliation_check,
    leaf_height,
    leaf_of_point,
    leaf_point,
)
from zmcsurf.meshio import GridSpec

PI = math.pi
_EXTREME_AXIS = st.lists(_EXTREME_BOUNDS, min_size=2, max_size=2, unique=True).map(sorted)


def test_first_band_is_the_principal_arctangent():
    assert leaf_height(1.0, 1.0) == pytest.approx(PI / 4)


def test_boundary_value_agrees_from_both_bands():
    # At x = pi the band-0 formula gives atan(1/pi) and the band-1 formula
    # gives (-1) * atan(1/(pi - 2pi)); they coincide.
    assert leaf_height(PI, 1.0) == pytest.approx(math.atan(1 / PI), abs=1e-12)


def test_zero_height_off_the_excluded_set():
    assert leaf_height(2 * PI + 0.5, 0.0) == 0.0


def test_leaf_shift_of_a_known_point():
    assert leaf_of_point(1.0, 1.0, PI / 4) == pytest.approx(0.0, abs=1e-15)


def test_excluded_points_raise():
    with pytest.raises(ExcludedPoint):
        leaf_height(0.0, 0.0)
    with pytest.raises(ExcludedPoint):
        leaf_height(2 * PI, 0.0)
    with pytest.raises(ExcludedPoint):
        leaf_of_point(2 * PI, 0.0, 5.0)


def test_band_assignment_window():
    rng = random.Random(2)
    for _ in range(500):
        x = rng.uniform(-40, 40)
        k = band_index(x)
        assert (2 * k - 1) * PI <= x <= (2 * k + 1) * PI


def test_band_boundary_formulas_agree_exactly():
    # Reduced identity: (-1)^k atan(y/pi) == (-1)^(k+1) atan(-y/pi), which is
    # what the two adjacent band formulas evaluate to at x = (2k+1)*pi.
    rng = random.Random(3)
    for k in range(-5, 6):
        for _ in range(1000):
            y = rng.uniform(-10, 10)
            if y == 0.0:
                continue
            from_left = (-1.0) ** k * math.atan(y / PI)
            from_right = (-1.0) ** (k + 1) * math.atan(-y / PI)
            assert from_left == from_right


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-20, 20, allow_nan=False), y=st.floats(-5, 5, allow_nan=False),
       t=st.floats(-10, 10, allow_nan=False))
def test_leaf_round_trip_recovers_the_shift(x, y, t):
    try:
        px, py, pz = leaf_point(x, y, t)
    except ExcludedPoint:
        return
    assert abs(leaf_of_point(px, py, pz) - t) <= 1e-12


def test_leaves_partition_random_points():
    rng = random.Random(17)
    for _ in range(2000):
        x = rng.uniform(-15, 15)
        y = rng.uniform(-4, 4)
        z = rng.uniform(-6, 6)
        if math.hypot(x - 2 * PI * band_index(x), y) < 1e-9:
            continue
        t = leaf_of_point(x, y, z)
        assert leaf_point(x, y, t) == (x, y, z) or abs(leaf_point(x, y, t)[2] - z) < 1e-12


def test_leaf_is_a_minimal_graph_on_the_band_interior():
    leaf = LeafSurface(0.0)
    rng = random.Random(23)
    for _ in range(50):
        x = rng.uniform(0.2, 2.8) * rng.choice([-1, 1])
        y = rng.uniform(-2.5, 2.5)
        if math.hypot(x, y) < 0.2:
            continue
        jet = leaf.exact_jet(x, y)
        assert abs(zmc.graph_residual("minimal", jet)) < 1e-10


def test_shifted_leaf_heights():
    leaf = LeafSurface(2.5)
    assert leaf.height_at(1.0, 1.0) == pytest.approx(PI / 4 + 2.5)


def test_leaf_domain_margin_excludes_axis_neighborhood():
    leaf = LeafSurface(0.0)
    assert not leaf.domain_ok(2 * PI + 0.01, 0.0, 0.05)
    assert leaf.domain_ok(2 * PI + 0.2, 0.0, 0.05)


def _band_formula_jet(x, y, t):
    """The leaf jet written out per band: (-1)^k times the helicoid's jet
    formulas at (x - 2*pi*k, y), with z = leaf_height + t."""
    k = np.round(x / (2 * PI))
    dx = x - 2 * PI * k
    sign = np.where(np.mod(k, 2) == 1, -1.0, 1.0)
    r2 = dx * dx + y * y
    r4 = r2 * r2
    return (leaf_height(x, y) + t, sign * (-y / r2), sign * (dx / r2), sign * (2 * dx * y / r4),
            sign * ((y * y - dx * dx) / r4), sign * (-2 * dx * y / r4))


@pytest.mark.parametrize("t", [0.0, 2.5])
def test_leaf_keeps_the_height_surface_contract(t):
    leaf = LeafSurface(t)
    assert isinstance(leaf, HeightSurface)
    assert leaf.kind == "minimal"
    exact = zmc.residual_sweep(leaf, "minimal", leaf.default_grid, tolerance=1e-10)
    central = zmc.residual_sweep(leaf, "minimal", leaf.default_grid, method="central-diff",
                                 tolerance=1e-6)
    assert exact.passed and central.passed
    with pytest.raises(ExcludedPoint):
        leaf.height_at(0.0, 0.0)
    # Five bands, both signs of (-1)^k; the excluded lines themselves left out.
    u, v = GridSpec(-13.0, 13.0, -3.0, 3.0, 57, 33).lattice()
    ok = leaf.domain_ok(u, v)
    jet = leaf.exact_jet(u[ok], v[ok])
    want = _band_formula_jet(u[ok], v[ok], t)
    for name, entry in zip(("z", "z_x", "z_y", "z_xx", "z_xy", "z_yy"), want):
        assert getattr(jet, name).tobytes() == entry.tobytes(), name


def test_a_leaf_stencil_on_an_excluded_line_is_a_domain_violation():
    # The stencil point (2*pi + 5e-13, 0) is within 1e-12 of the excluded line.
    with pytest.raises(DomainViolation) as caught:
        zmc.graph_jets(LeafSurface(0.0), [2 * PI + 1e-4 + 5e-13], [2e-4], method="central-diff")
    [(x, y)] = caught.value.points
    assert abs(x - 2 * PI) < 1e-12 and y == 0.0


def test_foliation_check_report():
    report = foliation_check(suite.FOLIATION_WINDOW, suite.FOLIATION_SHIFTS)
    assert report.passed
    assert report.parameters["boundary_max"] < 1e-6
    assert report.parameters["roundtrip_max"] <= 1e-12
    assert report.parameters["boundary_pairs"] > 0


@pytest.mark.parametrize("seed", [0, 11, 12345, 20240901])
@pytest.mark.parametrize("count", [1, 7, 4000])
def test_uniforms_are_the_draws_of_a_random_loop(seed, count):
    loop, batch = random.Random(seed), random.Random(seed)
    expected = np.array([loop.random() for _ in range(count)])
    assert foliation._uniforms(batch, count).tobytes() == expected.tobytes()
    assert batch.getstate() == loop.getstate()


def test_foliation_check_needs_leaf_shifts():
    with pytest.raises(EmptyGrid):
        foliation_check(GridSpec(-3, 3, -3, 3, 11, 11), [])


def test_foliation_check_that_checks_nothing_is_empty(monkeypatch):
    # No band boundary lies in (0.1, 1) and no random point is drawn.
    monkeypatch.setattr(foliation, "RANDOM_POINTS", 0)
    with pytest.raises(EmptyGrid):
        foliation_check(GridSpec(0.1, 1, -1, 1, 5, 5), [0.0])


@pytest.mark.parametrize("grid", [
    GridSpec(-0.5, 0.5, -0.5, 0.5, 3, 3, 1.0),           # the margin covers the window
    GridSpec(-1e-300, 1e-300, -1e-300, 1e-300, 3, 3),  # the window is inside the margin
], ids=["margin", "tiny"])
def test_a_window_without_admissible_points_is_empty_not_a_hang(grid, monkeypatch):
    monkeypatch.setattr(foliation, "RANDOM_POINTS", 5)
    with pytest.raises(EmptyGrid, match=r"only 0 of 5 random points are admissible after "
                                        rf"{foliation.DRAW_ROUNDS} rounds"):
        foliation_check(grid, [0.0])


def test_foliation_report_headline_is_one_sub_check():
    report = foliation_check(suite.FOLIATION_WINDOW, suite.FOLIATION_SHIFTS)
    p = report.parameters
    ratios = {"boundary": p["boundary_max"] / p["boundary_tolerance"],
              "roundtrip": p["roundtrip_max"] / p["roundtrip_tolerance"]}
    name = max(ratios, key=ratios.get)
    assert report.max_abs_err == p[f"{name}_max"]
    assert report.mean_abs_err == p[f"{name}_mean"]
    assert report.tolerance == p[f"{name}_tolerance"]
    assert 0.0 <= p["boundary_mean"] <= p["boundary_max"]
    assert 0.0 <= p["roundtrip_mean"] <= p["roundtrip_max"]


def test_window_without_boundaries_reports_the_roundtrip(monkeypatch):
    # No band boundary lies in (0.1, 1): only roundtrip points are checked.
    monkeypatch.setattr(foliation, "RANDOM_POINTS", 5)
    report = foliation_check(GridSpec(0.1, 1, -1, 1, 5, 5), [0.0])
    p = report.parameters
    assert p["boundary_pairs"] == 0 and report.points_checked == 5
    assert report.tolerance == ROUNDTRIP_TOLERANCE
    assert (report.max_abs_err, report.mean_abs_err) == (p["roundtrip_max"], p["roundtrip_mean"])
    x, y = report.worst_point["coords"]
    assert 0.1 <= x <= 1 and -1 <= y <= 1
    assert report.worst_point["lhs"] == report.worst_point["rhs"] == 0.0
    assert report.passed


def test_failed_roundtrip_fails_the_report_without_an_invented_error(monkeypatch):
    real = foliation.leaf_of_point
    monkeypatch.setattr(foliation, "leaf_of_point",
                        lambda x, y, z: real(x, y, z) + 1e-9 * (1.0 + abs(x)))
    monkeypatch.setattr(foliation, "RANDOM_POINTS", 200)
    report = foliation_check(suite.FOLIATION_WINDOW, suite.FOLIATION_SHIFTS)
    p = report.parameters
    assert not report.passed and not p["roundtrip_pass"]
    assert report.tolerance == p["roundtrip_tolerance"] == 1e-12
    assert report.max_abs_err == p["roundtrip_max"]
    assert 1e-9 < report.max_abs_err <= 1e-9 * (1.0 + 3 * PI) * (1 + 1e-6)
    assert p["roundtrip_mean"] == report.mean_abs_err < report.max_abs_err
    worst = report.worst_point
    assert abs(worst["lhs"] - worst["rhs"]) == report.max_abs_err
    assert p["boundary_max"] < p["boundary_tolerance"]
    assert report.points_checked == p["boundary_pairs"] + 200 * 3


def test_nan_roundtrip_fails_the_report(monkeypatch):
    real = foliation.leaf_of_point
    calls = []

    def leaf_of_point_with_nans(x, y, z):
        # NaN at the 5th and 50th (point, t) pair in check order.
        out = np.array(np.broadcast_to(real(x, y, z), np.shape(z)), dtype=float)
        out.flat[[4, 49]] = math.nan
        calls.append([np.broadcast_to(x, out.shape).flat[4],
                      np.broadcast_to(y, out.shape).flat[4]])
        return out

    monkeypatch.setattr(foliation, "leaf_of_point", leaf_of_point_with_nans)
    monkeypatch.setattr(foliation, "RANDOM_POINTS", 100)
    report = foliation_check(suite.FOLIATION_WINDOW, suite.FOLIATION_SHIFTS)
    p = report.parameters
    assert report.passed is False and p["roundtrip_pass"] is False
    assert report.tolerance == p["roundtrip_tolerance"]
    assert math.isnan(report.max_abs_err) and math.isnan(p["roundtrip_max"])
    assert report.worst_point["coords"] == calls[0]  # the first NaN
    assert p["boundary_max"] < p["boundary_tolerance"]


def test_nan_boundary_pair_fails_the_report(monkeypatch):
    real = foliation.leaf_height

    def leaf_height_nan_at_band_boundaries(x, y):
        near = np.minimum(np.abs(np.abs(x) - PI), np.abs(np.abs(x) - 3 * PI))
        return np.where(near < 1e-6, math.nan, real(x, y))

    monkeypatch.setattr(foliation, "leaf_height", leaf_height_nan_at_band_boundaries)
    monkeypatch.setattr(foliation, "RANDOM_POINTS", 100)
    report = foliation_check(suite.FOLIATION_WINDOW, suite.FOLIATION_SHIFTS)
    p = report.parameters
    assert report.passed is False and p["roundtrip_pass"] is True
    assert report.tolerance == p["boundary_tolerance"]
    assert math.isnan(report.max_abs_err) and math.isnan(report.mean_abs_err)
    # The first pair in order: the lowest boundary x = -3*pi at the lowest y.
    assert report.worst_point["coords"] == [-3 * PI, -3.0]


def test_a_window_with_too_many_band_boundaries_is_refused_before_it_is_built(monkeypatch):
    monkeypatch.setattr(foliation, "RANDOM_POINTS", 1)
    at_bound = GridSpec(0.0, TWO_PI * MAX_BOUNDARIES, -1.0, 1.0, 3, 3)
    assert foliation_check(at_bound, [0.0]).parameters["boundary_pairs"] == 3 * MAX_BOUNDARIES
    over = GridSpec(0.0, (2 * MAX_BOUNDARIES + 1) * PI + 1.0, -1.0, 1.0, 3, 3)
    with pytest.raises(TooManyBoundaries, match=rf"^the window holds {MAX_BOUNDARIES + 1} band "
                                                rf"boundaries, more than the {MAX_BOUNDARIES} "):
        foliation_check(over, [0.0])
    # About 3e16 and 3e299 boundaries: numpy could not allocate either.
    for bound in (1e17, 1e300):
        with pytest.raises(TooManyBoundaries, match=r"^the window holds \d{17,300} band "):
            foliation_check(GridSpec(-bound, bound, -1.0, 1.0, 3, 3), [0.0])


def test_a_window_whose_boundary_probes_doubles_cannot_place_is_refused(monkeypatch):
    # Doubles near 1e8 are 1.5e-8 apart: the 16 boundaries of the window are checked.
    near = GridSpec(1e8, 1e8 + 100, -1.0, 1.0, 3, 3)
    assert foliation_check(near, [0.0]).parameters["boundary_pairs"] == 48
    # Near 5.4e8 they are 1.2e-7 apart, more than BOUNDARY_DELTA.  At 6e19 the
    # window holds about 1,300 boundaries that the check saw as none, and at
    # 1e19 its probes rounded onto an excluded line.
    for far in (GridSpec(5.4e8, 5.4e8 + 10, -1.0, 1.0, 3, 3),
                GridSpec(-5.4e8 - 10, -5.4e8, -1.0, 1.0, 3, 3),
                GridSpec(1e19, 1e19 * (1 + 2e-16), -1.0, 1.0, 3, 3),
                GridSpec(6e19, 6e19 * (1 + 2e-16), -1.0, 1.0, 3, 3)):
        assert math.ulp(max(abs(far.u_min), abs(far.u_max))) > foliation.BOUNDARY_DELTA
        with pytest.raises(UnplaceableProbes, match=r"^the window reaches \|x\| = "):
            foliation_check(far, [0.0])
    # Near 5.3e8 doubles are 6e-8 apart: the check runs.
    monkeypatch.setattr(foliation, "RANDOM_POINTS", 10)
    assert foliation_check(GridSpec(5.3e8, 5.3e8 + 10, -1.0, 1.0, 3, 3),
                           [0.0]).parameters["boundary_pairs"] == 3
    # A far window without a boundary has no probes to place: it checks the roundtrip.
    k = round(1e12 / TWO_PI)
    inside = GridSpec(k * TWO_PI - 1.0, k * TWO_PI + 1.0, 0.5, 1.0, 3, 3)
    assert foliation_check(inside, [0.0]).parameters["boundary_pairs"] == 0
    # The count check comes first.
    with pytest.raises(TooManyBoundaries):
        foliation_check(GridSpec(-1e15, 1e15, -1.0, 1.0, 3, 3), [0.0])


@settings(max_examples=200, deadline=None)
@given(u=_EXTREME_AXIS, v=_EXTREME_AXIS, shape=st.tuples(st.integers(2, 4), st.integers(2, 4)),
       t=st.lists(_EXTREME_BOUNDS, min_size=1, max_size=3), n_random=st.integers(0, 20),
       seed=st.integers(0, 2 ** 32))
def test_foliation_checks_on_extreme_windows_give_finite_reports_or_typed_errors(
        u, v, shape, t, n_random, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = GridSpec(*u, *v, *shape)
        except ValueError:
            return
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(foliation, "RANDOM_POINTS", n_random)
                report = foliation_check(grid, t, seed=seed)
        except (DomainViolation, EmptyGrid, TooManyBoundaries, UnplaceableProbes):
            return
    assert math.isfinite(report.max_abs_err) and math.isfinite(report.mean_abs_err)
    p = report.parameters
    assert report.points_checked == p["boundary_pairs"] + n_random * len(t)
