"""Integral representations: forward evaluation, families, splitting, inversion."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_report import LoopStats
from zmcsurf import catalog, reps, zmc
from zmcsurf.errors import EmptyGrid
from zmcsurf.expr import EvalDomainError
from zmcsurf.meshio import GridSpec, sample_patch
from zmcsurf.reps import (
    BCData,
    JacobianSingular,
    NewtonDiverged,
    NoConvergence,
    SingularPath,
    TLMSData,
    WEData,
    WeightSumError,
    WESampler,
    ZeroWeight,
    bc_point,
    integrate_segment,
    invert_parametrization,
    split_weierstrass,
    tlms_point,
    verify_split,
    we_point,
)


def _enneper():
    return WEData.from_text("1", "w")


def _enneper_expected(zeta: complex):
    # Antiderivatives of ((1 - w^2), i(1 + w^2), 2w): z - z^3/3, i(z + z^3/3), z^2.
    return ((zeta - zeta ** 3 / 3).real,
            (1j * (zeta + zeta ** 3 / 3)).real,
            (zeta * zeta).real)


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------

def test_enneper_point_at_one():
    assert we_point(_enneper(), 1) == pytest.approx((2 / 3, 0.0, 1.0), abs=1e-10)


def test_enneper_point_at_i():
    assert we_point(_enneper(), 1j) == pytest.approx((0.0, -2 / 3, -1.0), abs=1e-10)


def test_enneper_point_at_interior_complex():
    zeta = 0.4 + 0.3j
    assert we_point(_enneper(), zeta) == pytest.approx(_enneper_expected(zeta), abs=1e-12)


def test_point_at_basepoint_returns_offset():
    data = WEData.from_text("1", "w", zeta0=0.2 + 0.1j, offset=(1.0, -2.0, 3.5))
    assert we_point(data, 0.2 + 0.1j) == (1.0, -2.0, 3.5)


def test_maximal_mode_point():
    data = WEData.from_text("1", "w", mode="maximal")
    assert we_point(data, 1) == pytest.approx((4 / 3, 0.0, -1.0), abs=1e-10)


def test_quadrature_exact_for_degree_twenty_integrands():
    data = WEData.from_text("w^18", "w")
    zeta = 0.9 + 0.4j
    expected = ((zeta ** 19 / 19 - zeta ** 21 / 21).real,
                (1j * (zeta ** 19 / 19 + zeta ** 21 / 21)).real,
                (2 * zeta ** 20 / 20).real)
    assert we_point(data, zeta) == pytest.approx(expected, abs=1e-12)


def test_path_deformation_consistency():
    data = WEData.from_text("exp(w)", "w")
    rng = random.Random(5)
    for _ in range(10):
        target = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        waypoint = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        direct = integrate_segment(data.integrands, 0, target)
        via = [a + b for a, b in zip(integrate_segment(data.integrands, 0, waypoint),
                                     integrate_segment(data.integrands, waypoint, target))]
        assert max(abs(d - v) for d, v in zip(direct, via)) < 1e-10


def test_linearity_in_the_density():
    z = 0.3 + 0.45j
    p1 = we_point(WEData.from_text("1", "w"), z)
    p2 = we_point(WEData.from_text("w^2", "w"), z)
    p12 = we_point(WEData.from_text("1 + w^2", "w"), z)
    assert max(abs(a + b - c) for a, b, c in zip(p1, p2, p12)) < 1e-10


def test_singular_path_detected_by_sampling():
    with pytest.raises(SingularPath):
        we_point(WEData.from_text("exp(w)", "w"), 2000.0)


def test_near_pole_path_does_not_converge():
    data = WEData.from_text("1/w", "w", zeta0=complex(-1, 1e-9))
    with pytest.raises((NoConvergence, SingularPath)):
        we_point(data, complex(1, 1e-9))


def test_reduced_mode_pins_g_to_identity():
    data = WEData.reduced("exp(w)")
    assert data.g.source() == "w"
    with pytest.raises(ValueError):
        WEData.from_text("1", "w^2", mode="reduced-R")


@pytest.mark.parametrize("offset", [(), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
def test_we_offset_needs_three_coordinates(offset):
    with pytest.raises(ValueError, match="offset needs 3 coordinates"):
        WEData.from_text("1", "w", offset=offset)
    with pytest.raises(ValueError, match="offset needs 3 coordinates"):
        WEData.reduced("1", offset=offset)


@pytest.mark.parametrize("base", [(), (0.0,), (0.0, 0.0, 5.0)])
def test_tlms_base_needs_two_values(base):
    with pytest.raises(ValueError, match="base needs 2 values"):
        TLMSData.from_text("1", "1", "u", "v", base=base)


# ---------------------------------------------------------------------------
# associated family
# ---------------------------------------------------------------------------

def test_family_at_zero_is_the_surface():
    zeta = 0.3 - 0.2j
    assert WESampler(_enneper(), 0.0).point(zeta.real, zeta.imag) == pytest.approx(
        we_point(_enneper(), zeta), abs=1e-14)


def test_family_at_quarter_turn_is_the_conjugate():
    got = WESampler(_enneper(), math.pi / 2).point(1.0, 0.0)
    assert got == pytest.approx((0.0, 4 / 3, 0.0), abs=1e-10)


@pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 3, math.pi / 2])
def test_every_family_member_is_minimal(theta):
    sampler = reps.WESampler(_enneper(), theta=theta)
    report = zmc.parametric_sweep(sampler, zmc.EUCLID3,
                                  GridSpec(-0.8, 0.8, -0.8, 0.8, 9, 9))
    assert report.max_abs_err < 1e-6


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_single_weight_is_identity():
    data = WEData.reduced("1")
    piece = split_weierstrass(data, [1.0])[0]
    zeta = 0.37 + 0.21j
    assert we_point(piece, zeta) == pytest.approx(we_point(data, zeta), abs=1e-14)


def test_split_halves_share_the_height():
    pieces = split_weierstrass(WEData.reduced("1"), [0.5, 0.5])
    z1 = we_point(pieces[0], 1)[2]
    z2 = we_point(pieces[1], 1)[2]
    assert z1 == pytest.approx(0.5, abs=1e-12)
    assert z2 == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("weights", [(0.5, 0.5), (2.0, -1.0), (1 / 3, 1 / 3, 1 / 3)])
def test_split_heights_sum_to_parent(weights):
    report = verify_split(WEData.reduced("1"), weights, n_samples=20)
    assert report.passed and report.max_abs_err < 1e-10


@pytest.mark.parametrize("weights", [(0.5, 0.5), (2.0, -1.0), (1 / 3, 1 / 3, 1 / 3)])
def test_joint_split_heights_have_the_bits_of_per_piece_calls(weights, monkeypatch):
    data, calls, original = WEData.reduced("1"), [], reps.integrate_segments

    def recording(tape, z0, z1, *args, **kwargs):
        calls.append((z1, original(tape, z0, z1, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(reps, "integrate_segments", recording)
    verify_split(data, weights)
    [(zetas, (values, errors))] = calls
    assert errors == [None] * len(zetas)
    for row, piece in enumerate([data, *split_weierstrass(data, weights)]):
        alone, _ = original(piece.integrand_tape, data.zeta0, zetas)
        assert values[3 * row + 2].real.tobytes() == alone[2].real.tobytes()


def test_split_without_probes_is_empty_not_a_pass():
    with pytest.raises(EmptyGrid):
        verify_split(WEData.reduced("1"), (0.5, 0.5), n_samples=0)


def test_split_needs_weights_or_pieces():
    with pytest.raises(ZeroWeight, match="need at least one weight"):
        verify_split(WEData.reduced("1"))


def test_split_rejects_zero_weight():
    with pytest.raises(ZeroWeight):
        split_weierstrass(WEData.reduced("1"), [0.5, 0.5, 0.0])


def test_split_rejects_bad_sum():
    with pytest.raises(WeightSumError):
        split_weierstrass(WEData.reduced("1"), [0.5, 0.6])


@pytest.mark.parametrize("weights", [[float("nan"), 1.0], [float("inf")],
                                     [float("inf"), float("-inf"), 1.0]])
def test_split_rejects_non_finite_weights(weights):
    with pytest.raises(WeightSumError):
        split_weierstrass(WEData.reduced("1"), weights)


def test_split_requires_reduced_mode():
    with pytest.raises(ValueError):
        split_weierstrass(WEData.from_text("1", "w"), [1.0])


def test_expression_split_sums_back():
    # Pieces 2 + w and -1 - w sum to 1 and have no zeros inside the sampled disk.
    data = WEData.reduced("1")
    report = reps.verify_split(data, pieces=["2 + w", "-1 - w"], n_samples=20)
    assert report.passed and report.max_abs_err < 1e-10


def test_expression_split_rejects_vanishing_piece():
    # 0.5 + w vanishes at w = -0.5, inside the sampled disk of radius 0.8.
    with pytest.raises(ZeroWeight):
        reps.split_weierstrass_expressions(WEData.reduced("1"), ["0.5 + w", "0.5 - w"])


def test_expression_split_rejects_bad_sum():
    with pytest.raises(WeightSumError):
        reps.split_weierstrass_expressions(WEData.reduced("1"), ["2 + w", "-1 + w"])


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_round_trip_through_the_graph_region():
    data = _enneper()
    rng = random.Random(7)
    for _ in range(20):
        zeta = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        x, y, _ = we_point(data, zeta)
        back = invert_parametrization(data, x, y, zeta + 0.05)
        assert abs(back - zeta) < 1e-10


def test_inversion_toward_the_fold_point():
    # (2/3, 0) is the image of zeta = 1, where the Jacobian degenerates
    # (det ~ 1 - |zeta|^4): a 1e-10 planar residual only pins zeta to about
    # sqrt(residual), so the recovered parameter is fold-limited.
    back = invert_parametrization(_enneper(), 2 / 3, 0.0, 0.9)
    assert abs(back - 1.0) < 1e-5


def test_jacobian_singular_where_the_density_vanishes():
    data = WEData.reduced("w")
    with pytest.raises(JacobianSingular):
        invert_parametrization(data, 0.0, 0.0, 0.0)
    with pytest.raises(JacobianSingular):
        invert_parametrization(data, 0.0, 0.0, 1e-8)


def test_eta_derivative_recovers_the_density():
    # For reduced data, d(x - i y)/dzeta equals R; checked by central
    # differences in both coordinate directions.
    data = WEData.reduced("exp(w)")
    rng = random.Random(13)
    h = 1e-5

    def eta(z):
        x, y, _ = we_point(data, z)
        return complex(x, -y)

    for _ in range(20):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        d_real = (eta(z + h) - eta(z - h)) / (2 * h)
        d_imag = (eta(z + 1j * h) - eta(z - 1j * h)) / (2 * h)
        derivative = 0.5 * (d_real - 1j * d_imag)
        assert abs(derivative - cmath.exp(z)) < 1e-8


def test_inverted_graph_sampler_continuation():
    sampler = reps.InvertedGraphSampler(_enneper(), zeta_seed=0.05 + 0.02j)
    grid = GridSpec(-0.4, 0.4, -0.4, 0.4, 9, 9)
    patch = sample_patch(sampler, grid)
    assert patch.valid_count() == 81
    center = patch.points[grid.nu // 2 * grid.nv + grid.nv // 2]
    assert center[2] == pytest.approx(0.0, abs=1e-10)


# With density R = w, eta = x - i y is about zeta^2 / 2.  The centre (0, h/2)
# of this window has the negated eta of its left neighbour (0, -h/2), so the
# full Newton step from the neighbour's root lands next to zeta = 0, where the
# Jacobian vanishes; the centre's right neighbour then falls back to the seed of
# its lower neighbour.
_SINGULAR_CENTRE = GridSpec(-1e-5, 1e-5, -5e-6, 1.5e-5, 3, 3)


def test_inverted_graph_sampler_marks_failures_invalid():
    sampler = reps.InvertedGraphSampler(WEData.reduced("w"), zeta_seed=0.01)
    points, valid = sampler.sample_grid(_SINGULAR_CENTRE)
    assert valid.tolist() == [True] * 4 + [False] + [True] * 4
    assert points[4].tolist() == [0.0, 0.0, 0.0]
    assert sampler.rejected == {"JacobianSingular": 1}


def test_inverted_graph_sampler_counts_rejections_per_grid():
    # From the seed zeta = 0, where R = w vanishes, no point starts: each one's
    # guess is the seed, since no neighbour succeeds.
    sampler = reps.InvertedGraphSampler(WEData.reduced("w"), zeta_seed=0.0)
    assert sampler.rejected == {}
    _, valid = sampler.sample_grid(GridSpec(-0.01, 0.01, -0.01, 0.01, 3, 3))
    assert not valid.any()
    assert sampler.rejected == {"JacobianSingular": 9}
    sampler.zeta_seed = 0.1
    _, valid = sampler.sample_grid(GridSpec(0.01, 0.02, 0.01, 0.02, 2, 2))
    assert valid.all()
    assert sampler.rejected == {}


def _per_point_inversion(sampler, grid):
    """The per-point loop the wavefront replaces: lattice points in row-major
    order, each seeded from its left, then its lower neighbour, then the seed."""
    points = np.zeros((grid.nu * grid.nv, 3))
    valid = np.zeros(grid.nu * grid.nv, dtype=bool)
    zetas = {}
    for i, x in enumerate(grid.u_values().tolist()):
        for j, y in enumerate(grid.v_values().tolist()):
            guess = zetas.get((i, j - 1), zetas.get((i - 1, j), sampler.zeta_seed))
            try:
                zeta = invert_parametrization(sampler.data, x, y, guess)
                z = we_point(sampler.data, zeta)[2]
            except (NewtonDiverged, JacobianSingular, SingularPath, NoConvergence):
                continue
            zetas[i, j] = zeta
            points[i * grid.nv + j] = (x, y, z)
            valid[i * grid.nv + j] = True
    return points, valid


@pytest.mark.parametrize("data, seed, grid", [
    (WEData.from_text("1", "w"), 0.05 + 0.02j, GridSpec(-0.4, 0.4, -0.4, 0.4, 9, 9)),
    (WEData.from_text("1.03 + 0.07*w", "0.85*w"), 0.03 - 0.02j,
     GridSpec(-0.31, 0.29, -0.27, 0.33, 7, 5)),
    (WEData.reduced("w"), 0.01, _SINGULAR_CENTRE),
    # From this seed the middle's speculative roots lie on another sheet than
    # the loop's, so 617 of 625 points fall back; 622 are valid, and three
    # NewtonDiverged points sit on the loop's seams.
    (WEData.from_text("1", "w"), 0.05 + 0.02j, GridSpec(-1.2, 1.2, -1.2, 1.2, 25, 25)),
], ids=["enneper", "near-enneper", "singular-centre", "wide"])
def test_wavefront_matches_the_per_point_loop(data, seed, grid):
    # An accepted root is the speculation's, reached from the seed, not from
    # the loop's root at its predecessor, so its last bits may move (at most
    # 7.8e-14 in z on the first three windows and 1.6e-14 on the wide one).
    sampler = reps.InvertedGraphSampler(data, zeta_seed=seed)
    points, valid = sampler.sample_grid(grid)
    want_points, want_valid = _per_point_inversion(sampler, grid)
    assert valid.tolist() == want_valid.tolist()
    assert points[:, :2].tobytes() == want_points[:, :2].tobytes()
    assert np.abs(points[:, 2] - want_points[:, 2]).max() <= 1e-12


def _assert_is_the_loop(sampler, grid, points, valid):
    """The checks of ``test_wavefront_matches_the_per_point_loop``."""
    want_points, want_valid = _per_point_inversion(sampler, grid)
    assert valid.tolist() == want_valid.tolist()
    assert points[:, :2].tobytes() == want_points[:, :2].tobytes()
    assert np.abs(points[:, 2] - want_points[:, 2]).max() <= 1e-12


def _rule_inverted(monkeypatch, flip=None):
    """Record the lattice points the anti-diagonal rule inverts (its Newton
    takes 20 step lengths); ``flip`` replaces that point's speculative root
    zeta by -zeta, with the surface point there."""
    rule, original = [], reps._invert

    def recording(data, x, y, guesses, points, errors, tries=20):
        zetas, points, errors = original(data, x, y, guesses, points, errors, tries)
        if tries == 20:
            rule.extend(zip(np.ravel(x).tolist(), np.ravel(y).tolist()))
        elif flip is not None:
            zetas[flip] = -zetas[flip]
            points[flip] = reps._surface_points(data, zetas[flip])[0][0]
        return zetas, points, errors

    monkeypatch.setattr(reps, "_invert", recording)
    return rule


def test_the_sheet_test_rejects_a_root_on_the_other_sheet(monkeypatch):
    # R = w makes x and y even in zeta, so -zeta is a root too, with the
    # negated height.  The full step from its predecessor's root lands 0.98
    # edge lengths from -zeta, so the test rejects it (as any mu < 0.98 does)
    # and the rest of its row, and the rule re-inverts them.
    data, seed = WEData.reduced("w"), 0.6 + 0.25j
    grid = GridSpec(0.1, 0.2, -0.2, -0.1, 4, 4)
    sampler = reps.InvertedGraphSampler(data, zeta_seed=seed)
    rule = _rule_inverted(monkeypatch)
    clean, valid = sampler.sample_grid(grid)
    assert valid.all() and rule == []
    assert abs(clean[5, 2]) > 0.01  # so -zeta's height, -z, fails the loop's check
    rule = _rule_inverted(monkeypatch, flip=5)  # row 1, column 1
    points, valid = sampler.sample_grid(grid)
    x, y = grid.lattice()
    assert rule == [(x[k], y[k]) for k in (5, 6, 7)]
    monkeypatch.undo()
    _assert_is_the_loop(sampler, grid, points, valid)


@pytest.mark.parametrize("seed", [0.05 + 0.02j, -0.0])
@pytest.mark.parametrize("grid", [
    GridSpec(0, 2e-323, 0, 1, 3, 3),  # neighbouring rows have equal roots
    GridSpec(-1e-300, 1e-300, -1e-300, 1e-300, 3, 3),
    GridSpec(-8e307, 8e307, -1, 1, 3, 3),
    GridSpec(1e160, 2e160, 0, 1, 3, 3),
], ids=["subnormal", "tiny", "huge", "overflowing"])
def test_inverted_sampler_on_extreme_lattices_matches_the_loop(seed, grid):
    sampler = reps.InvertedGraphSampler(WEData.from_text("1", "w"), zeta_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points, valid = sampler.sample_grid(grid)
    _assert_is_the_loop(sampler, grid, points, valid)


_UNIT = st.floats(-0.05, 0.05)


@settings(max_examples=20, deadline=None)
@given(c0=st.floats(0.9, 1.1), c1=st.floats(0.0, 0.1), b=st.floats(0.7, 1.0),
       h=st.floats(0.25, 0.35), centre=st.tuples(_UNIT, _UNIT), seed=st.tuples(_UNIT, _UNIT))
def test_the_benchmark_family_matches_the_per_point_loop(c0, c1, b, h, centre, seed):
    # The benchmark's inverted family: near-Enneper data on a 5 x 5 window
    # around the origin, where the Jacobian is close to c0 times the identity.
    data = WEData.from_text(f"{c0!r}+{c1!r}*w", f"0.0+{b!r}*w")
    grid = GridSpec(centre[0] - h, centre[0] + h, centre[1] - h, centre[1] + h, 5, 5)
    sampler = reps.InvertedGraphSampler(data, zeta_seed=complex(*seed))
    _assert_is_the_loop(sampler, grid, *sampler.sample_grid(grid))


def test_a_newton_batch_is_its_one_point_inversions():
    # Converging, damped, diverging and singular points in one batch, each
    # against its own Newton.  |zeta| = 1 is the fold of Enneper's map, and a
    # real guess stays real, where x never exceeds 2/3.
    data = _enneper()
    targets = [(0.3, 0.1), (2 / 3, 0.0), (-0.2, 0.45), (0.1, -0.3), (0.8, 0.0), (0.2, 0.2)]
    guesses = [0.3, 0.9, -0.2 + 0.5j, 0.1 + 0.3j, 0.5, 1.0]
    zetas, points, errors = reps._invert(data, *zip(*targets), guesses,
                                         *reps._surface_points(data, guesses))
    kinds = []
    for k, ((x, y), guess) in enumerate(zip(targets, guesses)):
        try:
            want = invert_parametrization(data, x, y, guess)
        except (NewtonDiverged, JacobianSingular) as exc:
            assert type(errors[k]) is type(exc) and str(errors[k]) == str(exc)
            kinds.append(type(exc).__name__)
            continue
        assert errors[k] is None
        assert repr(complex(zetas[k])) == repr(want)
        assert points[k].tobytes() == np.array(we_point(data, want)).tobytes()
        kinds.append("root")
    assert sorted(set(kinds)) == ["JacobianSingular", "NewtonDiverged", "root"]


# ---------------------------------------------------------------------------
# timelike minimal surfaces
# ---------------------------------------------------------------------------

def test_tlms_point_at_base_is_origin():
    data = TLMSData.from_text("1", "1", "u", "v")
    assert tlms_point(data, 0.0, 0.0) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_tlms_point_against_polynomial_antiderivatives():
    # q = u, r = v, f = g = 1:
    #   I_u[q f] = u^2/2,  I_u[(1-q^2) f] = u - u^3/3,  I_u[(1+q^2) f] = u + u^3/3
    # and the same shapes in v.
    data = TLMSData.from_text("1", "1", "u", "v")
    u, v = 1.0, 0.5
    expected = (-(u ** 2 / 2) + v ** 2 / 2,
                -0.5 * ((u - u ** 3 / 3) + (v - v ** 3 / 3)),
                0.5 * ((u + u ** 3 / 3) - (v + v ** 3 / 3)))
    assert tlms_point(data, u, v) == pytest.approx(expected, abs=1e-12)


def test_tlms_outputs_are_zero_mean_curvature_in_l3():
    rng = random.Random(99)

    def rand_poly(var):
        c = [rng.uniform(-0.5, 0.5) for _ in range(3)]
        return f"{c[0]} + {c[1]}*{var} + {c[2]}*{var}^2"

    grid = GridSpec(0.0, 0.8, 0.0, 0.8, 21, 21)
    for _ in range(3):
        data = TLMSData.from_text(rand_poly("u"), rand_poly("v"),
                                  rand_poly("u"), rand_poly("v"))
        report = zmc.parametric_sweep(reps.TLMSSampler(data), zmc.LORENTZ3, grid,
                                      tolerance=1e-5)
        assert report.passed, report.max_abs_err


def test_tlms_generating_curves_are_null():
    data = TLMSData.from_text("1 + u^2", "2 - v", "u", "v^2")
    sampler = reps.TLMSSampler(data)
    xu, xv, _, _, _ = sampler.jet(0.4, 0.6)
    assert zmc.LORENTZ3.inner(xu, xu) == pytest.approx(0.0, abs=1e-14)
    assert zmc.LORENTZ3.inner(xv, xv) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Born-Infeld solitons
# ---------------------------------------------------------------------------

def test_bc_point_at_origin():
    data = BCData.from_text("r", "s")
    assert bc_point(data, 0.0, 0.0) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_bc_point_linear_data():
    data = BCData.from_text("r", "s")
    # x = (1 + 1 - 1/3 - 1/3)/2, y = (1 - 1 - 1/3 + 1/3)/2, z = 1/2 + 1/2.
    assert bc_point(data, 1.0, 1.0) == pytest.approx((2 / 3, 0.0, 1.0), abs=1e-10)
    assert bc_point(data, 1.0, 0.0) == pytest.approx((1 / 3, -2 / 3, 0.5), abs=1e-10)


def test_bc_outputs_are_zero_mean_curvature_in_l3_prime():
    data = BCData.from_text("r + r^3", "s - s^2")
    report = zmc.parametric_sweep(reps.BCSampler(data), zmc.LORENTZ3_PRIME,
                                  GridSpec(0.0, 0.8, 0.0, 0.8, 21, 21), tolerance=1e-5)
    assert report.passed


def test_bc_local_graph_satisfies_the_bi_soliton_equation():
    data = BCData.from_text("r + r^3", "s - s^2")
    sampler = reps.BCSampler(data)
    for u in (0.1, 0.3, 0.5):
        for v in (0.1, 0.25, 0.4):
            jet = zmc.graph_jet_from_parametric(sampler.point(u, v)[2], *sampler.jet(u, v))
            assert abs(zmc.graph_residual("bi-soliton", jet)) < 1e-5


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

_JET_SAMPLERS = {
    "we-minimal": lambda: reps.WESampler(WEData.from_text("exp(w)", "sin(w)")),
    "we-maximal": lambda: reps.WESampler(WEData.from_text("1", "w", mode="maximal")),
    "we-family": lambda: reps.WESampler(_enneper(), theta=0.7),
    "tlms": lambda: reps.TLMSSampler(TLMSData.from_text("1 + u^2", "2 - v", "u", "v^2")),
    "bc": lambda: reps.BCSampler(BCData.from_text("r + r^3", "s - s^2")),
    "graph-lift": lambda: zmc.GraphLiftSampler(catalog.builtin_surface("scherk2")),
}


@pytest.mark.parametrize("kind", sorted(_JET_SAMPLERS))
def test_sampler_jets_do_no_quadrature(kind, monkeypatch):
    sampler = _JET_SAMPLERS[kind]()
    want = sampler.jet(0.3, 0.2)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("jet reached quadrature")

    monkeypatch.setattr(reps, "integrate_segments", no_quadrature)
    if kind != "graph-lift":
        with pytest.raises(AssertionError, match="jet reached quadrature"):
            sampler.point(0.3, 0.2)
    jet = sampler.jet(0.3, 0.2)
    assert len(jet) == 5 and all(len(vec) == 3 for vec in jet)
    assert jet == want


# A scalar jet is the one-point case of the lattice jet: the same formula on
# one-element arrays, so every entry is the lattice entry's float.
_JET_GRID = GridSpec(0.05, 0.7, -0.6, 0.65, 7, 6)


@pytest.mark.parametrize("kind", sorted(_JET_SAMPLERS))
def test_scalar_jet_is_its_lattice_entry(kind):
    sampler = _JET_SAMPLERS[kind]()
    u, v = _JET_GRID.lattice()
    lattice = sampler.jet(u, v)
    for k in range(u.size):
        jet = sampler.jet(float(u[k]), float(v[k]))
        assert all(type(entry) is float for vec in jet for entry in vec)
        want = tuple(tuple(np.broadcast_to(c, u.shape)[k].item() for c in vec)
                     for vec in lattice)
        assert repr(jet) == repr(want)


_JET_METRICS = {"we-maximal": zmc.LORENTZ3, "tlms": zmc.LORENTZ3, "bc": zmc.LORENTZ3_PRIME}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "central-diff"])
@pytest.mark.parametrize("kind", sorted(_JET_SAMPLERS))
def test_parametric_sweep_is_the_per_point_loop(kind, exact):
    sampler = _JET_SAMPLERS[kind]()
    metric = _JET_METRICS.get(kind, zmc.EUCLID3)
    grid = GridSpec(0.05, 0.7, -0.6, 0.65, 4, 3)
    report = zmc.parametric_sweep(sampler, metric, grid, use_exact_jet=exact)
    stats = LoopStats()
    for _, uv in grid.points():
        value = zmc.parametric_zmc_numerator(sampler, metric, *uv, use_exact_jet=exact)
        stats.add(abs(value), uv, value)
    assert report.points_checked == stats.count == 12
    assert repr((report.max_abs_err, report.mean_abs_err, report.worst_point)) == repr(
        (stats.max, stats.mean, stats.worst))


def test_inverted_graph_sampler_rejects_a_pole_of_the_integrands():
    # The Newton Jacobian is the integrand pair, and f = 1/w has its pole at
    # the seed: every point fails there, and none is seeded from a neighbour.
    sampler = reps.InvertedGraphSampler(WEData.from_text("1/w", "w"), zeta_seed=0)
    points, valid = sampler.sample_grid(GridSpec(0.1, 0.2, 0.1, 0.2, 3, 3))
    assert not valid.any() and not points.any()
    assert sampler.rejected == {"EvalDomainError": 9}
    with pytest.raises(EvalDomainError, match="division by zero"):
        invert_parametrization(WEData.from_text("1/w", "w"), 0.3, 0.1, 0)
