"""Graph jets, PDE residuals, and the signature-aware parametric checker."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_lattice import per_shift_central_jet
from test_meshio_arrays import _EXTREME_BOUNDS

from zmcsurf import catalog, reps, zmc
from zmcsurf.errors import DomainViolation
from zmcsurf.expr import EvalDomainError
from zmcsurf.meshio import GridSpec
from zmcsurf.zmc import (
    EUCLID3,
    LORENTZ3,
    LORENTZ3_PRIME,
    DegenerateMetric,
    GraphJet,
    SignatureMetric,
    graph_jet,
    graph_jet_from_parametric,
    graph_residual,
    parametric_zmc_numerator,
    residual_sweep,
)

PI = math.pi


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_scherk2_exact_jet_closed_forms():
    jet = catalog.builtin_surface("scherk2").exact_jet(0.3, 0.2)
    assert jet.z_x == pytest.approx(math.tan(0.3), abs=1e-15)
    assert jet.z_y == pytest.approx(-math.tan(0.2), abs=1e-15)
    assert jet.z_xy == 0


def test_hand_coded_jets_match_symbolic_differentiation():
    # Dual route: the closed-form jet against the symbolic jet of the same
    # expression text.
    oracle = catalog.builtin_surface("expr:log(cos(y)/cos(x))")
    surf = catalog.builtin_surface("scherk2")
    for (x, y) in ((0.3, 0.2), (-0.7, 0.45), (0.9, -0.8)):
        a = surf.exact_jet(x, y)
        b = oracle.exact_jet(x, y)
        for name in ("z", "z_x", "z_y", "z_xx", "z_xy", "z_yy"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-12)


def test_plane_second_derivatives_vanish():
    jet = catalog.builtin_surface("plane:0.4,0.9").exact_jet(3.0, -2.0)
    assert jet.z_xx == 0 and jet.z_xy == 0 and jet.z_yy == 0


def test_central_difference_agrees_with_exact():
    surf = catalog.builtin_surface("scherk2")
    exact = surf.exact_jet(0.3, 0.2)
    approx = graph_jet(surf, 0.3, 0.2, method="central-diff")
    for name in ("z", "z_x", "z_y", "z_xx", "z_xy", "z_yy"):
        assert abs(getattr(exact, name) - getattr(approx, name)) < 1e-7


def test_exact_jet_unavailable_is_not_silently_replaced():
    bare = catalog.HeightSurface(
        "bare", "generic", lambda x, y: (x + 0j) * y,
        lambda x, y, m: True, None, GridSpec(-1, 1, -1, 1, 11, 11))
    jet = graph_jet(bare, 0.5, 0.25, method="central-diff")
    assert jet.z_xy == pytest.approx(1.0, abs=1e-8)


def test_central_difference_stencil_respects_domain(monkeypatch):
    monkeypatch.setattr(zmc, "FD_STEP", 1e-4)
    surf = catalog.builtin_surface("scherk2")
    with pytest.raises(DomainViolation):
        graph_jet(surf, PI / 2 - 1e-5, 0.0, method="central-diff")


# ---------------------------------------------------------------------------
# graph residuals
# ---------------------------------------------------------------------------

def test_zmc_residuals_vanish_pointwise():
    cases = [
        ("scherk2", "minimal", (0.3, 0.2)),
        ("scherk2max", "maximal", (0.5, -0.4)),
        ("scherkBI", "bi-soliton", (0.3, 1.0)),
    ]
    for sid, eq, (x, y) in cases:
        jet = catalog.builtin_surface(sid).exact_jet(x, y)
        assert abs(graph_residual(eq, jet)) < 1e-12


def test_paraboloid_is_a_negative_control():
    jet = catalog.builtin_surface("expr:x*x + y*y").exact_jet(1.0, 1.0)
    # (1 + 4)*2 + (1 + 4)*2 - 0 = 20
    assert graph_residual("minimal", jet) == pytest.approx(20.0, abs=1e-12)


def test_unknown_equation():
    jet = GraphJet(0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        graph_residual("euler", jet)


def test_plane_satisfies_all_three_equations():
    surf = catalog.builtin_surface("plane:0.3,-0.2")
    for eq in ("minimal", "maximal", "bi-soliton"):
        report = residual_sweep(surf, eq, surf.default_grid, tolerance=1e-10)
        assert report.passed


def test_residual_sweep_rejects_grid_outside_domain():
    surf = catalog.builtin_surface("scherk2")
    with pytest.raises(DomainViolation):
        residual_sweep(surf, "minimal", GridSpec(1.0, 2.0, -1, 1, 11, 11))


_second = st.floats(-3, 3, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(zx=st.floats(-2, 2, allow_nan=False), zy=st.floats(-2, 2, allow_nan=False),
       a1=_second, a2=_second, a3=_second, b1=_second, b2=_second, b3=_second)
def test_residual_linear_in_second_derivatives(zx, zy, a1, a2, a3, b1, b2, b3):
    for eq in ("minimal", "maximal", "bi-soliton"):
        combined = graph_residual(eq, GraphJet(0, zx, zy, a1 + b1, a2 + b2, a3 + b3))
        parts = (graph_residual(eq, GraphJet(0, zx, zy, a1, a2, a3))
                 + graph_residual(eq, GraphJet(0, zx, zy, b1, b2, b3)))
        assert abs(combined - parts) <= 1e-13 * (1 + abs(combined))


def test_complexified_minimal_equation_maps_to_bi_soliton():
    # Substituting y -> i*y in the complexified log(cos y / cos x) surface turns
    # the minimal residual into minus the bi-soliton residual of log(cosh y / cos x).
    complexified = catalog.builtin_surface("expr:log(cos(y)/cos(x))")
    bi = catalog.builtin_surface("scherkBI")
    rng = random.Random(11)
    for _ in range(20):
        x = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3))
        y = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3))
        r_minimal = graph_residual("minimal", complexified.exact_jet(x, 1j * y))
        r_bi = graph_residual("bi-soliton", bi.exact_jet(x, y))
        assert abs(r_minimal + r_bi) < 1e-9


# Each equation with its own coefficients, as graph_residual wrote them before it
# was one formula over the equation's metric: minimal and maximal keep their
# bits, and bi-soliton is minus this form.
_VERBATIM = {
    "minimal": lambda zx, zy, zxx, zxy, zyy:
        (1 + zx * zx) * zyy - 2 * zx * zy * zxy + (1 + zy * zy) * zxx,
    "maximal": lambda zx, zy, zxx, zxy, zyy:
        (1 - zx * zx) * zyy + 2 * zx * zy * zxy + (1 - zy * zy) * zxx,
    "bi-soliton": lambda zx, zy, zxx, zxy, zyy:
        (1 - zy * zy) * zxx + 2 * zx * zy * zxy - (1 + zx * zx) * zyy,
}


def _random_jets(kind, size=3000, seed=20):
    """Real or complex jets, each entry scaled by a power of ten from 1e-3 to 1e2."""
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(6, size)) * 10.0 ** rng.integers(-3, 3, size=(6, size))
    if kind == "complex":
        entries = entries + 1j * rng.normal(size=(6, size))
    return GraphJet(*entries)


def _lift_numerator(metric, jet):
    """E<X_vv,N> - 2F<X_uv,N> + G<X_uu,N> of the graph lift X_u = (1, 0, z_x),
    X_v = (0, 1, z_y) from the metric's inner product and pseudo-normal, with
    the sum of its three terms' absolute values."""
    xu, xv = (1.0, 0.0, jet.z_x), (0.0, 1.0, jet.z_y)
    n = metric.pseudo_normal(xu, xv)
    terms = (metric.inner(xu, xu) * metric.inner((0.0, 0.0, jet.z_yy), n),
             -2 * metric.inner(xu, xv) * metric.inner((0.0, 0.0, jet.z_xy), n),
             metric.inner(xv, xv) * metric.inner((0.0, 0.0, jet.z_xx), n))
    return sum(terms), sum(abs(t) for t in terms)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("eq", zmc.EQUATIONS)
def test_graph_residual_is_the_lift_numerator_of_its_metric(eq, kind):
    jet = _random_jets(kind)
    lift, size = _lift_numerator(zmc.EQUATION_METRICS[eq], jet)
    assert np.all(np.abs(graph_residual(eq, jet) - lift) <= 1e-13 * (1 + size))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("eq", zmc.EQUATIONS)
def test_graph_residual_keeps_the_verbatim_branches(eq, kind):
    jet = _random_jets(kind)
    fields = (jet.z_x, jet.z_y, jet.z_xx, jet.z_xy, jet.z_yy)
    # On arrays, and at single points as Python numbers (their own arithmetic).
    cases = [(graph_residual(eq, jet), _VERBATIM[eq](*fields))]
    for k in range(100):
        point = [f[k].item() for f in fields]
        cases.append((graph_residual(eq, GraphJet(0.0, *point)), _VERBATIM[eq](*point)))
    for r, old in cases:
        if eq == "bi-soliton":
            assert np.all(np.abs(r + old) <= 1e-13 * (1 + np.abs(old)))
        else:
            assert np.asarray(r).tobytes() == np.asarray(old).tobytes()


# ---------------------------------------------------------------------------
# signature metrics and the parametric numerator
# ---------------------------------------------------------------------------

def test_signature_metric_validation():
    assert SignatureMetric((1, 1, -1)) == LORENTZ3
    with pytest.raises(ValueError):
        SignatureMetric((-1, 1, 1))
    with pytest.raises(ValueError):
        SignatureMetric((1, 1, 0))


class _Formula:
    """A sampler whose ``points`` are its closed-form ``coords``, which never fail."""

    def points(self, u, v):
        return self.coords(u, v), [None] * u.size


class _Plane(_Formula):
    def coords(self, u, v):
        return (u, v, np.zeros_like(u))


class _Sphere(_Formula):
    def coords(self, u, v):
        return (np.cos(u) * np.cos(v), np.sin(u) * np.cos(v), np.sin(v))


class _Pinched(_Formula):
    def coords(self, u, v):
        return (u, u, np.zeros_like(u))


class _Creased(_Formula):
    """Degenerate along u = 0, where X_v vanishes."""

    def coords(self, u, v):
        return (u, u * v, np.zeros_like(u))


def test_plane_numerator_is_exactly_zero():
    for metric in (EUCLID3, LORENTZ3, LORENTZ3_PRIME):
        assert parametric_zmc_numerator(_Plane(), metric, 0.3, -0.8,
                                        use_exact_jet=False) == 0.0


def test_sphere_is_a_negative_control():
    assert abs(parametric_zmc_numerator(_Sphere(), EUCLID3, 0.3, 0.0,
                                        use_exact_jet=False)) > 0.5


def test_degenerate_first_fundamental_form():
    with pytest.raises(DegenerateMetric):
        parametric_zmc_numerator(_Pinched(), EUCLID3, 0.1, 0.1, use_exact_jet=False)


def test_graph_lift_cross_validates_graph_residual():
    # Finite-difference parametric numerator vanishes wherever the exact-jet
    # minimal residual vanishes.
    surf = catalog.builtin_surface("scherk2")
    lift = zmc.GraphLiftSampler(surf)
    rng = random.Random(5)
    for _ in range(15):
        u, v = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
        assert abs(graph_residual("minimal", surf.exact_jet(u, v))) < 1e-12
        assert abs(parametric_zmc_numerator(lift, EUCLID3, u, v, use_exact_jet=False)) < 1e-6


def test_minimal_sampler_passes_parametric_check_with_finite_differences():
    data = reps.WEData.from_text("1", "w")
    sampler = reps.WESampler(data)
    grid = GridSpec(-0.8, 0.8, -0.8, 0.8, 9, 9)
    report = zmc.parametric_sweep(sampler, EUCLID3, grid, use_exact_jet=False,
                                  tolerance=1e-6)
    assert report.passed


def test_minimal_sampler_exact_jets_are_machine_precision():
    data = reps.WEData.from_text("1", "w")
    report = zmc.parametric_sweep(reps.WESampler(data), EUCLID3,
                                  GridSpec(-0.8, 0.8, -0.8, 0.8, 11, 11))
    assert report.max_abs_err < 1e-12


def test_graph_jet_from_parametric_on_a_lift():
    surf = catalog.builtin_surface("scherk2")
    lift = zmc.GraphLiftSampler(surf)
    jet = graph_jet_from_parametric(lift.point(0.4, -0.3)[2], *lift.jet(0.4, -0.3))
    direct = surf.exact_jet(0.4, -0.3)
    for name in ("z", "z_x", "z_y", "z_xx", "z_xy", "z_yy"):
        assert getattr(jet, name) == pytest.approx(getattr(direct, name), abs=1e-12)


def _solved_graph_jet(z, xu, xv, xuu, xuv, xvv):
    """The chain-rule systems of one point solved by np.linalg.solve: the
    first-order 2x2 system, then the 3x3 system of the quadratic forms."""
    z_x, z_y = np.linalg.solve(np.array([[xu[0], xu[1]], [xv[0], xv[1]]]), [xu[2], xv[2]])
    rhs = [w[2] - z_x * w[0] - z_y * w[1] for w in (xuu, xuv, xvv)]
    a = np.array([
        [xu[0] ** 2, 2 * xu[0] * xu[1], xu[1] ** 2],
        [xu[0] * xv[0], xu[0] * xv[1] + xv[0] * xu[1], xu[1] * xv[1]],
        [xv[0] ** 2, 2 * xv[0] * xv[1], xv[1] ** 2],
    ])
    return (z, z_x, z_y, *np.linalg.solve(a, rhs))


_JET_NAMES = ("z", "z_x", "z_y", "z_xx", "z_xy", "z_yy")
_GRAPH_JET_SAMPLERS = {
    "bc": reps.BCSampler(reps.BCData.from_text("0.3*r^2 + tan(r)", "cosh(s)*s")),
    "we-maximal": reps.WESampler(reps.WEData.from_text("1", "w", mode="maximal")),
    "tlms": reps.TLMSSampler(reps.TLMSData.from_text("1", "1", "u", "v")),
}


@pytest.mark.parametrize("kind", sorted(_GRAPH_JET_SAMPLERS))
def test_graph_jets_on_a_lattice_match_the_solved_systems_and_their_scalar_calls(kind):
    sampler = _GRAPH_JET_SAMPLERS[kind]
    u, v = GridSpec(0.05, 0.8, 0.05, 0.8, 11, 11).lattice()
    coords, _ = sampler.points(u, v)
    jet = sampler.jet(u, v)
    got = graph_jet_from_parametric(coords[2], *jet)
    entries = [np.broadcast_to(getattr(got, name), u.shape) for name in _JET_NAMES]
    for k in range(u.size):
        point_jet = [tuple(np.broadcast_to(c, u.shape)[k].item() for c in vec) for vec in jet]
        want = _solved_graph_jet(coords[2][k], *point_jet)
        one = graph_jet_from_parametric(coords[2][k].item(), *point_jet)
        # Both solutions lose digits as |J^-1|^2 grows (to ~4e-13 near the
        # maximal surface's singular set |w| = 1, against 50-digit solves).
        (xu, yu, _), (xv, yv, _) = point_jet[:2]
        cond = (max(map(abs, (xu, yu, xv, yv))) / (xu * yv - xv * yu)) ** 2
        tol = 2e-14 * cond * max(map(abs, want[1:]))
        for name, entry, w in zip(_JET_NAMES, entries, want):
            assert abs(entry[k] - w) <= tol
            assert getattr(one, name) == entry[k]  # the scalar call has the lattice bits


def test_a_folded_parametric_jet_is_not_a_graph():
    zero = (0.0, 0.0, 0.0)
    # X_u = (1, 2, 0) and X_v = (2, 4, 1) project onto one line of the (x, y) plane.
    with pytest.raises(DegenerateMetric, match="not a graph"):
        graph_jet_from_parametric(0.0, (1.0, 2.0, 0.0), (2.0, 4.0, 1.0), zero, zero, zero)
    # On arrays, one folded point is enough: the second point's X_u is (1, 0, 0).
    xu = (np.array([1.0, 1.0]), np.array([2.0, 0.0]), np.zeros(2))
    with pytest.raises(DegenerateMetric, match="not a graph"):
        graph_jet_from_parametric(np.zeros(2), xu, (2.0, 4.0, 1.0), zero, zero, zero)


def test_parametric_check_is_local_where_the_path_is_singular():
    # Straight paths from zeta0 = 1 to the lattice points on the negative real
    # axis pass through the pole of f = 1/w, so point() fails there; the exact
    # jet needs only the integrands at each point, so the sweep still runs.
    sampler = reps.WESampler(reps.WEData.from_text("1/w", "w", zeta0=1.0))
    grid = GridSpec(-1.2, -0.8, -0.2, 0.2, 3, 3)
    with pytest.raises((reps.SingularPath, reps.NoConvergence)):
        sampler.point(-1.2, 0.0)
    report = zmc.parametric_sweep(sampler, EUCLID3, grid)
    assert report.points_checked == 9
    assert report.passed and report.max_abs_err < 1e-14


@pytest.mark.parametrize("surface_id", ["scherk2", "helicoid", "scherkBI",
                                        "expr:log(cos(y)/cos(x))"])
def test_graph_and_parametric_central_differences_share_one_stencil(surface_id, monkeypatch):
    # The parametric stencil of the lift (x, y, Z(x, y)), one point and one
    # shift at a time, evaluates Z at the same points as the stacked graph
    # stencil, so its z entries agree bit for bit (an expr: surface runs its
    # tape on the one-element arrays of ``point`` as on the stack).
    monkeypatch.setattr(zmc, "FD_STEP", 1e-3)
    surf = catalog.builtin_surface(surface_id)
    lift = zmc.GraphLiftSampler(surf)
    for x, y in ((0.3, -0.2), (-0.45, 0.61), (0.05, 0.4)):
        graph = zmc.graph_jet(surf, x, y, method="central-diff")
        parametric = per_shift_central_jet(lambda u, v: np.asarray(lift.point(u, v)), x, y, 1e-3)
        assert [entry[2] for entry in parametric] == [
            graph.z, graph.z_x, graph.z_y, graph.z_xx, graph.z_xy, graph.z_yy]
    # On a lattice the per-shift stencil evaluates each shift as one array.
    x, y = GridSpec(0.05, 0.9, 0.1, 0.85, 9, 7).lattice()
    graph = zmc.graph_jets(surf, x, y, method="central-diff")
    parametric = per_shift_central_jet(lambda u, v: np.array(lift.points(u, v)[0]), x, y, 1e-3)
    for entry, name in zip(parametric, ("z", "z_x", "z_y", "z_xx", "z_xy", "z_yy")):
        assert entry[2].tobytes() == getattr(graph, name).tobytes(), name


# ---------------------------------------------------------------------------
# report reduction: first maximal error wins; a non-finite residual is a
# DomainViolation naming the first ten such lattice points (row-major)
# ---------------------------------------------------------------------------

_SMALL = GridSpec(-1, 1, -1, 1, 5, 5)
_SMALL_FIRST_TEN = [point for _, point in _SMALL.points()][:10]


def test_non_finite_residual_fails_the_report():
    # The exact jet of this plane overflows to inf * 0 = nan at every point,
    # so the sweep raises instead of reporting a nan maximum.
    with pytest.raises(DomainViolation, match=r"^25 grid points have no finite residual "
                       r"in residual:minimal:plane:") as info:
        residual_sweep(catalog.builtin_surface("plane:1e200,1e200"), "minimal", _SMALL)
    assert info.value.points == _SMALL_FIRST_TEN


def test_overflowing_parametric_point_is_non_finite():
    lift = zmc.GraphLiftSampler(catalog.builtin_surface("plane:1e200,1e200"))
    assert math.isnan(parametric_zmc_numerator(lift, EUCLID3, 0.5, 0.5))
    with pytest.raises(DomainViolation, match=r"^25 grid points have no finite residual "
                       r"in parametric-zmc$") as info:
        zmc.parametric_sweep(lift, EUCLID3, _SMALL)
    assert info.value.points == _SMALL_FIRST_TEN


def test_degenerate_sweep_names_the_first_degenerate_lattice_point():
    with pytest.raises(DegenerateMetric, match=r"degenerate at \(-1\.0, -1\.0\)$"):
        zmc.parametric_sweep(_Pinched(), EUCLID3, _SMALL, use_exact_jet=False)
    with pytest.raises(DegenerateMetric, match=r"degenerate at \(0\.0, -1\.0\)$"):
        zmc.parametric_sweep(_Creased(), EUCLID3, _SMALL, use_exact_jet=False)


@pytest.mark.parametrize("sampler, metric, grid, poles", [
    # f = 1/w has its pole at the lattice point 0
    (reps.WESampler(reps.WEData.from_text("1/w", "w", zeta0=1.0)), EUCLID3,
     GridSpec(-0.2, 0.2, -0.2, 0.2, 3, 3), [(0.0, 0.0)]),
    # F' = 1/r has its pole along the lattice row r = 0
    (reps.BCSampler(reps.BCData.from_text("log(r)", "s")), LORENTZ3_PRIME,
     GridSpec(0, 0.8, 0, 0.8, 3, 3), [(0.0, 0.0), (0.0, 0.4), (0.0, 0.8)]),
], ids=["we", "bc"])
def test_pole_in_a_parametric_jet_fails_the_report(sampler, metric, grid, poles):
    with pytest.raises(DomainViolation, match=f"^{len(poles)} grid points have no finite "
                       "residual in parametric-zmc$") as info:
        zmc.parametric_sweep(sampler, metric, grid)
    assert info.value.points == poles


@pytest.mark.parametrize("sweep", [
    lambda: residual_sweep(catalog.builtin_surface("helicoid"), "minimal",
                           GridSpec(1e300, 1.7e308, 1, 2, 3, 3)),
    lambda: zmc.parametric_sweep(reps.WESampler(reps.WEData.from_text("1", "w")), EUCLID3,
                                 GridSpec(1e160, 2e160, 0, 1, 3, 3)),
    lambda: zmc.parametric_sweep(reps.TLMSSampler(reps.TLMSData.from_text("1", "1", "u", "v")),
                                 LORENTZ3, GridSpec(7e102, 8e102, 7e102, 8e102, 3, 3)),
    lambda: zmc.parametric_sweep(reps.BCSampler(reps.BCData.from_text("r", "s")),
                                 LORENTZ3_PRIME, GridSpec(1e200, 2e200, 1e200, 2e200, 3, 3)),
], ids=["helicoid-exact", "we", "tlms", "bc"])
def test_overflowing_jets_on_extreme_lattices_raise_without_a_warning(sweep):
    # Each jet overflows at every point of its 3 x 3 lattice: the sweep names
    # all nine points, and no numpy warning escapes on the way.
    with warnings.catch_warnings(), pytest.raises(DomainViolation) as info:
        warnings.simplefilter("error")
        sweep()
    assert str(info.value).startswith("9 grid points have no finite residual in ")
    assert len(info.value.points) == 9


class _HugePlane(_Formula):
    """The plane (1e100 u, 1e100 v, 0), with a constant jet: E = G = 1e200."""

    def coords(self, u, v):
        return (1e100 * u, 1e100 * v, np.zeros_like(u))

    def jet(self, u, v):
        return ((1e100, 0.0, 0.0), (0.0, 1e100, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                (0.0, 0.0, 0.0))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "central-diff"])
def test_overflowing_normalization_is_nan_not_zero(exact):
    # The numerator is 0, but (|E|+|F|+|G|)^2 = (2e200)^2 overflows.
    assert math.isnan(parametric_zmc_numerator(_HugePlane(), EUCLID3, 0.3, 0.2,
                                               use_exact_jet=exact))
    with pytest.raises(DomainViolation, match="^25 grid points have no finite") as info:
        zmc.parametric_sweep(_HugePlane(), EUCLID3, _SMALL, use_exact_jet=exact)
    assert info.value.points == _SMALL_FIRST_TEN


def test_tied_residuals_report_the_first_lattice_point():
    surf = catalog.builtin_surface("scherk2")
    report = residual_sweep(surf, "minimal", surf.default_grid)
    assert report.points_checked == 1681
    assert report.max_abs_err == 0.0
    assert report.worst_point["coords"] == [-1.0, -1.0]


def test_tied_parametric_maxima_report_the_first_lattice_point():
    sampler = reps.TLMSSampler(reps.TLMSData.from_text("1", "1", "u", "v"))
    grid = GridSpec(0.0, 0.8, 0.0, 0.8, 21, 21)
    report = zmc.parametric_sweep(sampler, LORENTZ3, grid)
    errors = [(abs(parametric_zmc_numerator(sampler, LORENTZ3, u, v)), [u, v])
              for _, (u, v) in grid.points()]
    tied = [coords for err, coords in errors if err == report.max_abs_err]
    assert report.max_abs_err == max(err for err, _ in errors)
    assert len(tied) > 1
    assert report.worst_point["coords"] == tied[0]


# ---------------------------------------------------------------------------
# sweeps on extreme finite lattices
# ---------------------------------------------------------------------------

_EXTREME_AXIS = st.lists(_EXTREME_BOUNDS, min_size=2, max_size=2, unique=True).map(sorted)
_SWEEP_SURFACES = ["scherk2", "scherk1", "helicoid", "scherk2max", "scherkBI",
                   "expr:log(cos(y)/cos(x))"]


def _extreme_grid(u, v, shape):
    """The lattice of the drawn bounds, or None where GridSpec refuses them."""
    try:
        return GridSpec(*u, *v, *shape)
    except ValueError:
        return None


@settings(max_examples=150, deadline=None)
@given(surface_id=st.sampled_from(_SWEEP_SURFACES), eq=st.sampled_from(zmc.EQUATIONS),
       method=st.sampled_from(["exact", "central-diff"]), u=_EXTREME_AXIS, v=_EXTREME_AXIS,
       shape=st.tuples(st.integers(2, 4), st.integers(2, 4)))
def test_residual_sweeps_on_extreme_lattices_give_finite_reports_or_domain_violations(
        surface_id, eq, method, u, v, shape):
    surface = catalog.builtin_surface(surface_id)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = _extreme_grid(u, v, shape)
        if grid is None:
            return
        try:
            report = residual_sweep(surface, eq, grid, method=method)
        except DomainViolation:
            return
    assert math.isfinite(report.max_abs_err) and math.isfinite(report.mean_abs_err)
    assert report.points_checked == grid.nu * grid.nv


_PARAMETRIC_SAMPLERS = {
    "we": reps.WESampler(reps.WEData.from_text("1", "w")),
    "we-maximal": reps.WESampler(reps.WEData.from_text("1 + 0.2*w", "0.4*w", mode="maximal")),
    "tlms": reps.TLMSSampler(reps.TLMSData.from_text("1 + u^2", "2 - v", "u", "v^2")),
    "bc": reps.BCSampler(reps.BCData.from_text("r + r^3", "sin(s)")),
    "lift-scherk2": zmc.GraphLiftSampler(catalog.builtin_surface("scherk2")),
    "lift-scherkBI": zmc.GraphLiftSampler(catalog.builtin_surface("scherkBI")),
}
# The typed errors of a sweep: a point outside the check's domain, a failing
# quadrature or expression of a central-difference stencil, a degenerate metric.
_PARAMETRIC_ERRORS = (DomainViolation, reps.SingularPath, reps.NoConvergence, EvalDomainError,
                      DegenerateMetric)


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(sorted(_PARAMETRIC_SAMPLERS)),
       metric=st.sampled_from([EUCLID3, LORENTZ3, LORENTZ3_PRIME]), exact=st.booleans(),
       u=_EXTREME_AXIS, v=_EXTREME_AXIS, shape=st.tuples(st.integers(2, 3), st.integers(2, 3)))
# The stencil's differences of the lattice points at 1.7e308 overflow.
@example(kind="lift-scherk2", metric=EUCLID3, exact=False, u=[0.0, 1.7e308], v=[0.0, 1.0],
         shape=(2, 2))
def test_parametric_sweeps_on_extreme_lattices_give_finite_reports_or_typed_errors(
        kind, metric, exact, u, v, shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = _extreme_grid(u, v, shape)
        if grid is None:
            return
        try:
            report = zmc.parametric_sweep(_PARAMETRIC_SAMPLERS[kind], metric, grid,
                                          use_exact_jet=exact)
        except _PARAMETRIC_ERRORS:
            return
    assert math.isfinite(report.max_abs_err) and math.isfinite(report.mean_abs_err)
    assert report.points_checked == grid.nu * grid.nv
