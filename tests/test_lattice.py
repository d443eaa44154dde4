"""Whole-lattice evaluation of the closed forms against their one-point case.

Every catalog height, jet, domain predicate, identity term and guard is one
numpy formula; a scalar query runs its one-point case (``zmc.one_point``) and
a sweep runs it on whole lattices.
These tests check that the two give the same bits (``repr``, so signed zeros
count), that each sweep equals a per-point loop over the scalar calls, and
that the formulas agree with a 50-digit mpmath oracle.
"""

import math
import random

import numpy as np
import pytest

from zmcsurf import catalog, foliation, zmc
from zmcsurf.catalog import builtin_surface, identity_terms
from zmcsurf.foliation import LeafSurface
from zmcsurf.meshio import GridSpec
from zmcsurf.report import ErrorStats

PI = math.pi
SURFACES = ("scherk2", "scherk1", "scherk1:1.1", "helicoid", "scherk2max", "scherkBI",
            "plane:0.3,-0.2")
JET_FIELDS = ("z", "z_x", "z_y", "z_xx", "z_xy", "z_yy")


def _window(surface):
    """The default grid widened past its singular lines, so some points fail."""
    g = surface.default_grid
    wu, wv = g.u_max - g.u_min, g.v_max - g.v_min
    return GridSpec(g.u_min - 0.8 * wu, g.u_max + 0.8 * wu, g.v_min - 0.8 * wv,
                    g.v_max + 0.8 * wv, 23, 19)


def _complex_probes(seed, count=40):
    rng = random.Random(seed)
    return [(complex(rng.uniform(-2, 2), rng.uniform(-0.6, 0.6)),
             complex(rng.uniform(-2, 2), rng.uniform(-0.6, 0.6))) for _ in range(count)]


# ---------------------------------------------------------------------------
# one point equals the lattice entry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("surface_id", SURFACES)
def test_scalar_height_equals_the_lattice_entry(surface_id):
    surface = builtin_surface(surface_id)
    grid = _window(surface)
    points, valid = surface.sample_grid(grid)
    ok = surface.domain_ok(points[:, 0], points[:, 1], grid.margin)
    heights = surface.heights(points[:, 0], points[:, 1])
    for k, (x, y, z) in enumerate(points.tolist()):
        assert surface.domain_ok(x, y, grid.margin) is bool(ok[k]) is bool(valid[k])
        try:
            h = surface.height_at(x, y)
        except catalog.DomainViolation:
            assert math.isnan(heights[k])
            continue
        assert repr(h) == repr(float(heights[k]))
        if valid[k]:
            assert repr(h) == repr(z)


@pytest.mark.parametrize("surface_id", SURFACES)
def test_scalar_complex_height_and_jet_equal_the_lattice_entry(surface_id):
    surface = builtin_surface(surface_id)
    probes = _complex_probes(3)
    x = np.array([p[0] for p in probes])
    y = np.array([p[1] for p in probes])
    with np.errstate(all="ignore"):
        heights = surface.height(x, y)
        jets = zmc.graph_jets(surface, x, y)
    for k, (px, py) in enumerate(probes):
        try:
            assert repr(surface.evaluate(px, py)) == repr(complex(heights[k]))
        except catalog.DomainViolation:
            assert not np.isfinite(heights[k])
        one = zmc.graph_jet(surface, px, py)
        for name in JET_FIELDS:
            assert repr(complex(getattr(one, name))) == repr(complex(getattr(jets, name)[k]))


@pytest.mark.parametrize("surface", [builtin_surface(s) for s in SURFACES]
                         + [LeafSurface(0.7)], ids=list(SURFACES) + ["leaf"])
def test_scalar_real_jet_equals_the_lattice_entry(surface):
    u, v = GridSpec(0.31, 2.45, 0.27, 2.1, 13, 11).lattice()
    jets = zmc.graph_jets(surface, u, v)
    for k, (x, y) in enumerate(zip(u.tolist(), v.tolist())):
        one = zmc.graph_jet(surface, x, y)
        for name in JET_FIELDS:
            assert repr(float(getattr(one, name))) == repr(float(getattr(jets, name)[k]))


_IDENTITIES = [
    ("scherk2-decomp", 3, None),
    ("kamien-decomp", 2, {"beta": 0.7}),
    ("helicoid-decomp", 3, None),
    ("scherk2max-decomp", 2, None),
    ("scherkBI-decomp", 3, None),
    ("general-scaled", 2, {"surface": "scherk2", "a": [1.3, 0.8], "b": [0.1, -0.2],
                           "d": [0.05, 0.3], "c": [2.0, -0.5]}),
]


@pytest.mark.parametrize("identity_id, n, params", _IDENTITIES)
def test_scalar_identity_terms_and_guards_equal_the_lattice_entry(identity_id, n, params):
    inst = identity_terms(identity_id, n, params)
    u, v = GridSpec(-2.9, 3.1, -2.7, 2.6, 17, 13).lattice()
    probes = _complex_probes(5) + list(zip(u.tolist(), v.tolist()))
    x = np.array([complex(p[0]) for p in probes])
    y = np.array([complex(p[1]) for p in probes])
    for term in (inst.lhs,) + inst.rhs_terms:
        with np.errstate(all="ignore"):
            values = term.fn(x, y)
            for k in range(len(probes)):
                one = term.fn(x[k:k + 1], y[k:k + 1])[0]
                assert repr(complex(one)) == repr(complex(values[k]))
        guards = np.broadcast_to(term.guard(u, v, 0.05), u.shape)
        for k in range(u.size):
            assert bool(term.guard(float(u[k]), float(v[k]), 0.05)) is bool(guards[k])
    rng = np.random.default_rng(1)
    lhs = x + rng.normal(size=x.size) * 1e-9
    for policy in catalog.BRANCH_POLICIES:
        errors = catalog.branch_error(policy, lhs, x)
        for k in range(x.size):
            one = catalog.branch_error(policy, complex(lhs[k]), complex(x[k]))
            assert repr(float(one)) == repr(float(errors[k]))


def test_scalar_leaf_height_equals_the_lattice_entry():
    u, v = GridSpec(-9.0, 9.5, -3.0, 3.0, 37, 29).lattice()
    heights = foliation.leaf_height(u, v)
    for k, (x, y) in enumerate(zip(u.tolist(), v.tolist())):
        assert repr(float(foliation.leaf_height(x, y))) == repr(float(heights[k]))


# ---------------------------------------------------------------------------
# sweeps equal a per-point loop over the scalar calls
# ---------------------------------------------------------------------------

def _loop_report(points, values, subject):
    stats = ErrorStats()
    for xy, (err, lhs, rhs) in zip(points, values):
        stats.add(err, xy, lhs, rhs)
    return {"max": repr(stats.max), "mean": repr(stats.mean), "count": stats.count,
            "worst": repr(stats.worst), "subject": subject}


def _report(report):
    return {"max": repr(report.max_abs_err), "mean": repr(report.mean_abs_err),
            "count": report.points_checked, "worst": repr(report.worst_point),
            "subject": report.subject}


@pytest.mark.parametrize("identity_id, n, params", _IDENTITIES[:3] + _IDENTITIES[5:])
def test_identity_sweep_equals_the_per_point_loop(identity_id, n, params):
    inst = identity_terms(identity_id, n, params)
    grid = {"scherk2-decomp": GridSpec(-1, 1, -1, 1, 13, 11),
            "kamien-decomp": GridSpec(-2, 2, 0.3, 3.0, 13, 11),
            "helicoid-decomp": GridSpec(0.1, 2.9, -2, 2, 13, 11),
            "general-scaled": GridSpec(-1, 1, -1, 1, 13, 11)}[identity_id]
    values = []
    for _, (x, y) in grid.points():
        zx, zy = np.array([x], dtype=complex), np.array([y], dtype=complex)
        lhs = complex(inst.lhs.fn(zx, zy)[0])
        rhs = complex(sum(t.fn(zx, zy) for t in inst.rhs_terms)[0])
        values.append((float(catalog.branch_error(inst.branch_policy, lhs, rhs)), lhs, rhs))
    want = _loop_report([xy for _, xy in grid.points()], values, f"identity:{inst.id}")
    assert _report(catalog.verify_identity(inst, grid)) == want


@pytest.mark.parametrize("surface_id", ["scherk2", "helicoid", "scherk1", "scherkBI",
                                        "expr:log(cos(y)/cos(x))"])
@pytest.mark.parametrize("method", ["exact", "central-diff"])
def test_residual_sweep_equals_the_per_point_loop(surface_id, method):
    surface = builtin_surface(surface_id)
    eq = catalog.kind_equation(surface.kind) or "minimal"
    g = surface.default_grid
    grid = GridSpec(g.u_min, g.u_max, g.v_min, g.v_max, 9, 7)
    points = [xy for _, xy in grid.points()]
    if surface_id.startswith("expr:"):
        # One point of an expr: surface is the tree walk, a lattice the
        # compiled closure: the same values up to rounding, which the stencil
        # divides by 12 h^2.
        report = zmc.residual_sweep(surface, eq, grid, method=method)
        loop = [abs(zmc.graph_residual(eq, zmc.graph_jet(surface, *xy, method=method)))
                for xy in points]
        tol = 1e-12 if method == "exact" else 1e-6
        assert report.max_abs_err == pytest.approx(max(loop), abs=tol)
        return
    values = []
    for xy in points:
        if method == "exact":
            jet = zmc.graph_jet(surface, *xy)
        else:
            # The scalar stencil on the scalar height: what a point-by-point sweep did.
            jet = zmc.GraphJet(*zmc._central_jet(surface.height_at, *xy, 1e-4))
        r = float(zmc.graph_residual(eq, jet))
        values.append((abs(r), r, 0.0))
    want = _loop_report(points, values, f"residual:{eq}:{surface.id}")
    assert _report(zmc.residual_sweep(surface, eq, grid, method=method)) == want


def test_lattice_stencil_evaluates_each_of_the_25_points_once():
    calls = []

    def f(u, v):
        calls.append((u, v))
        return np.sin(u) * np.cos(2 * v)

    u, v = np.linspace(0.1, 0.9, 6), np.linspace(-0.4, 0.3, 6)
    lattice = zmc._central_jet(f, u, v, 1e-3)
    assert len(calls) == 25
    for k in range(u.size):
        one = zmc._central_jet(f, float(u[k]), float(v[k]), 1e-3)
        assert [repr(float(a)) for a in one] == [repr(float(b[k])) for b in lattice]


def test_foliation_check_equals_the_per_point_loop():
    grid = GridSpec(-3 * PI, 3 * PI, -3.0, 3.0, 41, 41)
    t_samples = [-1.0, 0.0, 2.5]
    report = foliation.foliation_check(grid, t_samples, n_random=300, seed=11)
    boundary, roundtrip = ErrorStats(), ErrorStats()
    for xb in (-3 * PI, -PI, PI, 3 * PI):
        for y in grid.v_values().tolist():
            left = float(foliation.leaf_height(xb - 1e-7, y))
            right = float(foliation.leaf_height(xb + 1e-7, y))
            boundary.add(abs(left - right), (xb, y), left, right)
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        x = rng.uniform(grid.u_min, grid.u_max)
        y = rng.uniform(grid.v_min, grid.v_max)
        if math.hypot(x - 2 * PI * foliation.band_index(x), y) <= grid.margin:
            continue
        for t in t_samples:
            recovered = float(foliation.leaf_of_point(*foliation.leaf_point(x, y, t)))
            roundtrip.add(abs(recovered - t), (x, y), recovered, t)
        checked += 1
    p = report.parameters
    assert (p["boundary_pairs"], repr(p["boundary_max"]), repr(p["boundary_mean"])) == (
        boundary.count, repr(boundary.max), repr(boundary.mean))
    assert (repr(p["roundtrip_max"]), repr(p["roundtrip_mean"])) == (
        repr(roundtrip.max), repr(roundtrip.mean))
    headline = roundtrip if report.tolerance == p["roundtrip_tolerance"] else boundary
    assert repr(report.worst_point) == repr(headline.worst)


# ---------------------------------------------------------------------------
# a 50-digit oracle for the numpy formulas
# ---------------------------------------------------------------------------

def _mp_height(mp, surface_id):
    if surface_id == "scherk2":
        return lambda x, y: mp.log(mp.cos(y) / mp.cos(x))
    if surface_id == "scherk2max":
        return lambda x, y: mp.log(mp.cosh(y) / mp.cosh(x))
    if surface_id == "scherkBI":
        return lambda x, y: mp.log(mp.cosh(y) / mp.cos(x))
    if surface_id == "helicoid":
        return lambda x, y: mp.atan(y / x)
    if surface_id == "plane:0.3,-0.2":
        return lambda x, y: mp.mpf("0.3") * x + mp.mpf("-0.2") * y
    alpha = mp.mpf(1.1) if surface_id == "scherk1:1.1" else mp.pi / 2
    s1, s2 = mp.sin(alpha) / 2, mp.sin(alpha / 2)
    return lambda x, y: -mp.sec(alpha / 2) * mp.atan(mp.tanh(s1 * x) * mp.cot(s2 * y))


def _mp_point(mp, value):
    """A signed zero becomes an infinitesimal of its sign: the side of a branch
    cut that IEEE arithmetic picks."""
    def part(t):
        return mp.mpf(t) if t != 0 else mp.mpf(math.copysign(1e-40, t))
    if isinstance(value, complex):
        return mp.mpc(part(value.real), part(value.imag))
    return mp.mpf(value)


def _close(got, want, rel=2e-15):
    return abs(complex(got) - complex(want)) <= rel * (1.0 + abs(complex(want)))


# Probes on the log and atan branch cuts, with ±0.0 imaginary parts: the
# argument of log lies on the negative reals, that of atan on the imaginary
# axis beyond ±i.  In each probe every signed zero, read as an infinitesimal
# of its sign, moves the argument to the same side of the cut, so the
# one-sided limit exists and the oracle takes it.  (Where two zeros pull to
# opposite sides, e.g. scherkBI at (2+0j, 0.5+0j), the limit depends on
# their ratio and there is no value to check.)
BRANCH_CUT_PROBES = [
    ("scherk2", complex(0.0, 0.0), complex(2.0, 0.0)),
    ("scherk2", complex(0.0, 0.0), complex(2.0, -0.0)),
    ("scherkBI", complex(2.0, 0.0), complex(0.5, -0.0)),
    ("scherkBI", complex(2.0, -0.0), complex(0.5, 0.0)),
    ("helicoid", complex(1.0, 0.0), complex(0.0, 2.0)),
    ("helicoid", complex(1.0, -0.0), complex(-0.0, 2.0)),
]


@pytest.mark.parametrize("surface_id", SURFACES)
def test_heights_and_jets_match_a_50_digit_oracle(surface_id):
    mp = pytest.importorskip("mpmath").mp
    surface = builtin_surface(surface_id)
    lattice = [xy for _, xy in surface.default_grid.points()][::97]
    probes = lattice + [(x + 0.2j * math.sin(k), y - 0.15j * math.cos(k))
                        for k, (x, y) in enumerate(lattice)]
    probes += [(x, y) for sid, x, y in BRANCH_CUT_PROBES if sid == surface_id]
    f = _mp_height(mp, surface_id)
    orders = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    with mp.workdps(50):
        for x, y in probes:
            px, py = _mp_point(mp, x), _mp_point(mp, y)
            jet = zmc.graph_jet(surface, x, y)
            assert _close(surface.evaluate(x, y), f(px, py)), (x, y)
            for name, order in zip(JET_FIELDS, orders):
                want = f(px, py) if order == (0, 0) else mp.diff(f, (px, py), order)
                assert _close(getattr(jet, name), want), (x, y, name)
