"""Whole-lattice evaluation of the closed forms against their one-point case.

Every catalog height, jet, domain predicate, identity term and guard is one
numpy formula; a scalar query runs its one-point case (``zmc.one_point``) and
a sweep runs it on whole lattices.
These tests check that the two give the same bits (``repr``, so signed zeros
count), that each sweep equals a per-point loop over the scalar calls, and
that the formulas agree with a 50-digit mpmath oracle.
"""

import cmath
import math
import random

import numpy as np
import pytest

from zmcsurf import catalog, expr, foliation, zmc
from zmcsurf.catalog import builtin_surface, identity_terms
from zmcsurf.errors import DomainViolation
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


def test_expr_one_element_arrays_are_lattice_entries_and_0d_is_the_tree_walk():
    text = "log(cos(y)/cos(x))"
    surface, tree = builtin_surface(f"expr:{text}"), expr.parse_xy(text)
    u, v = GridSpec(0.05, 0.9, 0.1, 0.85, 23, 19).lattice()
    heights, jets = surface.height(u, v), surface.exact_jet(u, v)
    stencil = zmc.graph_jets(surface, u, v, method="central-diff")
    for k, (x, y) in enumerate(zip(u.tolist(), v.tolist())):
        one = surface.height(np.array([x]), np.array([y]))
        assert one.shape == (1,) and repr(complex(one[0])) == repr(complex(heights[k]))
        jet = surface.exact_jet(np.array([x]), np.array([y]))
        fd = zmc.graph_jet(surface, x, y, method="central-diff")
        for name in JET_FIELDS:
            assert repr(float(getattr(jet, name)[0])) == repr(float(getattr(jets, name)[k]))
            assert repr(float(getattr(fd, name))) == repr(float(getattr(stencil, name)[k]))
        value = surface.height(x, y)
        assert type(value) is complex and repr(value) == repr(tree.eval(x, y))
    # the tree walk's domain error is a nan height at a 0-d point
    assert cmath.isnan(builtin_surface("expr:log(x) + y").height(0.0, 1.0))


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


# The log-ratio decompositions go last, so the other cases keep their ids.
@pytest.mark.parametrize("identity_id, n, params", _IDENTITIES[:3] + _IDENTITIES[5:]
                         + _IDENTITIES[3:5])
def test_identity_sweep_equals_the_per_point_loop(identity_id, n, params):
    inst = identity_terms(identity_id, n, params)
    grid = {"scherk2-decomp": GridSpec(-1, 1, -1, 1, 13, 11),
            "scherk2max-decomp": GridSpec(-1, 1, -1, 1, 13, 11),
            "scherkBI-decomp": GridSpec(-1, 1, -1, 1, 13, 11),
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


def per_shift_central_jet(f, u, v, h):
    """The 5-point central-difference jet one stencil shift at a time: f is called
    once per shift, in the order the formulas first use the shifts.  The
    reference for ``zmc._central_jet``, which combines one stacked evaluation."""
    memo = {}

    def at(di, dj):
        if (di, dj) not in memo:
            memo[di, dj] = f(u + di * h if di else u, v + dj * h if dj else v)
        return memo[di, dj]

    d1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))
    z = at(0, 0)
    zu = sum(c * at(d, 0) for d, c in d1) / (12 * h)
    zv = sum(c * at(0, d) for d, c in d1) / (12 * h)
    zuu = (-at(2, 0) + 16 * at(1, 0) - 30 * z + 16 * at(-1, 0) - at(-2, 0)) / (12 * h * h)
    zvv = (-at(0, 2) + 16 * at(0, 1) - 30 * z + 16 * at(0, -1) - at(0, -2)) / (12 * h * h)
    zuv = sum(ci * cj * at(di, dj) for di, ci in d1 for dj, cj in d1) / (144 * h * h)
    return z, zu, zv, zuu, zuv, zvv


def per_shift_graph_jets(surface, x, y, h=zmc.FD_STEP):
    """Central-difference graph jets with one ``domain_ok`` and one ``heights``
    call per stencil shift: the first failing shift, di-major, raises with its
    first five points."""
    shape = np.broadcast(x, y).shape
    for di in range(-2, 3):
        for dj in range(-2, 3):
            px, py = np.broadcast_arrays(x + di * h, y + dj * h)
            bad = ~np.broadcast_to(surface.domain_ok(px, py, 0.0), shape)
            if bad.any():
                raise DomainViolation(f"stencil leaves the domain of {surface.id!r}",
                                      list(zip(px[bad].tolist(), py[bad].tolist()))[:5])
    with np.errstate(all="ignore"):
        return zmc.GraphJet(*per_shift_central_jet(surface.heights, x, y, h))


_RESIDUAL_SURFACES = ["scherk2", "helicoid", "scherk1", "scherk2max", "scherkBI",
                      "plane:0.3,-0.2", "expr:log(cos(y)/cos(x))"]


@pytest.mark.parametrize("surface", [builtin_surface(s) for s in _RESIDUAL_SURFACES]
                         + [LeafSurface(0.5)], ids=_RESIDUAL_SURFACES + ["leaf"])
@pytest.mark.parametrize("method", ["exact", "central-diff"])
def test_residual_sweep_equals_the_per_point_loop(surface, method):
    surface_id = surface.id
    eq = catalog.kind_equation(surface.kind) or "minimal"
    g = surface.default_grid
    grid = GridSpec(g.u_min, g.u_max, g.v_min, g.v_max, 9, 7)
    points = [xy for _, xy in grid.points()]
    if surface_id.startswith("expr:") and method == "exact":
        # One point's exact jet of an expr: surface is the tree walk, a
        # lattice's the tape: the same values up to rounding.
        report = zmc.residual_sweep(surface, eq, grid, method=method)
        loop = [abs(zmc.graph_residual(eq, zmc.graph_jet(surface, *xy, method=method)))
                for xy in points]
        assert report.max_abs_err == pytest.approx(max(loop), abs=1e-12)
        return
    values = []
    for xy in points:
        if method == "exact":
            jet = zmc.graph_jet(surface, *xy)
        elif surface_id.startswith("expr:"):
            # One point's stencil is a 25-point array, which runs the tape as a
            # lattice does, where the scalar height_at would run the tree walk.
            jet = zmc.graph_jet(surface, *xy, method=method)
        else:
            # The scalar stencil on the scalar height: what a point-by-point sweep did.
            jet = zmc.GraphJet(*per_shift_central_jet(surface.height_at, *xy, 1e-4))
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
    su, sv = zmc._stencil(u, v, 1e-3)
    assert su.shape == sv.shape == (25, 6)
    lattice = zmc._central_jet(f(su, sv), 1e-3)
    assert len(calls) == 1
    want = per_shift_central_jet(f, u, v, 1e-3)
    assert len(calls) == 26
    assert [a.tobytes() for a in lattice] == [b.tobytes() for b in want]
    for k in range(u.size):
        one = zmc._central_jet(f(*zmc._stencil(float(u[k]), float(v[k]), 1e-3)), 1e-3)
        assert [repr(float(a)) for a in one] == [repr(float(b[k])) for b in lattice]


# Windows inside each surface's domain, and two for the expr: graph.
_STACKED_CASES = [
    *((sid, builtin_surface(sid).default_grid) for sid in
      ("scherk2", "scherk1", "helicoid", "scherk2max", "scherkBI")),
    ("expr:log(cos(y)/cos(x))", GridSpec(-0.8, 0.8, -0.8, 0.8, 9, 9)),
    ("expr:log(cos(y)/cos(x))", GridSpec(0.05, 0.9, 0.1, 0.85, 23, 19)),
]


@pytest.mark.parametrize("surface_id, grid", _STACKED_CASES,
                         ids=[f"{sid}-{k}" for k, (sid, _) in enumerate(_STACKED_CASES)])
def test_stacked_graph_jets_equal_the_per_shift_stencil(surface_id, grid):
    surface = builtin_surface(surface_id)
    x, y = grid.lattice()
    got = zmc.graph_jets(surface, x, y, method="central-diff")
    want = per_shift_graph_jets(surface, x, y)
    for name in JET_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("surface", [builtin_surface(s) for s in _RESIDUAL_SURFACES]
                         + [LeafSurface(0.5)], ids=_RESIDUAL_SURFACES + ["leaf"])
@pytest.mark.parametrize("method", ["exact", "central-diff"])
def test_graph_jets_on_the_axes_equal_the_jets_on_the_lattice(surface, method):
    # nu != nv, so a transposed axis cannot pass.
    g = surface.default_grid
    grid = GridSpec(g.u_min, g.u_max, g.v_min, g.v_max, 9, 6)
    got = zmc.graph_jets(surface, *grid.axes(), method=method)
    want = zmc.graph_jets(surface, *grid.lattice(), method=method)
    for name in JET_FIELDS:
        entry = np.broadcast_to(getattr(got, name), (9, 6)).reshape(-1)
        assert entry.dtype == getattr(want, name).dtype, name
        assert entry.tobytes() == np.broadcast_to(getattr(want, name), (54,)).tobytes(), name


@pytest.mark.parametrize("surface_id, grid", [
    # the row u = 1.5708 leaves at shift (0, -2): its first five of seven points
    ("scherk2", GridSpec(1.5703, 1.5708, -0.3, 0.3, 6, 7, 0.0)),
    # the column v = 1e-4 hits the tan pole line y = 0 at shift (-2, -2)
    ("scherk1", GridSpec(-1.0, 1.0, 1e-4, 0.5, 8, 3, 0.0)),
])
def test_a_failing_stencil_on_the_axes_raises_the_lattice_error(surface_id, grid):
    surface = builtin_surface(surface_id)
    with pytest.raises(DomainViolation) as want:
        per_shift_graph_jets(surface, *grid.lattice())
    for points in (grid.lattice(), grid.axes()):
        with pytest.raises(DomainViolation) as got:
            zmc.graph_jets(surface, *points, method="central-diff")
        assert str(got.value) == str(want.value)
        assert repr(got.value.points) == repr(want.value.points)
    assert len(want.value.points) == 5


@pytest.mark.parametrize("x0, tape_calls", [(0.0, 1), (-0.0, 2)])
def test_expr_stencil_takes_its_heights_from_the_domain_check(monkeypatch, x0, tape_calls):
    # The domain check leaves its heights for a stencil with the same bits; an
    # unshifted -0.0 is 0.0 in the check (x + 0.0) and is evaluated again.
    x, y = np.array([x0, 0.1, -0.3, 0.5]), np.array([0.2, 0.0, 0.4, -0.6])
    shapes = []
    call = expr.Tape.__call__

    def recording(self, *arrays):
        shapes.append(np.broadcast(*arrays).shape)
        return call(self, *arrays)

    monkeypatch.setattr(expr.Tape, "__call__", recording)
    got = zmc.graph_jets(builtin_surface("expr:log(cos(y)/cos(x))"), x, y, method="central-diff")
    assert shapes == [(5, 5, 4)] * tape_calls  # the broadcast of the stencil's axes
    monkeypatch.undo()
    want = per_shift_graph_jets(builtin_surface("expr:log(cos(y)/cos(x))"), x, y)
    for name in JET_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("surface_id, x, y", [
    # x + 2 h crosses pi/2 for two points: the first failing shift is (2, -2)
    ("scherk2", np.linspace(1.5705, 1.57075, 7), np.linspace(-0.3, 0.3, 7)),
    # x + h crosses it at all 12 points: shift (1, -2) reports its first five
    ("scherk2", np.full(12, 1.57075), np.linspace(-0.3, 0.3, 12)),
    # y - h or y - 2 h hits the tan pole line y = 0
    ("scherk1", np.linspace(-1.0, 1.0, 9), np.resize([1e-4, 2e-4, 3e-4], 9)),
    ("helicoid", np.array([0.5, 1.5e-4, -1e-4, 2.0]), np.array([0.1, 0.2, -0.3, 0.4])),
    ("expr:log(cos(y)/cos(x))", np.linspace(0.0, 1.5707, 12), np.linspace(1.5707, 0.0, 12)),
    ("scherk2", 1.5707, 0.2),
])
def test_stencil_leaving_the_domain_raises_the_per_shift_error(surface_id, x, y):
    surface = builtin_surface(surface_id)
    with pytest.raises(DomainViolation) as want:
        per_shift_graph_jets(surface, x, y)
    with pytest.raises(DomainViolation) as got:
        zmc.graph_jets(surface, x, y, method="central-diff")
    assert str(got.value) == str(want.value)
    assert repr(got.value.points) == repr(want.value.points)
    assert got.value.points


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
