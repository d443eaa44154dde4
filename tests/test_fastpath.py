"""The vector fast paths against the scalar oracles they replace.

* compiled expression evaluation against the tree walk ``expr._eval_node``;
* batched quadrature against the per-point refinement loop, kept below as a
  reference on the tree walk;
* ``sample_grid`` lattices against the per-point formulas (the
  ``reference_sample`` loop of ``test_meshio_arrays``);
* each sampler's ``points`` against one ``integrate_segment`` per integral and
  the assembly formula per point, and the central-difference parametric
  check against the same stencil over a per-point loop;
* quadrature against 50-digit mpmath integrals.
"""

import cmath

import numpy as np
import pytest
from test_lattice import per_shift_central_jet
from test_meshio_arrays import _POINT_ERRORS, _same_patch, reference_point, reference_sample

from zmcsurf import catalog, zmc
from zmcsurf.expr import (
    FUNCTIONS,
    Binary,
    Const,
    EvalDomainError,
    Power,
    Unary,
    Var,
    _eval_node,
    parse,
)
from zmcsurf.meshio import GridSpec, sample_patch
from zmcsurf.reps import (
    BCData,
    BCSampler,
    NoConvergence,
    SingularPath,
    TLMSData,
    TLMSSampler,
    WEData,
    WESampler,
    integrate_segment,
    integrate_segments,
    tlms_point,
    we_point,
)

# log and sqrt are cut along the negative reals, atan along the imaginary axis
# beyond +-i; both sides of each cut are reached through the sign of zero.
BRANCH_CUT_POINTS = (
    [complex(re, im) for re in (-2.0, -0.5, 0.0, -0.0) for im in (0.0, -0.0)]
    + [complex(re, im) for re in (0.0, -0.0) for im in (2.0, -2.0, 1.5, -1.5)]
)

# Relative agreement with the tree walk: 2 ulps.  numpy's complex tan and tanh
# use other algorithms than cmath's; both stay within about 3 ulps of the
# 50-digit value on [-3, 3]^2 but differ from each other by up to 4 ulps there.
# numpy rounds a complex product differently from CPython (fused multiply-add),
# so a power built from several products agrees to about one ulp per product.
ULP2 = 4.4e-16
EVALUATOR_CASES = (
    [(f"{name}(w)", 2 * ULP2 if name in ("tan", "tanh") else ULP2) for name in FUNCTIONS]
    + [("w^-1", ULP2), ("w^-2", ULP2), ("w^-5", 5 * ULP2), ("(1 + w)^-3", 3 * ULP2),
       ("w^7", 7 * ULP2)]
)


def _sample_points():
    rng = np.random.default_rng(20240801)
    random = rng.uniform(-3, 3, 2000) + 1j * rng.uniform(-3, 3, 2000)
    return np.concatenate([random, np.array(BRANCH_CUT_POINTS)])


@pytest.mark.parametrize("source, rel", EVALUATOR_CASES)
def test_compiled_evaluator_matches_tree_walk(source, rel):
    e = parse(source)
    points = _sample_points()
    values, errors = e.eval_array(points)
    for k, w in enumerate(points.tolist()):
        try:
            want = _eval_node(e.root, {"w": w})
        except EvalDomainError as exc:
            assert str(errors[k]) == str(exc)
            continue
        assert k not in errors
        assert abs(values[k] - want) <= rel * abs(want), (source, w, values[k], want)


def test_scalar_eval_is_the_tree_walk():
    # Bit for bit, signed zeros included, and the same error on the cuts.
    e = parse("log(w) * sqrt(w) + atan(w)")
    for w in BRANCH_CUT_POINTS:
        try:
            want = _eval_node(e.root, {"w": w})
        except EvalDomainError as exc:
            with pytest.raises(EvalDomainError) as got:
                e.eval(w)
            assert got.value.subexpr == exc.subexpr
            assert str(got.value) == str(exc)
            continue
        got = e.eval(w)
        assert repr(got) == repr(want), w


@pytest.mark.parametrize("source, at", [
    ("exp(-exp(w))", 1000.0),   # finite in numpy, but the inner node overflows
    ("1/(1/w)", 0.0),           # the inner pole is hidden by the outer division
    ("tanh(1/w) + w", 0.0),
    ("log(w)^-2", 1.0),
])
def test_hidden_intermediate_failures_raise_like_the_tree_walk(source, at):
    e = parse(source)
    with pytest.raises(EvalDomainError) as want:
        _eval_node(e.root, {"w": complex(at)})
    with pytest.raises(EvalDomainError) as got:
        e.eval(at)
    assert got.value.subexpr == want.value.subexpr
    assert str(got.value) == str(want.value)
    values, errors = e.eval_array(np.array([0.5 + 0.5j, at, 2.0]))
    assert list(errors) == [1]
    assert str(errors[1]) == str(want.value)
    assert np.isnan(values[1]) and np.isfinite(values[[0, 2]]).all()


def test_eval_array_keeps_shape_for_constant_and_identity_roots():
    w = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    for source, want in (("2", np.full((2, 2), 2 + 0j)), ("w", w)):
        values, errors = parse(source).eval_array(w)
        assert errors == {} and values.shape == (2, 2)
        assert np.array_equal(values, want) and values is not w


# ---------------------------------------------------------------------------
# batched quadrature against the per-point loop
# ---------------------------------------------------------------------------

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


def _reference_integrate(integrands, z0, z1, tol=1e-10, max_segments=1024):
    """One endpoint, one node at a time, on the scalar tree walk; the interior
    segment boundaries are probed after the nodes of each level."""
    z0, z1 = complex(z0), complex(z1)
    if z0 == z1:
        return [0j for _ in integrands]
    delta = z1 - z0

    def value(e, w):
        try:
            return _eval_node(e.root, {e.varnames[0]: w})
        except EvalDomainError as exc:
            raise SingularPath(f"integrand singular at node {w!r}: {exc}") from exc

    def composite(nseg):
        acc = [0j for _ in integrands]
        for seg in range(nseg):
            mid = (seg + 0.5) / nseg
            half = 0.5 / nseg
            for node, weight in zip(_NODES.tolist(), _WEIGHTS.tolist()):
                w = z0 + (mid + half * node) * delta
                for idx, e in enumerate(integrands):
                    acc[idx] += weight * half * value(e, w)
        for k in range(1, nseg):
            for e in integrands:
                value(e, z0 + (k / nseg) * delta)
        return [delta * v for v in acc]

    prev = composite(1)
    nseg = 2
    while nseg <= max_segments:
        cur = composite(nseg)
        if max(abs(c - p) for c, p in zip(cur, prev)) < tol:
            return cur
        prev = cur
        nseg *= 2
    raise NoConvergence("reference quadrature did not converge")


def _reference_outcome(integrands, z0, z1, max_segments):
    try:
        return _reference_integrate(integrands, z0, z1, max_segments=max_segments), None
    except (SingularPath, NoConvergence) as exc:
        return None, exc


@pytest.mark.parametrize("data, targets", [
    # exp overflows at the far nodes of [0, 2000]; 0 is a zero-length segment
    (WEData.from_text("exp(w)", "w"), [0.3 + 0.2j, 2000.0, -0.5j, 0.0, 1 + 1j]),
    # the first segment passes 1e-9 from the pole at 0 and never settles
    (WEData.from_text("1/w", "w", zeta0=complex(-1, 1e-9)),
     [complex(1, 1e-9), 0.5 + 0.5j, complex(-0.9, 1e-9)]),
    # the paths to -1 and -3 cross the pole at a segment boundary; -0.5 and
    # 0.5 + 0.5j do not
    (WEData.from_text("1/w", "w", zeta0=1.0), [-1.0, -3.0, -0.5, 0.5 + 0.5j]),
    (WEData.from_text("1/(w - 0.3)", "w"), [0.3 + 0.0j, 0.2 + 0.2j, 0.6 - 0.1j]),
])
def test_batched_quadrature_matches_per_point_reference(data, targets):
    max_segments = 64
    values, errors = integrate_segments(data.integrands, data.zeta0, targets,
                                        max_segments=max_segments)
    for k, target in enumerate(targets):
        want, want_error = _reference_outcome(data.integrands, data.zeta0, target,
                                              max_segments)
        if want_error is not None:
            assert type(errors[k]) is type(want_error)
            if isinstance(want_error, SingularPath):
                assert errors[k].__cause__.subexpr == want_error.__cause__.subexpr
            assert np.all(values[:, k] == 0)
            continue
        assert errors[k] is None
        for got, ref in zip(values[:, k], want):
            assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref))


def test_single_segment_call_raises_the_batch_error():
    data = WEData.from_text("exp(w)", "w")
    _, errors = integrate_segments(data.integrands, 0, [2000.0])
    with pytest.raises(SingularPath) as exc:
        integrate_segment(data.integrands, 0, 2000.0)
    assert str(exc.value) == str(errors[0])
    near_pole = WEData.from_text("1/w", "w", zeta0=complex(-1, 1e-9))
    with pytest.raises(NoConvergence):
        integrate_segment(near_pole.integrands, near_pole.zeta0, complex(1, 1e-9))


def test_batch_result_does_not_depend_on_its_companions():
    data = WEData.from_text("exp(w)", "sin(w)")
    targets = [0.2 + 0.1j, 0.7 - 0.4j, -0.5 + 0.6j]
    batch, _ = integrate_segments(data.integrands, 0, targets)
    for k, target in enumerate(targets):
        single = integrate_segment(data.integrands, 0, target)
        assert np.max(np.abs(batch[:, k] - single)) <= 1e-15


# ---------------------------------------------------------------------------
# whole-lattice samplers against the per-point formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sampler, grid", [
    (WESampler(WEData.from_text("exp(w)", "sin(w)")), GridSpec(-0.8, 0.8, -0.6, 0.7, 9, 7)),
    (WESampler(WEData.from_text("1 + 0.2*w", "0.4*w", mode="maximal", offset=(1, -2, 0.5)),
               theta=0.7), GridSpec(-0.6, 0.6, -0.6, 0.6, 7, 8)),
    # the paths from 1 to 0, -0.5 and -1 meet the pole of 1/w: three masked points
    (WESampler(WEData.from_text("1/w", "w", zeta0=1.0)), GridSpec(-1, 1, -0.5, 0.5, 5, 5)),
    (TLMSSampler(TLMSData.from_text("1 + u^2", "2 - v", "u", "v^2", base=(0.1, -0.2))),
     GridSpec(0, 0.8, -0.4, 0.8, 8, 6)),
    # the paths from the base u = 1 to u = 0, -0.5 and -1 meet the pole of 1/u:
    # three masked rows
    (TLMSSampler(TLMSData.from_text("1/u", "1", "u", "v", base=(1.0, 0.0))),
     GridSpec(-1, 1, 0, 0.5, 5, 4)),
    (BCSampler(BCData.from_text("r + r^3", "sin(s)")), GridSpec(-0.7, 0.8, 0, 0.8, 7, 9)),
    # F = log(r) itself fails at r = 0: one masked row
    (BCSampler(BCData.from_text("log(r)", "s")), GridSpec(-0.5, 1, 0.1, 0.9, 4, 5)),
    # numpy's complex tan rounds differently from cmath's
    (BCSampler(BCData.from_text("0.3*r^2 + tan(r)", "cosh(s)*s")),
     GridSpec(0.05, 0.9, 0.1, 0.85, 13, 11)),
])
def test_sample_grid_matches_point_sampling(sampler, grid):
    fast = sample_patch(sampler, grid)
    slow = reference_sample(sampler, grid)
    assert fast.valid_count() >= grid.nu * grid.nv - 3 * grid.nv
    assert _same_patch(fast, slow)


# ---------------------------------------------------------------------------
# a simple pole crossed by the path
# ---------------------------------------------------------------------------

def test_path_through_a_pole_is_singular_not_its_principal_value():
    # The pole of 1/w sits at t = 1/2 of the path to -1 and t = 1/4 of the path
    # to -3; Gauss nodes symmetric about it would cancel into log 1 and log 3.
    data = WEData.from_text("1/w", "w", zeta0=1.0)
    for end in (-1.0, -3.0):
        with pytest.raises(SingularPath) as exc:
            we_point(data, end)
        assert exc.value.__cause__.value == 0j
    # The path to -0.5 ends 0.5 past the pole, off every segment boundary.
    with pytest.raises(NoConvergence):
        we_point(data, -0.5)


def test_translation_path_through_a_pole_is_singular():
    data = TLMSData.from_text("1/u", "1", "u", "v", base=(1.0, 0.0))
    with pytest.raises(SingularPath):
        tlms_point(data, -1.0, 0.5)
    grid = GridSpec(-1, 1, 0, 0.5, 5, 4)     # u = -1, -0.5, 0, 0.5, 1
    sampler = TLMSSampler(data)
    for patch in (sample_patch(sampler, grid), reference_sample(sampler, grid)):
        valid = patch.valid.reshape(5, 4)
        assert valid.tolist() == [[False] * 4] * 3 + [[True] * 4] * 2


def test_we_lattice_masks_the_paths_through_the_pole():
    grid = GridSpec(-3, 1, -1, 1, 5, 3)      # zeta = u + i v, u = -3, -2, -1, 0, 1
    sampler = WESampler(WEData.from_text("1/w", "w", zeta0=1.0))
    for patch in (sample_patch(sampler, grid), reference_sample(sampler, grid)):
        valid = patch.valid.reshape(5, 3)
        assert valid[:, 1].tolist() == [False] * 4 + [True]   # v = 0 crosses 0
        assert valid[:, [0, 2]].all()


def test_boundary_probes_add_under_four_percent_of_the_nodes():
    from zmcsurf.reps import _level_rule
    for nseg in (1, 2, 64, 1024):
        t, weights = _level_rule(nseg)
        assert weights.size == 32 * nseg and t.size == 33 * nseg - 1
        assert t.size <= 1.04 * weights.size
        assert np.array_equal(t[weights.size:], np.arange(1, nseg) / nseg)


def test_translation_samplers_integrate_each_axis_once(monkeypatch):
    import zmcsurf.reps as reps
    calls = []
    original = reps.integrate_segments

    def counting(integrands, z0, z1, *args, **kwargs):
        calls.append(np.size(z1))
        return original(integrands, z0, z1, *args, **kwargs)

    monkeypatch.setattr(reps, "integrate_segments", counting)
    grid = GridSpec(0, 0.8, 0, 0.8, 6, 9)
    TLMSSampler(TLMSData.from_text("1", "1", "u", "v")).sample_grid(grid)
    BCSampler(BCData.from_text("r", "s")).sample_grid(grid)
    assert calls == [6, 9, 6, 9]


# ---------------------------------------------------------------------------
# batched points against the per-point formulas
# ---------------------------------------------------------------------------

def _scattered(values_u, values_v, n=24, seed=20240801):
    """n unsorted (u, v) pairs drawn with repeats from the given values and both
    signs of zero, followed by the four signed-zero pairs."""
    rng = np.random.default_rng(seed)
    u = rng.choice(np.array([*values_u, 0.0, -0.0]), n)
    v = rng.choice(np.array([*values_v, 0.0, -0.0]), n)
    return np.concatenate([u, [0.0, -0.0, 0.0, -0.0]]), np.concatenate([v, [0.0, 0.0, -0.0, -0.0]])


@pytest.mark.parametrize("sampler, values_u, values_v", [
    # the pole windows of test_sample_grid_matches_point_sampling and
    # test_we_lattice_masks_the_paths_through_the_pole
    (WESampler(WEData.from_text("1/w", "w", zeta0=1.0)), (-3, -1, -0.5, 0.5, 1), (-0.5, 0.5, 1)),
    (WESampler(WEData.from_text("1 + 0.2*w", "0.4*w", mode="maximal", offset=(1, -2, 0.5)),
               theta=0.7), (-0.6, 0.6), (-0.6, 0.3)),
    (TLMSSampler(TLMSData.from_text("1/u", "1", "u", "v", base=(1.0, 0.0))),
     (-1, -0.5, 0.5, 1), (0.25, 0.5)),
    (BCSampler(BCData.from_text("log(r)", "s")), (-0.5, 0.5, 1), (0.1, 0.5, 0.9)),
    # at (0, 1) both the s-integral (through the pole at 0.5) and F(0) fail
    (BCSampler(BCData.from_text("log(r)", "1/(s - 0.5)")), (0.5,), (1, 0.25)),
    # F(-0.0) = -0.0 and G(-0.0) = -0.0: merging the zeros flips signs of x and y
    (BCSampler(BCData.from_text("sin(r)", "sin(s)")), (-0.4, 0.3), (0.2, -0.6)),
    (zmc.GraphLiftSampler(catalog.builtin_surface("helicoid")), (-0.5, 0.3), (0.4, -2.0)),
], ids=["we-pole", "we-maximal", "tlms-pole", "bc-log", "bc-order", "bc-sin", "lift-helicoid"])
def test_points_equal_the_per_point_formulas(sampler, values_u, values_v):
    u, v = _scattered(values_u, values_v)
    coords, errors = sampler.points(u, v)
    got = np.array(coords, float)
    assert got.shape == (3, u.size) and len(errors) == u.size
    failures = 0
    for k, (uk, vk) in enumerate(zip(u.tolist(), v.tolist())):
        try:
            want = np.array(reference_point(sampler, uk, vk), float)
        except _POINT_ERRORS as exc:
            failures += 1
            assert type(errors[k]) is type(exc) and str(errors[k]) == str(exc), (uk, vk)
            continue
        assert errors[k] is None, (uk, vk)
        assert got[:, k].tobytes() == want.tobytes(), (uk, vk)
    assert failures < u.size


class _PerPointStencil:
    """A sampler's central-difference jet the scalar way: the 5-point stencil
    over a loop of ``reference_point``, offered as an exact jet."""

    def __init__(self, sampler):
        self.sampler = sampler

    def jet(self, u, v):
        def at(uu, vv):
            return np.array([reference_point(self.sampler, *p)
                             for p in zip(uu.tolist(), vv.tolist())], float)
        return tuple(tuple(d.T) for d in per_shift_central_jet(at, u, v, zmc.FD_STEP)[1:])


_STENCIL_CASES = {
    "we": (WESampler(WEData.from_text("exp(w)", "sin(w)")), zmc.EUCLID3,
           GridSpec(-0.6, 0.6, -0.5, 0.7, 4, 3)),
    "we-maximal": (WESampler(WEData.from_text("1 + 0.2*w", "0.4*w", mode="maximal"), theta=0.7),
                   zmc.LORENTZ3, GridSpec(-0.6, 0.6, -0.6, 0.6, 3, 4)),
    "tlms": (TLMSSampler(TLMSData.from_text("1 + u^2", "2 - v", "u", "v^2", base=(0.1, -0.2))),
             zmc.LORENTZ3, GridSpec(0, 0.8, -0.4, 0.8, 4, 3)),
    "bc": (BCSampler(BCData.from_text("r + r^3", "sin(s)")), zmc.LORENTZ3_PRIME,
           GridSpec(-0.7, 0.8, 0, 0.8, 3, 4)),
    **{f"lift-{sid}": (zmc.GraphLiftSampler(catalog.builtin_surface(sid)), metric,
                       GridSpec(0.1, 0.9, -0.8, 0.8, 5, 5))
       for sid, metric in (("scherk2", zmc.EUCLID3), ("helicoid", zmc.EUCLID3),
                           ("scherkBI", zmc.LORENTZ3_PRIME))},
    # stencils that meet a pole: the first failing point of the loop raises
    "we-pole": (WESampler(WEData.from_text("1/w", "w", zeta0=1.0)), zmc.EUCLID3,
                GridSpec(-1.2, -0.8, -0.2, 0.2, 3, 3)),
    "tlms-pole": (TLMSSampler(TLMSData.from_text("1/u", "1", "u", "v", base=(1.0, 0.0))),
                  zmc.LORENTZ3, GridSpec(-0.0002, 0.5, 0, 0.5, 3, 3)),
    "bc-log": (BCSampler(BCData.from_text("log(r)", "s")), zmc.LORENTZ3_PRIME,
               GridSpec(0.0001, 0.8, 0.1, 0.8, 3, 3)),
    "lift-helicoid-axis": (zmc.GraphLiftSampler(catalog.builtin_surface("helicoid")),
                           zmc.EUCLID3, GridSpec(-0.5, 0.0002, -0.8, 0.8, 3, 3)),
}


@pytest.mark.parametrize("case", list(_STENCIL_CASES))
def test_central_difference_sweep_equals_the_per_point_stencil(case):
    sampler, metric, grid = _STENCIL_CASES[case]
    u, v = grid.lattice()
    try:
        want = zmc.parametric_zmc_numerator(_PerPointStencil(sampler), metric, u, v)
    except _POINT_ERRORS as exc:
        assert case.endswith(("-pole", "-log", "-axis"))
        with pytest.raises(type(exc)) as got:
            zmc.parametric_zmc_numerator(sampler, metric, u, v, use_exact_jet=False)
        assert str(got.value) == str(exc)
        return
    got = zmc.parametric_zmc_numerator(sampler, metric, u, v, use_exact_jet=False)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case, calls", [("we", 1), ("tlms", 2), ("bc", 2)])
def test_central_difference_sweep_integrates_the_stencil_in_one_call_per_axis(
        case, calls, monkeypatch):
    import zmcsurf.reps as reps
    endpoints = []
    original = reps.integrate_segments

    def counting(integrands, z0, z1, *args, **kwargs):
        endpoints.append(np.size(z1))
        return original(integrands, z0, z1, *args, **kwargs)

    monkeypatch.setattr(reps, "integrate_segments", counting)
    sampler, metric, grid = _STENCIL_CASES[case]
    zmc.parametric_sweep(sampler, metric, grid, use_exact_jet=False)
    assert len(endpoints) == calls
    # WE integrates every stencil point; TLMS and BC each distinct shifted u and v once.
    nu, nv = grid.nu, grid.nv
    assert endpoints == ([25 * nu * nv] if case == "we" else [5 * nu, 5 * nv])


def test_bc_second_derivatives_are_cached():
    data = BCData.from_text("r + r^3", "sin(s)")
    assert data.r_jet_tape is data.r_jet_tape and data.s_jet_tape is data.s_jet_tape
    assert data.r_jet_tape(0.5)[0][1] == pytest.approx(3.0)
    assert data.s_jet_tape(0.5)[0][1] == pytest.approx(-cmath.sin(0.5))


# ---------------------------------------------------------------------------
# 50-digit oracle
# ---------------------------------------------------------------------------

def _mp_eval(mp, node, w):
    if isinstance(node, Const):
        return mp.mpc(node.value)
    if isinstance(node, Var):
        return w
    if isinstance(node, Unary):
        arg = _mp_eval(mp, node.arg, w)
        return -arg if node.op == "neg" else getattr(mp, node.op)(arg)
    if isinstance(node, Binary):
        a, b = _mp_eval(mp, node.left, w), _mp_eval(mp, node.right, w)
        if node.op == "add":
            return a + b
        if node.op == "sub":
            return a - b
        return a * b if node.op == "mul" else a / b
    if isinstance(node, Power):
        return _mp_eval(mp, node.base, w) ** node.exponent
    raise TypeError(node)


def _mp_integral(mp, e, z0, z1):
    with mp.workdps(50):
        a, d = mp.mpc(z0), mp.mpc(z1) - mp.mpc(z0)
        return complex(mp.quad(lambda t: _mp_eval(mp, e.root, a + t * d) * d,
                               mp.linspace(0, 1, 9)))


@pytest.mark.parametrize("data, targets", [
    (WEData.from_text("exp(w)", "sin(w)"), [0.7 + 0.4j, -0.9 + 0.1j, 0.3 - 0.95j]),
    # the pole at 1.1 lies 0.28 and 0.16 from the path ends
    (WEData.reduced("1/(w - 1.1)"), [0.9 + 0.2j, 0.95 - 0.05j]),
])
def test_quadrature_meets_its_tolerance_against_mpmath(data, targets):
    mp = pytest.importorskip("mpmath")
    tol = 1e-10
    values, errors = integrate_segments(data.integrands, data.zeta0, targets, tol=tol)
    assert errors == [None] * len(targets)
    for k, target in enumerate(targets):
        for e, got in zip(data.integrands, values[:, k]):
            assert abs(got - _mp_integral(mp, e, data.zeta0, target)) <= tol
