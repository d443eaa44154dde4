"""Surface registry, decomposition identities, branch policies, and series oracles."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmcsurf import catalog, zmc
from zmcsurf.catalog import (
    ParamDomainError,
    SingularArgument,
    UnknownIdentity,
    UnknownSurface,
    branch_error,
    builtin_surface,
    c_offsets,
    er_series_partial,
    identity_terms,
    rescaled_component,
    verify_identity,
    verify_identity_at,
)
from zmcsurf.errors import DomainViolation, EmptyGrid
from zmcsurf.meshio import GridSpec

PI = math.pi


# ---------------------------------------------------------------------------
# surface registry
# ---------------------------------------------------------------------------

def test_scherk2_center_value():
    assert builtin_surface("scherk2").evaluate(0.0, 0.0) == 0.0


def test_scherk2_off_axis_value():
    # ln(cos 0 / cos(pi/4)) = ln(sqrt(2)) = 0.5*ln 2
    got = builtin_surface("scherk2").evaluate(PI / 4, 0.0)
    assert got == pytest.approx(0.5 * math.log(2.0), abs=1e-15)


def test_scherk_tower_vanishes_on_x_axis():
    surf = builtin_surface("scherk1")  # alpha = pi/2
    for y in (0.4, 1.0, 2.5):
        assert surf.evaluate(0.0, y) == pytest.approx(0.0, abs=1e-15)


def test_bi_soliton_section_value():
    # cos 0 = 1, so the x = 0 section is ln(cosh y).
    got = builtin_surface("scherkBI").evaluate(0.0, 1.0)
    assert got == pytest.approx(math.log(math.cosh(1.0)), abs=1e-15)


def test_helicoid_value():
    assert builtin_surface("helicoid").evaluate(1.0, 1.0) == pytest.approx(PI / 4)


def test_kind_tags():
    assert builtin_surface("scherk2").kind == "minimal"
    assert builtin_surface("scherk2max").kind == "maximal"
    assert builtin_surface("scherkBI").kind == "bi-soliton"
    assert builtin_surface("helicoid").kind == "minimal"
    assert builtin_surface("scherk1").kind == "minimal"


def test_plane_with_parameters():
    surf = builtin_surface("plane:0.5,-0.25")
    assert surf.evaluate(2.0, 4.0) == pytest.approx(0.0)
    jet = surf.exact_jet(0.3, 0.7)
    assert (jet.z_xx, jet.z_xy, jet.z_yy) == (0, 0, 0)


def test_expr_defined_surface():
    surf = builtin_surface("expr:x*x + y*y")
    assert surf.evaluate(1.0, 2.0) == pytest.approx(5.0)
    jet = surf.exact_jet(1.0, 1.0)
    assert jet.z_xx == pytest.approx(2.0)
    assert jet.z_xy == pytest.approx(0.0)


def test_unknown_surface():
    with pytest.raises(UnknownSurface):
        builtin_surface("gyroid")


@pytest.mark.parametrize("surface_id", [
    "scherk2:7", "scherk2:", "scherk2max:1", "scherkBI:1,2", "helicoid:abc",
])
def test_surface_without_parameters_rejects_a_suffix(surface_id):
    with pytest.raises(UnknownSurface, match="takes no parameters"):
        builtin_surface(surface_id)


@pytest.mark.parametrize("surface_id, want", [
    ("scherk1", "scherk1:1.5707963267948966"),
    ("scherk1:", "scherk1:1.5707963267948966"),
    ("scherk1:1.0", "scherk1:1.0"),
    ("plane", "plane:0.0,0.0"),
    ("plane:1,2", "plane:1.0,2.0"),
])
def test_parameterized_surface_ids(surface_id, want):
    assert builtin_surface(surface_id).id == want


@pytest.mark.parametrize("surface_id", ["plane:1", "plane:1,2,3", "scherk1:x"])
def test_bad_surface_parameters(surface_id):
    with pytest.raises(UnknownSurface, match="bad surface id"):
        builtin_surface(surface_id)


@pytest.mark.parametrize("surface_id, x, y", [
    ("scherk2max", 800.0, 0.0),         # cosh overflows
    ("scherkBI", 0.0, 715.0),
    ("scherk2", 0.0, math.inf),         # non-finite inputs
    ("scherk2", 0.0, math.nan),
    ("scherk2", complex(0.0, math.inf), 0.0),
    ("scherk2", 2.0, 0.0),              # cos x < 0: no real height
    ("helicoid", 0.0, 1.0),             # the graph needs x != 0
    ("helicoid", 0.0, 0.0),
    ("scherk1", 0.5, 0.0),              # tan pole of the tower
])
def test_evaluate_without_a_finite_value_raises_domain_violation(surface_id, x, y):
    with pytest.raises(DomainViolation):
        builtin_surface(surface_id).evaluate(x, y)


@pytest.mark.parametrize("surface_id, x, y", [
    ("scherk2", 2.0, 0.0),              # log of a negative ratio
    ("scherk2max", 800.0, 0.0),         # cosh overflows
    ("scherk2max", complex(800.0), 0.0),
    ("scherkBI", 0.0, 715.0),
    ("helicoid", 0.0, 1.0),             # the pole line x = 0
    ("helicoid", -0.0, complex(1.0)),
    ("scherk1", 0.5, 0.0),              # tan pole of the tower
    ("scherk1:1.1", 0.5, 0.0),
    ("plane:1e308,1e308", 1e308, 1e308),
    ("expr:1/x", 0.0, 0.2),             # the tree walk's division by zero
    ("expr:1/x", complex(0.0), 0.2),    # the tape's
    ("expr:exp(x)*y", 800.0, 1.0),
    ("expr:log(x*y)", 0.0, 1.0),
])
def test_height_without_a_finite_value_raises_no_warning(surface_id, x, y):
    surface = builtin_surface(surface_id)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainViolation):
            if isinstance(x, complex) or isinstance(y, complex):
                surface.evaluate(x, y)
            else:
                surface.height_at(x, y)


def test_surface_domain_masks_cos_zero():
    surf = builtin_surface("scherk2")
    assert surf.domain_ok(0.3, 0.2, 0.05)
    assert not surf.domain_ok(PI / 2, 0.0, 0.05)
    assert not surf.domain_ok(2.0, 0.0, 0.05)  # cos x < 0: ratio not positive


_LOG_RATIO = ("scherk2", "scherk2max", "scherkBI")

# domain_ok of (scherk2, scherk2max, scherkBI) at margin 0 and at margin 0.05.
# The domain is: every cos factor clears its zeros by the margin, and the cos
# factors' product is positive; a cosh factor never restricts it, even at a
# nan or infinite argument.
_DOMAIN_PINS = [
    (PI / 2 + 1e-12, 0.0, (False, True, False), (False, True, False)),
    (PI / 2 - 1e-12, 0.0, (True, True, True), (False, True, False)),
    (-PI / 2 + 1e-12, 0.0, (True, True, True), (False, True, False)),
    (-PI / 2 - 1e-12, 0.0, (False, True, False), (False, True, False)),
    (0.0, PI / 2 + 1e-12, (False, True, True), (False, True, True)),
    (0.0, PI / 2 - 1e-12, (True, True, True), (False, True, True)),
    (3.0, 3.0, (True, True, False), (True, True, False)),  # cos x < 0 and cos y < 0
    (3.0, 0.0, (False, True, False), (False, True, False)),
    (0.0, 3.0, (False, True, True), (False, True, True)),
    (800.0, 0.0, (False, True, False), (False, True, False)),  # cos 800 < 0
    (-800.0, 0.0, (False, True, False), (False, True, False)),
    (0.0, 800.0, (False, True, True), (False, True, True)),
    (0.0, -800.0, (False, True, True), (False, True, True)),
    (800.0, 800.0, (True, True, False), (True, True, False)),
    (math.inf, 0.0, (False, True, False), (False, True, False)),
    (-math.inf, 0.0, (False, True, False), (False, True, False)),
    (math.nan, 0.0, (False, True, False), (False, True, False)),
    (0.0, math.inf, (False, True, True), (False, True, True)),
    (0.0, -math.inf, (False, True, True), (False, True, True)),
    (0.0, math.nan, (False, True, True), (False, True, True)),
]


@pytest.mark.parametrize("x, y, at_zero, at_margin", _DOMAIN_PINS)
def test_log_ratio_domain_edge_cases(x, y, at_zero, at_margin):
    for margin, want in ((0.0, at_zero), (0.05, at_margin)):
        for surface_id, ok in zip(_LOG_RATIO, want):
            surf = builtin_surface(surface_id)
            with np.errstate(all="ignore"):
                assert surf.domain_ok(x, y, margin) is ok, (surface_id, margin)
                assert surf.domain_ok(np.array([x, 0.1]), np.array([y, 0.1]), margin).tolist() \
                    == [ok, True], (surface_id, margin)


@pytest.mark.parametrize("surface_id, kind, policy", [
    ("scherk2", "minimal", "multiplicative"),
    ("scherk2max", "maximal", "mod-2pi-i"),
    ("scherkBI", "bi-soliton", "mod-2pi-i"),
])
def test_log_ratio_height_is_its_decomposition_lhs(surface_id, kind, policy):
    surf = builtin_surface(surface_id)
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-4, 4, (2, 500))
    x[:4] = [PI / 2, -PI / 2, 800.0, math.nan]
    y[4:8] = [PI / 2, math.inf, -800.0, math.nan]
    assert surf.kind == kind
    for n in (1, 3):
        inst = identity_terms(f"{surface_id}-decomp", n)
        assert inst.branch_policy == policy
        with np.errstate(all="ignore"):
            for xs, ys in ((x, y), (x + 0.3j * y, y - 0.2j * x)):
                want, got = surf.height(xs, ys), inst.lhs.fn(xs, ys)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# offset ladder
# ---------------------------------------------------------------------------

def test_offsets_for_two_terms():
    assert c_offsets(2) == [-PI / 4, PI / 4]


def test_offsets_antisymmetric_exactly():
    for n in range(1, 65):
        cs = c_offsets(n)
        for m in range(n):
            assert cs[n - 1 - m] == -cs[m]


# ---------------------------------------------------------------------------
# identity instantiation
# ---------------------------------------------------------------------------

def test_single_term_collapse_is_tautological():
    inst = identity_terms("scherk2-decomp", 1)
    assert len(inst.rhs_terms) == 1
    report = verify_identity(inst, GridSpec(-1, 1, -1, 1, 11, 11), policy="principal")
    assert report.max_abs_err == 0.0


def test_tower_prefactor_is_exactly_one_for_single_term():
    inst = identity_terms("kamien-decomp", 1, {"beta": PI / 6})
    assert inst.params["prefactor"] == 1.0


def test_equal_split_weights():
    inst = identity_terms("general-scaled", 2,
                          {"a": [1, 1], "b": [0, 0], "d": [0, 0], "c": [2, 2]})
    assert inst.params["C_n"] == pytest.approx(1.0)
    z = builtin_surface("scherk2").evaluate(0.4, 0.1)
    t0 = inst.rhs_terms[0].fn(0.4, 0.1)
    t1 = inst.rhs_terms[1].fn(0.4, 0.1)
    assert t0 == pytest.approx(z / 2) and t1 == pytest.approx(z / 2)


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        identity_terms("machin", 2)


def test_bad_n_rejected():
    with pytest.raises(ParamDomainError):
        identity_terms("scherk2-decomp", 0)


@pytest.mark.parametrize("params", [
    {"a": [0.0, 1.0]},
    {"c": [1.0, 0.0]},
    {"c": [1.0, -1.0]},  # C_n = 0
])
def test_general_scaled_parameter_validation(params):
    with pytest.raises(ParamDomainError):
        identity_terms("general-scaled", 2, params)


def test_tower_identity_rejects_degenerate_angles():
    with pytest.raises(ParamDomainError):
        identity_terms("kamien-decomp", 2, {"beta": 0.0})
    with pytest.raises(ParamDomainError):
        identity_terms("kamien-decomp", 2, {"beta": PI / 2})


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

def test_scherk_second_decomposition_on_default_window():
    inst = identity_terms("scherk2-decomp", 3)
    report = verify_identity(inst, GridSpec(-1, 1, -1, 1, 41, 41))
    assert report.passed and report.max_abs_err < 1e-9
    assert report.points_checked == 41 * 41


def test_scherk_second_decomposition_principal_on_safe_box():
    for n in (2, 3):
        inst = identity_terms("scherk2-decomp", n)
        b = PI / (2 * n) * 0.98
        report = verify_identity(inst, GridSpec(-b, b, -b, b, 21, 21), policy="principal")
        assert report.max_abs_err < 1e-9


def test_multiplicative_form_is_branch_free():
    # cos(y)/cos(x) equals the product of the per-term ratios to 1e-12 relative
    # error wherever all cosines stay away from zero.
    n = 4
    cs = c_offsets(n)
    rng = random.Random(1)
    for _ in range(200):
        x = rng.uniform(-1, 1)
        y = rng.uniform(-1, 1)
        lhs = math.cos(y) / math.cos(x)
        rhs = 1.0
        for c in cs:
            rhs *= math.cos(y / n - c) / math.cos(x / n - c)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_helicoid_decomposition_mod_pi():
    inst = identity_terms("helicoid-decomp", 2)
    report = verify_identity(inst, GridSpec(0.1, 2.9, -2, 2, 41, 41))
    assert report.passed and report.max_abs_err < 1e-9
    assert report.policy == "mod-pi"


def test_tower_decomposition_windows():
    for n in (2, 3):
        for beta in (PI / 6, PI / 3):
            inst = identity_terms("kamien-decomp", n, {"beta": beta})
            sb = math.sin(beta)
            grid = GridSpec(-2, 2, 0.2 / sb, (PI - 0.2) / sb, 31, 31)
            report = verify_identity(inst, grid)
            assert report.passed, (n, beta, report.max_abs_err)


def test_complexified_decompositions_at_spec_probes():
    inst = identity_terms("scherk2max-decomp", 2)
    probes = [(0.3 + 0.1j, 0.7 - 0.2j)]
    rng = random.Random(42)
    probes += [(complex(rng.uniform(-1, 1), rng.uniform(-0.45, 0.45)),
                complex(rng.uniform(-1, 1), rng.uniform(-0.45, 0.45)))
               for _ in range(20)]
    report = verify_identity_at(inst, probes)
    assert report.passed and report.max_abs_err < 1e-9


def test_bi_soliton_decomposition_complex_probes():
    rng = random.Random(7)
    probes = [(complex(rng.uniform(-1, 1), rng.uniform(-0.45, 0.45)),
               complex(rng.uniform(-1, 1), rng.uniform(-0.45, 0.45)))
              for _ in range(20)]
    for n in (2, 3):
        report = verify_identity_at(identity_terms("scherkBI-decomp", n), probes)
        assert report.passed


def test_grid_crossing_singularity_is_rejected():
    inst = identity_terms("scherk2-decomp", 2)
    with pytest.raises(DomainViolation):
        verify_identity(inst, GridSpec(1.0, 2.0, -1, 1, 11, 11))


def test_empty_probe_list_rejected():
    with pytest.raises(EmptyGrid):
        verify_identity_at(identity_terms("scherk2-decomp", 2), [])


def test_general_scaled_reproduces_height_function():
    inst = identity_terms("general-scaled", 2, {
        "surface": "scherk2", "a": [1.3, 0.8], "b": [0.1, -0.2],
        "d": [0.05, 0.3], "c": [2.0, -0.5]})
    report = verify_identity(inst, GridSpec(-1, 1, -1, 1, 41, 41), tolerance=1e-12)
    assert report.passed


def test_general_scaled_pointwise_cancellation():
    # Each component evaluated through the affine chain equals Z/(c_m * C_n)
    # to 1e-13 relative error.
    inst = identity_terms("general-scaled", 3, {
        "surface": "scherk2", "a": [1.1, -0.6, 2.0], "b": [0.2, 0.0, -0.1],
        "d": [0.0, 0.15, 0.1], "c": [1.5, 2.5, -4.0]})
    surf = builtin_surface("scherk2")
    rng = random.Random(3)
    c_total = inst.params["C_n"]
    for _ in range(50):
        x, y = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        z = surf.evaluate(x, y)
        for m, term in enumerate(inst.rhs_terms):
            expected = z / (inst.params["c"][m] * c_total)
            assert abs(term.fn(x, y) - expected) <= 1e-13 * (1 + abs(expected))


@pytest.mark.parametrize("surface_id,eq", [
    ("scherk2", "minimal"),
    ("scherk2max", "maximal"),
    ("scherkBI", "bi-soliton"),
])
def test_rescaled_components_keep_their_kind(surface_id, eq):
    inst = identity_terms("general-scaled", 2, {
        "surface": surface_id, "a": [1.4, 0.7], "b": [0.1, -0.3],
        "d": [-0.2, 0.25], "c": [2.0, 3.0]})
    for m in range(2):
        comp = rescaled_component(inst, m)
        report = zmc.residual_sweep(comp, eq, comp.default_grid, tolerance=1e-6)
        assert report.passed, (surface_id, m, report.max_abs_err)


# ---------------------------------------------------------------------------
# branch policies
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(value=st.floats(-5, 5, allow_nan=False), k=st.integers(-4, 4))
def test_mod_pi_forgives_pi_jumps(value, k):
    assert branch_error("mod-pi", value + k * PI, value) < 1e-9


@settings(max_examples=60, deadline=None)
@given(re=st.floats(-3, 3, allow_nan=False), im=st.floats(-3, 3, allow_nan=False),
       k=st.integers(-4, 4))
def test_mod_2pi_i_forgives_period_jumps(re, im, k):
    value = complex(re, im)
    assert branch_error("mod-2pi-i", value + 2j * PI * k, value) < 1e-8


@settings(max_examples=60, deadline=None)
@given(re=st.floats(-2, 2, allow_nan=False), im=st.floats(-2, 2, allow_nan=False),
       k=st.integers(-3, 3))
def test_multiplicative_ignores_log_branch(re, im, k):
    value = complex(re, im)
    assert branch_error("multiplicative", value + 2j * PI * k, value) < 1e-9


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        branch_error("mod-tau", 1.0, 1.0)


# ---------------------------------------------------------------------------
# series oracles
# ---------------------------------------------------------------------------

def test_arctan_series_zero_numerator():
    for kind in ("arctan-sum", "arctan-bilateral"):
        assert er_series_partial(kind, 0.0, 0.7, 100) == 0.0


def test_arctan_series_matches_closed_form():
    closed = math.atan(math.tanh(0.5) / math.tan(0.7))
    for kind in ("arctan-sum", "arctan-bilateral"):
        got = er_series_partial(kind, 0.5, 0.7, 10 ** 4)
        assert abs(got - closed) < 1e-4


def test_cos_product_matches_closed_form():
    got = er_series_partial("cos-product", 0.4, 0.3, 10 ** 4)
    assert abs(got - math.log(math.cos(0.4) / math.cos(0.3))) < 1e-6


def test_series_singular_arguments():
    with pytest.raises(SingularArgument):
        er_series_partial("arctan-sum", 0.5, 0.0, 10)
    with pytest.raises(SingularArgument):
        er_series_partial("arctan-bilateral", 0.5, PI, 10)
    with pytest.raises(SingularArgument):
        er_series_partial("cos-product", 0.4, PI / 2, 10)


def test_series_unknown_kind():
    with pytest.raises(ValueError):
        er_series_partial("zeta", 0.1, 0.2, 10)


# ---------------------------------------------------------------------------
# sweep determinism
# ---------------------------------------------------------------------------

def test_row_parallel_sweep_is_deterministic():
    inst = identity_terms("scherk2-decomp", 3)
    grid = GridSpec(-1, 1, -1, 1, 21, 21)
    first = verify_identity(inst, grid).to_dict(include_timestamp=False)
    second = verify_identity(inst, grid).to_dict(include_timestamp=False)
    assert first == second


# ---------------------------------------------------------------------------
# report reduction and a 50-digit oracle for the identities
# ---------------------------------------------------------------------------

def test_nan_branch_error_fails_the_identity_report(monkeypatch):
    real = catalog.branch_error

    def branch_error_with_nans(policy, lhs, rhs):
        # NaN at the 7th and 9th row-major points of the 5x5 lattice.
        err = np.array(real(policy, lhs, rhs), dtype=float)
        err[[6, 8]] = math.nan
        return err

    monkeypatch.setattr(catalog, "branch_error", branch_error_with_nans)
    report = verify_identity(identity_terms("scherk2-decomp", 2), GridSpec(-1, 1, -1, 1, 5, 5))
    assert report.passed is False
    assert math.isnan(report.max_abs_err) and math.isnan(report.mean_abs_err)
    # The first NaN is the worst point; the later one does not replace it.
    assert report.worst_point["coords"] == [-0.5, -0.5]
    assert report.points_checked == 25


def _mp_scherk2_sides(mp, n, x, y):
    lhs = mp.log(mp.cos(y) / mp.cos(x))
    cs = [(2 * m - n + 1) * mp.pi / (2 * n) for m in range(n)]
    return lhs, [mp.log(mp.cos(y / n - c) / mp.cos(x / n - c)) for c in cs]


def _mp_helicoid_sides(mp, n, x, y):
    def tower(a, b):
        return mp.atan(mp.tanh(a) * mp.cos(b) / mp.sin(b))

    ms = range(1, n)
    terms = ([tower(y / n, (x + m * mp.pi) / n) for m in ms]
             + [-mp.atan((y / n) / ((x + m * mp.pi) / n)) for m in ms]
             + [tower(y / n, x / n)]
             + [-mp.atan((y / n) / ((x + m * mp.pi) / n - mp.pi)) for m in ms]
             + [mp.atan(y / (x + m * mp.pi)) for m in ms]
             + [mp.atan(y / (x - m * mp.pi)) for m in ms])
    return tower(y, x), terms


def _mp_branch_error(mp, policy, lhs, rhs):
    if policy == "multiplicative":
        el, es = mp.exp(lhs), mp.exp(rhs)
        return abs(el - es) / (1 + abs(el))
    assert policy == "mod-pi"
    d = lhs - rhs
    return abs(d - mp.nint(mp.re(d) / mp.pi) * mp.pi)


@pytest.mark.parametrize("identity_id, n, grid, mp_sides", [
    ("scherk2-decomp", 3, GridSpec(-1, 1, -1, 1, 41, 41), _mp_scherk2_sides),
    ("helicoid-decomp", 2, GridSpec(0.1, 2.9, -2, 2, 41, 41), _mp_helicoid_sides),
])
def test_decomposition_matches_a_50_digit_oracle(identity_id, n, grid, mp_sides):
    mp = pytest.importorskip("mpmath").mp
    tol = 1e-9  # the verify_identity default the verification suite uses
    inst = identity_terms(identity_id, n)
    policy = inst.branch_policy
    points = [xy for _, xy in grid.points()][::97]
    with mp.workdps(50):
        for x, y in points:
            lhs, terms = inst.lhs.fn(x, y), [t.fn(x, y) for t in inst.rhs_terms]
            mp_lhs, mp_terms = mp_sides(mp, n, mp.mpf(x), mp.mpf(y))
            assert len(mp_terms) == len(terms)
            mp_rhs = mp.fsum(mp_terms)
            # The identity holds at 50 digits, and the float64 branch error
            # and each float64 side are within tolerance of the oracle.
            exact = _mp_branch_error(mp, policy, mp_lhs, mp_rhs)
            assert exact < mp.mpf("1e-40")
            assert abs(branch_error(policy, lhs, sum(terms)) - float(exact)) <= tol
            assert branch_error(policy, lhs, complex(mp_lhs)) <= tol
            assert branch_error(policy, sum(terms), complex(mp_rhs)) <= tol
