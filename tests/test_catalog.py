"""Surface registry, decomposition identities, branch policies, and series oracles."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_meshio_arrays import _EXTREME_BOUNDS
from test_verification_suite import suite
from zmcsurf import catalog, expr, zmc
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


@pytest.mark.parametrize("text, x, y", [
    ("log(cos(y)/cos(x))", 0.3, 0.2),
    ("log(cos(y)/cos(x))", -0.0, 0.2),
    ("sqrt(x)*cos(y)", 0.0, 0.2),        # z is 0.0; the walks of the other five raise
])
def test_expr_point_jet_is_its_lattice_entry(monkeypatch, text, x, y):
    surface = builtin_surface(f"expr:{text}")
    lattice = surface.exact_jet(np.array([0.5, x, 0.7]), np.array([0.5, y, 0.1]))

    def refuse(self, *values):
        raise AssertionError("a jet took the scalar tape run")

    with monkeypatch.context() as patch:  # undone before pytest reports a failure
        patch.setattr(expr.Tape, "scalar", refuse)
        jet = surface.exact_jet(x, y)
    for name in ("z", "z_x", "z_y", "z_xx", "z_xy", "z_yy"):
        assert repr(getattr(jet, name)) == repr(getattr(lattice, name)[1])


def test_expr_point_jet_where_a_derivative_walk_raises():
    jet = builtin_surface("expr:sqrt(x)*cos(y)").exact_jet(0.0, 0.2)
    assert jet.z == 0.0
    assert all(math.isnan(v) for v in (jet.z_x, jet.z_y, jet.z_xx, jet.z_xy, jet.z_yy))


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
    # cos(PI / 2) is 6.1e-17, so the pole x = pi/2 of a log ratio is written exactly.
    ("expr:log(cos(y)/(x - 1.5707963267948966))", PI / 2, 0.2),
    ("expr:log(cos(y)/cos(x))", 2.0, 0.2),                        # a negative ratio
    ("expr:log(cos(y)/cos(x))", math.nextafter(PI / 2, 2.0), 0.2),
    ("expr:log(cos(y)/cos(x))", math.inf, 0.2),
    ("expr:log(cos(y)/cos(x))", 0.2, -math.inf),
    ("expr:log(cos(y)/cos(x))", math.nan, 0.2),
    ("expr:log(cos(y)/cos(x))", 0.2, np.float64(math.nan)),
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


def test_real_expr_heights_are_the_tree_walk_at_every_default_grid_point():
    surface = builtin_surface("expr:log(cos(y)/cos(x))")
    root = expr.parse_xy("log(cos(y)/cos(x))").root
    for _, (x, y) in surface.default_grid.points():
        want = expr._eval_node(root, {"x": complex(x), "y": complex(y)})
        assert repr(surface.height_at(x, y)) == repr(want.real)


@pytest.mark.parametrize("text", ["x", "y", "-x", "x*y", "atan(x) - y"])
def test_real_expr_heights_keep_signed_zeros(text):
    surface = builtin_surface(f"expr:{text}")
    root = expr.parse_xy(text).root
    for x, y in ((-0.0, 0.2), (0.2, -0.0), (-0.0, -0.0), (0.0, -0.0)):
        want = repr(expr._eval_node(root, {"x": complex(x), "y": complex(y)}).real)
        assert repr(surface.height_at(x, y)) == want
        assert repr(surface.height_at(np.float64(x), np.float64(y))) == want
    assert repr(builtin_surface("expr:x").height_at(-0.0, 1.0)) == "-0.0"


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


@pytest.mark.parametrize("n", [True, False, 2.0, "2", np.int64(0)])
def test_n_must_be_a_positive_integer_and_not_a_bool(n):
    with pytest.raises(ParamDomainError, match="n must be a positive integer"):
        identity_terms("scherk2-decomp", n)


def test_a_numpy_integer_n_is_stored_as_an_int():
    inst = identity_terms("scherk2-decomp", np.int64(2))
    assert type(inst.n) is int and inst.n == 2
    report = verify_identity(inst, GridSpec(-1, 1, -1, 1, 5, 5))
    assert report.to_dict()["parameters"]["n"] == 2
    assert report.to_json() == verify_identity(identity_terms("scherk2-decomp", 2),
                                               GridSpec(-1, 1, -1, 1, 5, 5)).to_json()


@pytest.mark.parametrize("params", [
    {"a": [0.0, 1.0]},
    {"c": [1.0, 0.0]},
    {"c": [1.0, -1.0]},  # C_n = 0
])
def test_general_scaled_parameter_validation(params):
    with pytest.raises(ParamDomainError):
        identity_terms("general-scaled", 2, params)


@pytest.mark.parametrize("identity, params, name", [
    ("kamien-decomp", {"beta": float("nan")}, "beta"),
    ("kamien-decomp", {"beta": float("inf")}, "beta"),
    ("general-scaled", {"c": [float("inf"), 1.0]}, "c"),
    ("general-scaled", {"a": np.array([1.0, -np.inf])}, "a"),
    ("general-scaled", {"surface": "scherk2", "b": "nan"}, "b"),
])
def test_a_non_finite_parameter_is_rejected_by_name(identity, params, name):
    with pytest.raises(ParamDomainError, match=f"parameter '{name}' must be finite"):
        identity_terms(identity, 2, params)


@pytest.mark.parametrize("identity, params, accepted", [
    ("kamien-decomp", {"bta": 0.5}, "beta"),
    ("scherk2-decomp", {"c": 1.0}, "none"),
    ("scherk2max-decomp", {"beta": 0.5}, "none"),
    ("scherkBI-decomp", {"c": [0.0, 1.0]}, "none"),
    ("helicoid-decomp", {"beta": 0.5}, "none"),
    ("general-scaled", {"surface": "scherk2", "C_n": 1.0}, "surface, a, b, d, c"),
], ids=["kamien", "scherk2", "scherk2max", "scherkBI", "helicoid", "general-scaled"])
def test_an_unknown_parameter_is_rejected_by_name(identity, params, accepted):
    name = list(params)[-1]
    with pytest.raises(ParamDomainError) as got:
        identity_terms(identity, 2, params)
    assert str(got.value) == f"{identity} has no parameter {name!r}; it takes {accepted}"


def test_registry_errors_print_their_message_without_quotes():
    with pytest.raises(UnknownSurface) as got:
        builtin_surface("nope")
    assert isinstance(got.value, KeyError) and str(got.value) == "unknown surface 'nope'"
    with pytest.raises(UnknownSurface) as got:
        builtin_surface("plane:1,2,3")
    assert str(got.value) == "bad surface id 'plane:1,2,3': plane takes a,b, got '1,2,3'"
    with pytest.raises(UnknownIdentity) as got:
        identity_terms("machin", 2)
    assert isinstance(got.value, KeyError) and str(got.value) == "unknown identity 'machin'"


def test_tower_identity_rejects_degenerate_angles():
    with pytest.raises(ParamDomainError):
        identity_terms("kamien-decomp", 2, {"beta": 0.0})
    with pytest.raises(ParamDomainError):
        identity_terms("kamien-decomp", 2, {"beta": PI / 2})


@pytest.mark.parametrize("beta", [1e308, -1e308, "9e307"])
def test_a_kamien_beta_whose_double_overflows_is_rejected_by_name(beta):
    with pytest.raises(ParamDomainError, match=r"parameter 'beta' must have a finite 2\*beta"):
        identity_terms("kamien-decomp", 2, {"beta": beta})


@pytest.mark.parametrize("identity, params, message", [
    ("kamien-decomp", {"beta": [0.5, 0.6]}, "parameter 'beta' must be a number, got [0.5, 0.6]"),
    ("kamien-decomp", {"beta": "0.5:0.6"}, "parameter 'beta' must be a number, got '0.5:0.6'"),
    ("kamien-decomp", {"beta": True}, "parameter 'beta' must be a number, got True"),
    ("kamien-decomp", {"beta": 0.5j}, "parameter 'beta' must be a number, got 0.5j"),
    ("kamien-decomp", {"beta": 10 ** 400}, "parameter 'beta' must be a number, got 1" + "0" * 400),
    ("general-scaled", {"a": "x"}, "parameter 'a' must be a number, got 'x'"),
    ("general-scaled", {"a": np.array(["1", "x"])}, "parameter 'a' must be a number, got np.str_('x')"),
    ("general-scaled", {"c": [1.0, [2.0]]}, "parameter 'c' must be a number, got [2.0]"),
    ("general-scaled", {"b": "1:2:3"}, "parameter 'b' must have length n = 2"),
    ("general-scaled", {"surface": 3}, "parameter 'surface' must be a surface id: unknown surface '3'"),
    ("general-scaled", {"surface": "3"},
     "parameter 'surface' must be a surface id: unknown surface '3'"),
    ("general-scaled", {"surface": "expr:x+"},
     "parameter 'surface' must be a surface id: expected a value (offset 2)"),
], ids=["list", "list-text", "bool", "complex", "huge-int", "text", "text-array", "nested",
        "long-text", "number-surface", "unknown-surface", "bad-expr"])
def test_a_parameter_value_of_the_wrong_kind_is_rejected_by_name(identity, params, message):
    with pytest.raises(ParamDomainError) as got:
        identity_terms(identity, 2, params)
    assert str(got.value) == message


@pytest.mark.parametrize("params, want", [
    ({"a": "2:0.5", "c": np.array([1, 3])}, {"a": [2.0, 0.5], "c": [1.0, 3.0]}),
    ({"a": (np.float32(0.5), 2), "b": "0.25:-1e3"}, {"a": [0.5, 2.0], "b": [0.25, -1000.0]}),
    ({"surface": "plane:1,2", "d": [0, -0.5]}, {"surface": "plane:1,2", "d": [0.0, -0.5]}),
], ids=["text-and-array", "tuple-and-text", "surface"])
def test_general_scaled_parameters_are_python_floats_of_any_given_shape(params, want):
    got = identity_terms("general-scaled", 2, params).params
    for name, value in want.items():
        assert got[name] == value and all(type(v) is float for v in got[name] if name != "surface")


@pytest.mark.parametrize("surface_id, message", [
    ("plane:nan,1", "bad surface id 'plane:nan,1': parameter 'a' must be finite, got 'nan'"),
    ("plane:1,x", "bad surface id 'plane:1,x': parameter 'b' must be a number, got 'x'"),
    ("scherk1:inf", "bad surface id 'scherk1:inf': parameter 'alpha' must be finite, got 'inf'"),
    ("scherk1:1,2", "bad surface id 'scherk1:1,2': scherk1 takes alpha, got '1,2'"),
], ids=["plane-nan", "plane-text", "scherk1-inf", "scherk1-arity"])
def test_a_surface_parameter_is_converted_by_its_kind(surface_id, message):
    with pytest.raises(UnknownSurface) as got:
        builtin_surface(surface_id)
    assert str(got.value) == message


_NUMBER_TEXT = st.floats().map(repr) | st.sampled_from(["nan", "-inf", "1e999", "", " 2 ", "1_0"])
_PARAM_VALUE = st.recursive(
    st.floats() | st.integers() | st.booleans() | st.complex_numbers() | st.none()
    | st.text(max_size=8) | _NUMBER_TEXT | st.lists(_NUMBER_TEXT, max_size=4).map(":".join)
    | st.sampled_from(["scherk2", "scherk1:0.7", "plane", "plane:1", "expr:x*y", "expr:(", "gyroid"])
    | st.lists(st.floats(), max_size=4).map(np.array)
    | st.lists(st.text(max_size=3), max_size=3).map(np.array),
    lambda items: st.lists(items, max_size=4) | st.tuples(items),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(identity=st.sampled_from(catalog.IDENTITY_IDS), n=st.integers(1, 4),
       params=st.dictionaries(st.sampled_from(["beta", "surface", "a", "b", "d", "c"]),
                              _PARAM_VALUE, max_size=3))
def test_any_parameter_value_gives_an_instance_or_a_typed_error(identity, n, params):
    try:
        inst = identity_terms(identity, n, params)
    except (ParamDomainError, UnknownSurface):
        return
    assert isinstance(inst, catalog.IdentityInstance) and inst.n == n


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(catalog.BUILTIN_SURFACES),
       suffix=st.none() | st.text(max_size=12)
       | st.lists(_NUMBER_TEXT | st.text(max_size=4), max_size=3).map(",".join))
def test_any_suffix_gives_a_surface_or_unknown_surface(name, suffix):
    try:
        surface = builtin_surface(name if suffix is None else f"{name}:{suffix}")
    except UnknownSurface:
        return
    assert isinstance(surface, catalog.HeightSurface)


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize("n", [2, 3, 5])
def test_helicoid_decomposition_terms_come_in_their_order(n):
    # towers, flat arctans, the unshifted tower, pi-shifted flat arctans, two fans
    ms = range(1, n)
    want = ([(f"+atan(tanh(y/{n})*cot((x+{m}*pi)/{n}))",
              lambda x, y, m=m: math.atan(math.tanh(y / n) / math.tan((x + m * PI) / n)))
             for m in ms]
            + [(f"-atan((y/{n})/((x+{m}*pi)/{n}))",
                lambda x, y, m=m: -math.atan((y / n) / ((x + m * PI) / n))) for m in ms]
            + [(f"+atan(tanh(y/{n})*cot(x/{n}))",
                lambda x, y: math.atan(math.tanh(y / n) / math.tan(x / n)))]
            + [(f"-atan((y/{n})/((x+{m}*pi)/{n} - pi))",
                lambda x, y, m=m: -math.atan((y / n) / ((x + m * PI) / n - PI))) for m in ms]
            + [(f"+atan(y/(x+{m}*pi))", lambda x, y, m=m: math.atan(y / (x + m * PI)))
               for m in ms]
            + [(f"+atan(y/(x-{m}*pi))", lambda x, y, m=m: math.atan(y / (x - m * PI)))
               for m in ms])
    terms = identity_terms("helicoid-decomp", n).rhs_terms
    assert len(terms) == 5 * n - 4
    assert [t.label for t in terms] == [label for label, _ in want]
    for x, y in ((0.7, 0.4), (2.3, -1.1)):
        got = [complex(t.fn(np.array([x + 0j]), np.array([y + 0j]))[0]) for t in terms]
        assert got == pytest.approx([fn(x, y) for _, fn in want], abs=1e-14)


def _same_bits(got, want):
    got, want = np.broadcast_arrays(got, want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


# The argument of each log-ratio factor in the m-th term: a - c_m for cos,
# a + i*c_m for cosh.
_LOG_RATIO_MAPS = {
    "scherk2": (lambda a, c: a - c, lambda a, c: a - c),
    "scherk2max": (lambda a, c: a + 1j * c, lambda a, c: a + 1j * c),
    "scherkBI": (lambda a, c: a - c, lambda a, c: a + 1j * c),
}


@pytest.mark.parametrize("name", sorted(_LOG_RATIO_MAPS))
@pytest.mark.parametrize("n", [2, 3, 5])
def test_log_ratio_terms_are_the_family_height_at_mapped_points(name, n):
    height = builtin_surface(name).height
    map_x, map_y = _LOG_RATIO_MAPS[name]
    u, v = suite.SCHERK_WINDOW.axes()
    px, py = (np.array(p) for p in zip(*suite.PROBES))
    terms = identity_terms(f"{name}-decomp", n).rhs_terms
    for x, y in ((u.astype(complex), v.astype(complex)), (px, py)):
        with np.errstate(all="ignore"):
            for term, c in zip(terms, c_offsets(n)):
                want = height(map_x(x / n, c), map_y(y / n, c))
                assert _same_bits(term.fn(x, y), want), term.label


@pytest.mark.parametrize("n", [2, 3])
def test_helicoid_fans_and_flats_are_helicoid_heights_at_mapped_points(n):
    height = builtin_surface("helicoid").height
    u, v = suite.HELICOID_WINDOW.axes()
    x, y = u.astype(complex), v.astype(complex)
    ms = range(1, n)
    shifted = {m: x + m * PI for m in ms} | {-m: x - m * PI for m in ms}
    want = ([None] * len(ms)  # the towers
            + [-height(shifted[m] / n - 0.0, y / n) for m in ms] + [None]
            + [-height(shifted[m] / n - PI, y / n) for m in ms]
            + [height(shifted[m], y) for m in ms] + [height(shifted[-m], y) for m in ms])
    terms = identity_terms("helicoid-decomp", n).rhs_terms
    assert len(terms) == len(want)
    for term, w in zip(terms, want):
        if w is not None:
            assert _same_bits(term.fn(x, y), w), term.label


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


@pytest.mark.parametrize("identity_id, params, grid", [
    ("scherk2-decomp", {}, suite.SCHERK_WINDOW),
    ("helicoid-decomp", {}, suite.HELICOID_WINDOW),
    *[("kamien-decomp", {"beta": beta}, suite.kamien_window(beta))
      for beta in suite.KAMIEN_BETAS],
    ("scherk2max-decomp", {}, None),
    ("scherkBI-decomp", {}, None),
])
@pytest.mark.parametrize("n", [2, 32, 256])
def test_decomposition_error_grows_at_most_linearly_in_n(identity_id, params, grid, n):
    # The suite's windows (grids) and complex probes; measured errors run from
    # 0.02 to 0.64 of the bound for n = 2 to 1024.
    inst = identity_terms(identity_id, n, params)
    report = (verify_identity(inst, grid) if grid is not None
              else verify_identity_at(inst, suite.PROBES))
    assert report.max_abs_err <= 5e-15 * n


def test_grid_crossing_singularity_is_rejected():
    inst = identity_terms("scherk2-decomp", 2)
    with pytest.raises(DomainViolation):
        verify_identity(inst, GridSpec(1.0, 2.0, -1, 1, 11, 11))


def test_empty_probe_list_rejected():
    with pytest.raises(EmptyGrid):
        verify_identity_at(identity_terms("scherk2-decomp", 2), [])


def test_general_scaled_builds_its_base_surface_once(monkeypatch):
    builds, build = [], catalog._expr_surface
    monkeypatch.setattr(catalog, "_expr_surface", lambda text: builds.append(text) or build(text))
    inst = identity_terms("general-scaled", 2, {"surface": "expr:log(cos(y)/cos(x))"})
    assert builds == ["log(cos(y)/cos(x))"]
    assert inst.params["surface"] == "expr:log(cos(y)/cos(x))"


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
    ("scherk2-decomp", 3, suite.SCHERK_WINDOW, _mp_scherk2_sides),
    ("helicoid-decomp", 2, suite.HELICOID_WINDOW, _mp_helicoid_sides),
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


@settings(max_examples=300, deadline=None)
@given(identity_id=st.sampled_from(catalog.IDENTITY_IDS), n=st.integers(1, 4),
       u=st.lists(_EXTREME_BOUNDS, min_size=2, max_size=2, unique=True).map(sorted),
       v=st.lists(_EXTREME_BOUNDS, min_size=2, max_size=2, unique=True).map(sorted),
       shape=st.tuples(st.integers(2, 4), st.integers(2, 4)))
def test_identities_on_extreme_lattices_give_finite_reports_or_domain_violations(
        identity_id, n, u, v, shape):
    inst = identity_terms(identity_id, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = GridSpec(*u, *v, *shape)
        except ValueError:
            return
        try:
            report = verify_identity(inst, grid)
        except DomainViolation:
            return
    assert math.isfinite(report.max_abs_err) and math.isfinite(report.mean_abs_err)
    assert report.points_checked == grid.nu * grid.nv
