"""Tapes: several expressions evaluated together, against each one alone.

* a tape's values and errors for each expression are those of the
  expression's own ``eval_array``, bit for bit, for every integrand and jet
  set the samplers and ``expr:`` surfaces evaluate;
* quadrature that takes levels 1 and 2 in one pass against a level-by-level
  reference, and that fails a segment or integral that overflows;
* the inverted sampler integrates no endpoint twice in one round, and no
  surface point it already has;
* extreme finite endpoints give finite values or a typed error, no warning.
"""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmcsurf import catalog, reps
from zmcsurf.expr import AnalyticExpr, Binary, Const, Power, Tape, Unary, Var, parse, parse_xy
from zmcsurf.errors import EmptyGrid
from zmcsurf.meshio import GridSpec, sample_patch
from zmcsurf.reps import (
    BCData,
    NoConvergence,
    SingularPath,
    TLMSData,
    TLMSSampler,
    WEData,
    WESampler,
    _level_rule,
    integrate_segments,
)


def _assert_joint_is_alone(tape, *arrays):
    values, errors = tape(*arrays)
    assert len(values) == len(errors) == len(tape.exprs)
    for e, got, got_errors in zip(tape.exprs, values, errors):
        want, want_errors = e.eval_array(*arrays)
        assert got.tobytes() == want.tobytes()
        assert list(got_errors) == list(want_errors)
        assert [str(x) for x in got_errors.values()] == [str(x) for x in want_errors.values()]
    return values, errors


def _plane(lo, hi, n=9):
    """An n x n complex lattice with both signed zeros on each axis."""
    axis = np.concatenate([np.linspace(lo, hi, n), [0.0, -0.0]])
    return axis[:, None] + 1j * axis[None, :]


_DATA = {
    "we-minimal": WEData.from_text("exp(w)", "sin(w)"),
    "we-maximal": WEData.from_text("1 + 0.2*w", "0.4*w", mode="maximal"),
    "we-reduced": WEData.reduced("1/(w - 1.1)"),
    "we-pole": WEData.from_text("1/w", "log(w)"),
    "tlms": TLMSData.from_text("1 + u^2", "2 - v", "u", "v^2"),
    "tlms-pole": TLMSData.from_text("1/u", "sqrt(v)", "tan(u)", "atan(v)"),
    "bc": BCData.from_text("0.3*r^2 + tan(r)", "cosh(s)*s"),
    "bc-pole": BCData.from_text("log(r)", "1/s^2"),
}


def _tapes(data):
    if isinstance(data, WEData):
        return [data.integrand_tape, data.jet_tape]
    return [tape for curve in data.curves for tape in (curve.tape, curve.jet_tape)]


@pytest.mark.parametrize("kind", sorted(_DATA))
def test_sampler_tapes_give_each_expression_its_own_bits(kind):
    # the lattice passes through 0, where the "-pole" sets have their poles
    failed = [any(_assert_joint_is_alone(tape, _plane(-1.5, 1.5))[1])
              for tape in _tapes(_DATA[kind])]
    assert any(failed) == kind.endswith("-pole")


@pytest.mark.parametrize("sources", [
    ("w*2", "w*2 + 1"),       # a root that is an operand of a later root
    ("w", "1", "exp(w)"),     # leaf roots
    ("exp(w)", "exp(w)"),     # one instruction, two roots
    ("1/w", "(1/w)^2"),       # a root with a pole, used by a later root
])
def test_every_root_layout_gives_each_expression_its_own_bits(sources):
    _assert_joint_is_alone(Tape([parse(s) for s in sources]), _plane(-1.5, 1.5))


_EXPR_JETS = ["log(cos(y)/cos(x))", "1/(x - y) + log(x)*y^2", "sqrt(x*y) - atan(x/y)"]


def _jet_trees(text):
    e = parse_xy(text)
    ex, ey = e.derivative("x"), e.derivative("y")
    return (e, ex, ey, ex.derivative("x"), ex.derivative("y"), ey.derivative("y"))


@pytest.mark.parametrize("text", _EXPR_JETS)
def test_expr_surface_jet_tape_gives_each_tree_its_own_bits(text):
    x, y = GridSpec(-1.0, 1.0, -1.0, 1.0, 11, 11).lattice()   # through x = y and 0
    _assert_joint_is_alone(Tape(_jet_trees(text)), x, y)
    jet = catalog.builtin_surface(f"expr:{text}").exact_jet(x, y)
    entries = (jet.z, jet.z_x, jet.z_y, jet.z_xx, jet.z_xy, jet.z_yy)
    for got, tree in zip(entries, _jet_trees(text)):
        assert got.tobytes() == tree.eval_array(x, y)[0].real.tobytes()


def _operations(node):
    """Operation nodes of a tree, each repeat counted."""
    children = {Unary: ("arg",), Binary: ("left", "right"), Power: ("base",)}.get(type(node), ())
    return bool(children) + sum(_operations(getattr(node, c)) for c in children)


def test_the_log_ratio_jet_runs_each_distinct_subtree_once():
    trees = _jet_trees("log(cos(y)/cos(x))")
    assert sum(_operations(t.root) for t in trees) == 307
    assert len(Tape(trees)._code) == 84


def test_a_pole_in_one_expression_leaves_the_others_bits_alone():
    # At the pole 0.5 + 0.5i of the first expression, numpy's tan and cmath's
    # round differently: a tree walk of the second expression there would show.
    innocent = parse("tan(w)*w^3")
    w = np.array([0.5 + 0.5j, 0.0, 1e-300, -2.0])
    tape = Tape([parse("1/(w - 0.5 - 0.5*i)"), innocent, parse("w^-2")])
    values, errors = _assert_joint_is_alone(tape, w)
    assert list(errors[0]) == [0] and list(errors[2]) == [1, 2]   # (1e-300)^2 underflows to 0
    assert errors[1] == {} and values[1, 0] != innocent.eval(0.5 + 0.5j)
    assert str(errors[0][0]).startswith("division by zero in (1.0 / ((w - 0.5) - (0.5 * (1.0*i))))")


def test_signed_zero_constants_stay_apart():
    plus, minus = Const(0j), Const(complex(-0.0, -0.0))
    assert plus == minus and hash(plus) == hash(minus)
    w = Var("w")
    # At w = -1 - 0i, w + 0 is -1 + 0i (log = +i pi) and w + (-0) is -1 - 0i
    # (log = -i pi); at w = 0, 0 + (-w) is +0 and (-0) + (-w) is -0.
    exprs = [AnalyticExpr(node, ("w",)) for c in (plus, minus)
             for node in (Unary("log", Binary("add", w, c)), Binary("add", c, Unary("neg", w)))]
    values, _ = _assert_joint_is_alone(Tape(exprs), np.array([complex(-1.0, -0.0), 0j]))
    assert values[0, 0].imag == np.pi and values[2, 0].imag == -np.pi
    assert not np.signbit(values[1, 1].real) and not np.signbit(values[1, 1].imag)
    assert np.signbit(values[3, 1].real) and np.signbit(values[3, 1].imag)


@pytest.mark.parametrize("source, at, suspects", [
    ("(w*1.5) - (w*1.5)", 1e308, []),    # one distinct product: the sum stays finite
    ("(w*1.5) - (w*1.4)", 1e308, [0]),   # two finite products whose sum overflows
])
def test_an_overflowing_running_sum_keeps_the_value_of_eval(source, at, suspects, monkeypatch):
    seen = []
    walk = Tape._walk_suspects

    def recording(self, arrays, found, values, errors):
        seen.extend(found.tolist())
        return walk(self, arrays, found, values, errors)

    monkeypatch.setattr(Tape, "_walk_suspects", recording)
    e = parse(source)
    values, errors = e.eval_array([at, 2.0])
    assert seen == suspects and errors == {}
    assert values[0] == e.eval(at) and np.isfinite(values[0])


@pytest.mark.parametrize("sources", [
    ("log(cos(y)/cos(x))", "x*y + sin(x)", "exp(y)", "2.5"),  # several expressions
    ("1/x", "y/x + 2", "y^2"),                                # a pole walked as a suspect
    ("atan(y/x)", "log(x*y)", "-x + y"),                      # signed zeros on both axes
])
def test_a_tape_on_broadcast_leaves_equals_the_tape_on_materialised_leaves(sources):
    x = np.array([-1.0, -0.0, 0.0, 0.3, complex(2.0, -0.0)])[:, None]
    y = np.array([0.5, -0.0, 1.1, -2.0])[None, :]
    tape = Tape([parse_xy(s) for s in sources])
    got, got_errors = tape(x, y)
    want, want_errors = tape(*(np.array(a) for a in np.broadcast_arrays(x, y)))
    assert got.shape == want.shape == (len(sources), 5, 4)
    assert got.tobytes() == want.tobytes()
    assert [list(e) for e in got_errors] == [list(e) for e in want_errors]
    assert [[str(x) for x in e.values()] for e in got_errors] == [
        [str(x) for x in e.values()] for e in want_errors]
    if sources[0] == "1/x":  # flat indices of the rows x = -0.0 and x = 0.0
        assert sorted(got_errors[0]) == list(range(4, 12))


def test_tape_rejects_mixed_or_unknown_variables():
    with pytest.raises(ValueError, match="share"):
        Tape([parse("u", "u"), parse("v", "v")])
    with pytest.raises(ValueError, match="not one of"):
        Tape([AnalyticExpr(Var("z"), ("w",))])


# ---------------------------------------------------------------------------
# levels 1 and 2 in one pass, against a level-by-level reference
# ---------------------------------------------------------------------------

def _level_by_level(integrands, z0, z1, tol=1e-10, max_segments=1024):
    """One endpoint, one level per pass, one ``eval_array`` per integrand.
    Returns its values, error and the last level it evaluated."""
    z0, z1 = complex(z0), complex(z1)
    if z0 == z1:
        return np.zeros(len(integrands), dtype=complex), None, 0
    delta = np.array([z1 - z0])
    prev, nseg = None, 1
    while True:
        t, weights = _level_rule(nseg)
        w = z0 + t[None, :] * delta[:, None]
        cur, failed = np.empty(len(integrands), dtype=complex), []
        for idx, e in enumerate(integrands):
            vals, errs = e.eval_array(w)
            failed += [(node, idx, exc) for node, exc in errs.items()]
            cur[idx] = (delta * (vals[:, :weights.size] * weights).sum(axis=1))[0]
        if failed:
            node, _, exc = min(failed)
            return None, SingularPath(f"integrand singular at node {complex(w[0, node])!r}: "
                                      f"{exc}"), nseg
        if prev is not None and np.abs(cur - prev).max() < tol:
            return cur, None, nseg
        prev, nseg = cur, 2 * nseg
        if nseg > max_segments:
            return None, NoConvergence(
                f"quadrature on [{z0!r}, {z1!r}] did not converge within {max_segments} "
                f"segments"), nseg // 2


_QUADRATURE_CASES = [
    # polynomial integrands: levels 1 and 2 agree at once
    (WEData.from_text("1", "w"), [0.3 + 0.2j, -0.7 + 0.5j, 0j], 1024),
    # far endpoints of exp and sin need more levels
    (WEData.from_text("exp(w)", "sin(w)"), [1.9 + 1.7j, -2.5 + 0.4j, 0.2 - 0.1j], 1024),
    # exp overflows at level 1's far nodes
    (WEData.from_text("exp(w)", "w"), [2000.0, 0.5j], 1024),
    # the pole of 1/w is level 2's boundary t = 1/2 on the path to -1, and
    # level 4's t = 1/4 on the path to -3; the path to -0.9 + 0.3i passes near
    # it and stops at level 4
    (WEData.from_text("1/w", "w", zeta0=1.0), [-1.0, -3.0, 0.5 + 0.5j, -0.9 + 0.3j], 1024),
    # 1e-9 from the pole: never settles
    (WEData.from_text("1/w", "w", zeta0=complex(-1, 1e-9)), [complex(1, 1e-9), 0.5j], 64),
    (WEData.from_text("1/w", "w", zeta0=complex(-1, 1e-9)), [complex(1, 1e-9)], 2),
    # the cap stops every endpoint after level 1 or level 2
    (WEData.from_text("exp(w)", "sin(w)"), [0.3 + 0.2j, 1.5j], 1),
    (WEData.from_text("exp(w)", "sin(w)"), [0.3 + 0.2j, 1.5j], 2),
]


def test_joint_levels_are_the_level_by_level_reference(monkeypatch):
    outcomes = set()
    for data, targets, max_segments in _QUADRATURE_CASES:
        monkeypatch.setattr(reps, "_MAX_SEGMENTS", max_segments)
        values, errors = integrate_segments(data.integrand_tape, data.zeta0, targets)
        for k, target in enumerate(targets):
            want, want_error, level = _level_by_level(data.integrands, data.zeta0, target,
                                                      max_segments=max_segments)
            alone, alone_errors = integrate_segments(data.integrand_tape, data.zeta0, target)
            for got, got_error in ((values[:, k], errors[k]), (alone[:, 0], alone_errors[0])):
                if want_error is None:
                    assert got_error is None
                    assert got.tobytes() == want.tobytes()
                else:
                    assert type(got_error) is type(want_error)
                    assert str(got_error) == str(want_error)
                    assert not got.any()
            outcomes.add((type(want_error).__name__, min(level, 3)))
    assert outcomes == {("NoneType", 0), ("NoneType", 2), ("NoneType", 3),
                        ("SingularPath", 1), ("SingularPath", 2), ("SingularPath", 3),
                        ("NoConvergence", 1), ("NoConvergence", 2), ("NoConvergence", 3)}


@pytest.mark.parametrize("sources, node, at_fault", [
    # the poles are level 4's boundaries 1/4 and 3/4: the lower node wins over
    # the lower integrand index
    (("1/(w - 0.75)", "1/(w - 0.25)"), 0.25, "(1.0 / (w - 0.25))"),
    (("1/(w - 0.25)", "1/(w - 0.75)"), 0.25, "(1.0 / (w - 0.25))"),
    # level 2's boundary 1/2 fails in both: the lower integrand index wins
    (("1/(w - 0.5)", "1/(w - 0.5)^2"), 0.5, "(1.0 / (w - 0.5))"),
    (("1/(w - 0.5)^2", "1/(w - 0.5)"), 0.5, "(1.0 / ((w - 0.5)^2))"),
])
def test_a_segment_names_its_first_failing_node(sources, node, at_fault):
    integrands = [parse(s) for s in sources]
    values, errors = integrate_segments(Tape(integrands), 0, 1)
    want = f"integrand singular at node {complex(node)!r}: division by zero in {at_fault} at 0j"
    assert type(errors[0]) is SingularPath and str(errors[0]) == want
    assert str(_level_by_level(integrands, 0, 1)[1]) == want
    assert not values.any()


def test_a_non_finite_endpoint_is_a_singular_path_without_a_warning():
    tape = Tape([parse("1"), parse("2")])
    inf, nan = float("inf"), float("nan")
    ends = [inf, complex(nan), -inf * 1j, 0.3 + 0.2j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, errors = integrate_segments(tape, 0, ends)
        alone, _ = integrate_segments(tape, 0, ends[3])
    for end, err in zip(ends[:3], errors):
        assert type(err) is SingularPath
        assert str(err) == f"segment [0j, {complex(end)!r}] has a non-finite endpoint"
    assert errors[3] is None
    assert not values[:, :3].any()
    assert values[:, 3].tobytes() == alone[:, 0].tobytes()


@pytest.mark.parametrize("z0, z1, what", [
    (1e308, -1e308, "has a non-finite length"),
    (-1.7e308j, 1.7e308j, "has a non-finite length"),
    (0, 1.7e308, "overflows"),
    (0, 1e200, "overflows"),
])
def test_an_overflowing_segment_is_a_singular_path_without_a_warning(z0, z1, what):
    tape = Tape([parse("1"), parse("w")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, errors = integrate_segments(tape, [z0, 0], [z1, 0.5])
        alone, _ = integrate_segments(tape, 0, 0.5)
    assert type(errors[0]) is SingularPath and str(errors[0]).endswith(what)
    assert errors[1] is None and not values[:, 0].any()
    assert values[:, 1].tobytes() == alone[:, 0].tobytes()


@pytest.mark.parametrize("sampler, grid", [
    (WESampler(WEData.from_text("1", "w")), GridSpec(1e160, 2e160, 0, 1, 3, 3)),
    (TLMSSampler(TLMSData.from_text("1", "1", "u", "v")), GridSpec(1e200, 2e200, 0, 1, 3, 3)),
])
def test_a_patch_whose_integrals_overflow_is_empty_without_a_warning(sampler, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyGrid):
            sample_patch(sampler, grid)


# ---------------------------------------------------------------------------
# Newton: the first residual is a known surface point
# ---------------------------------------------------------------------------

def _record_calls(monkeypatch):
    """The endpoints of every ``integrate_segments`` call, one list per call."""
    calls = []
    original = reps.integrate_segments

    def recording(integrands, z0, z1, *args, **kwargs):
        calls.append(np.ravel(z1).tolist())
        return original(integrands, z0, z1, *args, **kwargs)

    monkeypatch.setattr(reps, "integrate_segments", recording)
    return calls


def test_inverted_sampler_integrates_no_endpoint_twice(monkeypatch):
    # The sampler integrates the seed, then speculates (every point from the
    # seed) in full steps, one batched Newton round per call, whose first
    # residuals are the seed's surface point.  The sheet test accepts every
    # point from one tape call and no quadrature, so nothing falls back.  The
    # anti-diagonal wavefront took 69 calls here, and a second Newton batch
    # that confirmed the speculative roots 9.
    data, seed = WEData.from_text("1", "w"), 0.05 + 0.02j
    grid = GridSpec(-0.4, 0.4, -0.4, 0.4, 9, 9)
    calls = _record_calls(monkeypatch)
    _, valid = reps.InvertedGraphSampler(data, zeta_seed=seed).sample_grid(grid)
    assert valid.all()
    assert len(calls) <= 5
    assert calls[0] == [seed]
    assert all(max(Counter(call).values()) == 1 for call in calls)
    batched = Counter(z for call in calls for z in call)
    # One-point Newtons of the speculation round integrate the same endpoints,
    # and the seed once more each.
    calls.clear()
    x, y = grid.lattice()
    for k in range(x.size):
        start = reps._surface_points(data, seed)
        reps._invert(data, [x[k]], [y[k]], [seed], *start, tries=1)
    assert Counter(z for call in calls for z in call) == batched + Counter([seed] * (x.size - 1))


# ---------------------------------------------------------------------------
# extreme finite endpoints
# ---------------------------------------------------------------------------

_EXTREME = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324, 2.2e-308, -0.0, 0.0]))


@settings(max_examples=100, deadline=None)
@given(a=st.tuples(_EXTREME, _EXTREME), b=st.tuples(_EXTREME, _EXTREME),
       tape=st.sampled_from([Tape([parse("1"), parse("w")]),
                             WEData.from_text("1", "w").integrand_tape,  # Enneper
                             Tape([parse("1/w"), parse("exp(w)")])]))
def test_integrate_segments_on_extreme_endpoints_gives_values_or_typed_errors(a, b, tape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, errors = integrate_segments(tape, complex(*a), complex(*b))
    assert errors[0] is None or type(errors[0]) in (SingularPath, NoConvergence)
    assert np.isfinite(values).all()
