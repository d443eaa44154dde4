"""Parser, evaluator, and symbolic derivative of the expression engine."""

import builtins
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from zmcsurf.expr import (
    FUNCTIONS,
    MAX_DEPTH,
    MAX_NESTING,
    AnalyticExpr,
    Binary,
    Const,
    EvalDomainError,
    ExprSyntaxError,
    Power,
    Tape,
    TwoVarExpr,
    Unary,
    UnknownIdentifier,
    Var,
    _d,
    _eval_node,
    _fold,
    parse,
    parse_xy,
)
from zmcsurf.reps import WEData


def test_polynomial_arithmetic():
    e = parse("w^2 + 1", "w")
    assert e.eval(2) == 5


def test_product_vanishes_at_zero():
    e = parse("exp(w)*sin(w)", "w")
    assert e.eval(0) == 0


def test_incomplete_expression_reports_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("w +", "w")
    assert err.value.offset == 3


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse("w + q", "w")
    assert err.value.name == "q"


def test_imaginary_unit_literal():
    assert parse("i*i", "w").eval(0) == -1


def test_unary_minus_binds_looser_than_power():
    assert parse("-w^2", "w").eval(3) == -9


def test_negative_integer_exponent():
    assert parse("w^-2", "w").eval(2) == 0.25
    assert parse("w^(-2)", "w").eval(2) == 0.25


def test_fractional_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("w^2.5", "w")


@pytest.mark.parametrize("make, offset", [
    (lambda k: "(" * k + "w" + ")" * k, MAX_NESTING),
    (lambda k: "sin(" * k + "w" + ")" * k, 4 * MAX_NESTING + 3),
    (lambda k: "-" * k + "w", MAX_NESTING),
    (lambda k: "w^" + "(" * k + "2" + ")" * k, MAX_NESTING + 2),
], ids=["parentheses", "calls", "signs", "exponent"])
def test_nesting_past_the_bound_is_a_syntax_error_at_its_opening_token(make, offset):
    parse(make(MAX_NESTING), "w").derivative().derivative()
    with pytest.raises(ExprSyntaxError, match=f"nesting deeper than {MAX_NESTING} levels") as err:
        parse(make(MAX_NESTING + 1), "w")
    assert err.value.offset == offset


def test_an_expression_deeper_than_the_bound_is_a_syntax_error():
    assert parse_xy("+".join(["x"] * (MAX_DEPTH + 1))).eval(1, 0) == MAX_DEPTH + 1
    with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} operations"):
        parse_xy("+".join(["x"] * (MAX_DEPTH + 2)))


def test_a_domain_error_elides_long_subexpressions():
    e = parse("(" + "+".join(["w"] * 300) + ")/(w-w)", "w")
    with pytest.raises(EvalDomainError) as err:
        e.eval(0.5)
    assert str(err.value) == "division by zero in ((... + w) / (w - w)) at 0j"


def test_repr_of_a_deep_expression_is_bounded_text():
    # A 600-term sum, WE data holding one, and a derivative DAG whose tree is
    # far larger than its node count all print, eliding long subexpressions.
    deep = "+".join(["x"] * 600)
    quotient = parse_xy("/".join(["(1+x*y)"] * 80)).derivative("x").derivative("y")
    assert repr(parse_xy(deep)) == "<TwoVarExpr ((((... + x) + x) + x) + x)>"
    assert repr(parse_xy(deep).root.right) == "<Var x>"
    assert repr(WEData.from_text(deep.replace("x", "w"), "w")).startswith(
        "WEData(f=<AnalyticExpr ((((... + w) + w) + w) + w)>, g=<AnalyticExpr w>, ")
    assert len(repr(quotient)) < 1000 and repr(quotient.root).startswith("<Binary (")
    assert repr(parse("1 - 2*w")) == "<AnalyticExpr (1.0 - (2.0 * w))>"


@pytest.mark.parametrize("walk", [
    lambda node: _eval_node(node, {"w": 1j}), lambda node: _d(node, "w"), _fold, repr,
    lambda node: Tape((AnalyticExpr(node, ("w",)),)),
], ids=["eval", "derivative", "fold", "print", "tape"])
def test_a_tree_walk_refuses_what_is_not_a_node(walk):
    with pytest.raises(TypeError, match="not an expression node: 3"):
        walk(Binary("add", Var("w"), 3))


def test_scientific_literals():
    assert parse("1e-2 + w", "w").eval(0) == 0.01


def test_pole_raises_domain_error():
    e = parse("1/w", "w")
    with pytest.raises(EvalDomainError) as err:
        e.eval(0)
    assert err.value.value == 0


def test_log_principal_values():
    assert parse("log(w)", "w").eval(1) == 0
    with pytest.raises(EvalDomainError):
        parse("log(w)", "w").eval(0)


def test_overflow_raises_domain_error():
    with pytest.raises(EvalDomainError):
        parse("exp(w)", "w").eval(1e4)


def test_cube_at_complex_point():
    # (1+i)^3 = 1 + 3i + 3i^2 + i^3 = -2 + 2i, so w^3 - 2 evaluates to -4 + 2i.
    value = parse("w^3 - 2", "w").eval(1 + 1j)
    assert value == pytest.approx(-4 + 2j, abs=1e-14)


def test_power_rule_derivative():
    d = parse("w^3", "w").derivative()
    assert d.eval(2) == pytest.approx(12, abs=1e-14)


def test_constant_derivative_is_zero():
    d = parse("2.5", "w").derivative()
    assert d.eval(123.0) == 0


def test_tanh_derivative_at_origin():
    d = parse("tanh(w)", "w").derivative()
    assert d.eval(0) == pytest.approx(1, abs=1e-15)


def test_two_variable_parse_and_partials():
    e = parse_xy("x*y + sin(x)")
    assert e.eval(0.5, 2.0) == pytest.approx(1.0 + math.sin(0.5))
    ex = e.derivative("x")
    assert ex.eval(0.5, 2.0) == pytest.approx(2.0 + math.cos(0.5))
    exy = ex.derivative("y")
    assert exy.eval(0.3, -1.0) == pytest.approx(1.0)


def test_two_variable_rejects_other_names():
    with pytest.raises(UnknownIdentifier):
        parse_xy("x + z")


def test_eval_converts_arguments_before_any_operation():
    # -0.3 has imaginary part +0 (log gives +i pi); -complex(0.3) has -0 (-i pi).
    e = parse("log(-w)")
    want = repr(_eval_node(e.root, {"w": 0.3 + 0j}))
    assert want.endswith("-3.141592653589793j)")
    assert repr(e.eval(0.3)) == repr(e.eval(0.3 + 0j)) == want
    xy = parse_xy("log(-x) + y")
    for x, y in [(3, 2), (0.3, 2.0), (np.float64(0.3), np.float64(2.0))]:
        want = repr(_eval_node(xy.root, {"x": complex(x), "y": complex(y)}))
        assert want.endswith("-3.141592653589793j)")
        assert repr(xy.eval(x, y)) == repr(xy.eval(complex(x), complex(y))) == want


def test_derivative_names_one_of_the_variables():
    e = parse_xy("x*y + sin(x)")
    for name in (None, "w"):
        with pytest.raises(ValueError, match="one of the variables"):
            e.derivative(name)
    w = parse("w^3")
    assert w.derivative("w") == w.derivative()
    with pytest.raises(ValueError, match="one of the variables"):
        w.derivative("x")


def test_two_variable_derivative_keeps_its_class_and_tree():
    e = parse_xy("log(cos(y)/cos(x)) + x*y^2")
    for name in ("x", "y"):
        d = e.derivative(name)
        assert type(d) is TwoVarExpr and d.varnames == ("x", "y")
        assert d.root == _fold(_d(e.root, name))


def test_tape_rejects_one_and_two_variable_expressions_together():
    with pytest.raises(ValueError, match="share"):
        Tape([parse("w"), parse_xy("x + y")])


# ---------------------------------------------------------------------------
# random-tree properties
# ---------------------------------------------------------------------------

_UNARY_OPS = ("neg", "exp", "sin", "cos", "tanh", "sinh", "cosh", "atan")
_BINARY_OPS = ("add", "sub", "mul", "div")


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var("w")
        return Const(complex(round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6)))
    pick = rng.random()
    if pick < 0.4:
        return Unary(rng.choice(_UNARY_OPS), _random_tree(rng, depth - 1))
    if pick < 0.85:
        return Binary(rng.choice(_BINARY_OPS), _random_tree(rng, depth - 1),
                      _random_tree(rng, depth - 1))
    return Power(_random_tree(rng, depth - 1), rng.randint(-3, 3))


def test_print_parse_round_trip_evaluates_identically():
    rng = random.Random(20240810)
    checked = 0
    for _ in range(1000):
        tree = _random_tree(rng, 3)
        e = AnalyticExpr(tree, ("w",))
        back = parse(e.source(), "w")
        for _ in range(3):
            w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            try:
                expected = e.eval(w)
            except EvalDomainError:
                continue
            assert back.eval(w) == expected  # bit-exact: same ops in the same order
            checked += 1
    assert checked > 1500


_const_strategy = st.builds(
    complex,
    st.floats(-2, 2, allow_nan=False).filter(lambda v: v != 0),
    st.floats(-2, 2, allow_nan=False),
)
_leaf = st.one_of(st.builds(Const, _const_strategy), st.just(Var("w")))
_tree = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.builds(lambda op, a: Unary(op, a), st.sampled_from(_UNARY_OPS), children),
        st.builds(lambda op, a, b: Binary(op, a, b), st.sampled_from(_BINARY_OPS),
                  children, children),
        st.builds(lambda a, k: Power(a, k), children, st.integers(-3, 3)),
    ),
    max_leaves=6,
)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(tree=_tree, re=st.floats(-1, 1, allow_nan=False), im=st.floats(-1, 1, allow_nan=False))
def test_symbolic_derivative_matches_central_difference(tree, re, im):
    e = AnalyticExpr(tree, ("w",))
    d1 = e.derivative()
    w = complex(re, im)
    h = 1e-5
    # Keep the probe away from singularities and wild higher derivatives so the
    # central-difference truncation bound h^2 * |f'''| / 6 stays below target.
    try:
        values = [e.eval(w + h), e.eval(w - h), d1.eval(w)]
        half = [e.eval(w + h / 2), e.eval(w - h / 2)]
        d3 = d1.derivative().derivative().eval(w)
    except EvalDomainError:
        assume(False)
        return
    assume(all(abs(v) < 1e3 for v in values))
    assume(abs(d3) < 1e4)
    central = (values[0] - values[1]) / (2 * h)
    central_half = (half[0] - half[1]) / h
    # Magnitude guards miss essential singularities hiding inside the stencil
    # (saturating functions evaluate small everywhere); require the two step
    # sizes to agree before trusting the stencil at all.
    assume(abs(central - central_half) <= 1e-7 * (1 + abs(central_half)))
    assert abs(central - values[2]) <= 1e-6 * (1 + abs(values[2]))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(tree=_tree)
def test_derivative_stays_in_grammar(tree):
    # Differentiation must be closed: the derivative re-parses from its source.
    e = AnalyticExpr(tree, ("w",))
    d = e.derivative()
    reparsed = parse(d.source(), "w")
    w = 0.637 + 0.213j
    try:
        expected = d.eval(w)
    except EvalDomainError:
        assume(False)
        return
    assert reparsed.eval(w) == expected


def test_eval_domain_error_identifies_subexpression():
    e = parse("1 + 1/sin(w)", "w")
    with pytest.raises(EvalDomainError) as err:
        e.eval(0)
    assert "sin" in str(err.value)


# ---------------------------------------------------------------------------
# the scalar tape run against the tree walk
# ---------------------------------------------------------------------------

_SIGNED_ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
_KERNEL_CONSTS = _SIGNED_ZEROS + [1 + 0j, -1 + 0j, 1j, -1j, 0.5 - 2j, 710 + 0j, 1e300 + 0j]
_KERNEL_POINTS = [
    *_SIGNED_ZEROS,                                      # poles of 1/w, log w, w^-k
    complex(-1.0, 0.0), complex(-1.0, -0.0),             # the cut of log and sqrt, both sides
    complex(0.0, 1.0), complex(-0.0, 2.0), complex(0.0, -2.0), complex(-0.0, -2.0),  # atan
    complex(math.pi / 2, 0.0), complex(0.0, math.pi / 2),  # next to the poles of tan, tanh
    710 + 0j, -710 + 0j, complex(0.0, 710.0), 1e200 + 0j, complex(1e308, -1e308),  # overflow
]
_kernel_tree = st.recursive(
    st.one_of(st.builds(Const, st.sampled_from(_KERNEL_CONSTS) | _const_strategy),
              st.just(Var("w"))),
    lambda children: st.one_of(
        st.builds(Unary, st.sampled_from(("neg",) + FUNCTIONS), children),
        st.builds(Binary, st.sampled_from(_BINARY_OPS), children, children),
        st.builds(lambda op, a: Binary(op, a, a), st.sampled_from(_BINARY_OPS), children),
        st.builds(Power, children, st.integers(-4, 4) | st.sampled_from([-150, 101])),
    ),
    max_leaves=8,
)


def _outcome(f, *args):
    """repr of the value, or the type and message of what was raised."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=400, deadline=None)
@given(tree=_kernel_tree,
       w=st.sampled_from(_KERNEL_POINTS)
       | st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
def test_scalar_tape_run_gives_the_bits_and_errors_of_the_tree_walk(tree, w):
    assert _outcome(AnalyticExpr(tree, ("w",)).eval, w) == _outcome(_eval_node, tree, {"w": w})


@pytest.mark.parametrize("x, y", [(0.3, 0.2), (0.5, 0.5), (math.pi / 2, 0.1), (0.0, -0.0),
                                  (-1.0, 0.0), (complex(-1.0, -0.0), 2.0), (800.0, 0.0)])
def test_two_variable_kernels_equal_the_tree_walk(x, y):
    e = parse_xy("log(cos(y)/cos(x)) + 1/(x - y) + sqrt(x)*y^-2")
    trees = (e, e.derivative("x"), e.derivative("y"))
    env = {"x": complex(x), "y": complex(y)}
    for t in trees:
        assert _outcome(t.eval, x, y) == _outcome(_eval_node, t.root, env)
    got = Tape(trees).scalar(complex(x), complex(y))
    if got is not None:   # several expressions: a tuple of their values
        assert repr(got) == repr(tuple(t.eval(x, y) for t in trees))


def test_scalar_eval_compiles_and_runs_no_source(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar eval compiled or ran source text")

    name = "__import__('os')"
    w = Var(name)
    e = AnalyticExpr(Binary("add", Unary("log", w), Power(Binary("mul", Const(2.5 + 0j), w), -2)),
                     (name,))
    with monkeypatch.context() as patch:  # undone before pytest reports a failure
        for fn in ("compile", "exec"):
            patch.setattr(builtins, fn, refuse)
        got = e.eval(3), AnalyticExpr(w, (name,)).eval(0.25)
        with pytest.raises(EvalDomainError, match="log of zero"):
            e.eval(0)
    assert repr(got) == repr((_eval_node(e.root, {name: 3 + 0j}), 0.25 + 0j))


def test_the_scalar_tape_run_takes_one_value_per_variable():
    tape = parse_xy("x*y")._tape
    assert tape.scalar(2, 3) == 6
    for values in ((2,), (2, 3, 4)):
        with pytest.raises(TypeError, match="expected 2 values"):
            tape.scalar(*values)


def test_the_array_tape_run_takes_one_array_per_variable():
    # An array too many took the first constant's slot, and none at all
    # indexed past the leaves.
    one, two = parse("w + 2"), parse_xy("x*y")
    a = np.array([1.0])
    for e, wrong in ((one, (a, np.array([10.0]))), (one, ()), (two, (a,)), (two, (a, a, a))):
        for run in (e._tape, e.eval_array):
            with pytest.raises(TypeError, match=f"^expected {len(e.varnames)} values, got "
                                                f"{len(wrong)}$"):
                run(*wrong)

