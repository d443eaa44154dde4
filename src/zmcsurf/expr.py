"""Complex-analytic expressions in one or more variables: parse, evaluate,
differentiate.

The grammar covers complex constants, the imaginary literal ``i``, the free
variables, ``+ - * /``, integer powers written ``base^k``, unary minus, and
the functions exp, log, sin, cos, tan, atan, sinh, cosh, tanh, sqrt.
Exponents are restricted to integer literals so that symbolic differentiation
stays closed over the grammar; general powers must be spelled
``exp(a*log(w))``.  log, sqrt and atan use principal branches.

Operator precedence, tightest first: ``^``, unary ``-``, ``* /``, ``+ -``.
Binary operators associate to the left; ``name(arg)`` is a function call.
Text may nest parenthesised groups, function arguments and signs at most
``MAX_NESTING`` (100) levels deep, and its tree may be at most ``MAX_DEPTH``
(1000) operations deep, a sum of 1001 terms; deeper text is an
``ExprSyntaxError`` when it is parsed.  Every walk of a tree (evaluation,
differentiation, folding, printing, compiling) is the loop ``_bottom_up``,
which visits each node object once: a tree's depth costs no stack, and a
subtree that several derivatives share is walked once.

Expressions are evaluated by a ``Tape``: a set of expressions in the same
variables, compiled once into one straight-line list of instructions that
runs each distinct subtree of the set once, with numpy over ``float64``
(real inputs) or ``complex128`` arrays, or with ``cmath`` at one point.
``eval_array`` is the array run of one expression's tape.  Points where one
of an expression's own float64 values is non-finite run again in complex,
and points where one of its complex values is non-finite are evaluated by
the scalar tree walk ``_eval_node``, so a pole, branch point or overflow
still raises ``EvalDomainError`` naming the node at fault.  Scalar ``eval``
runs the same instructions on Python complex numbers with ``cmath``
(``Tape.scalar``); where that gives None it runs the tree walk, so values and
errors are the walk's, and the walk is the test oracle for both.

There is no simplifier beyond constant folding (applied to derivatives):
callers compare values, not tree shapes.
"""

from __future__ import annotations

import cmath
import operator
import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Union

import numpy as np

__all__ = [
    "AnalyticExpr",
    "TwoVarExpr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "FUNCTIONS",
    "ExprSyntaxError",
    "UnknownIdentifier",
    "EvalDomainError",
    "parse",
    "parse_xy",
    "Tape",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "atan", "sinh", "cosh", "tanh", "sqrt")

MAX_NESTING = 100  # parenthesised groups, function arguments and signs inside each other
MAX_DEPTH = 1000   # operations on the longest path from the root to a leaf


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class ExprSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ValueError):
    """An identifier other than the free variable(s), ``i``, or a function name."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} (offset {offset})")
        self.name = name
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Evaluation hit a pole, a branch point, or overflowed.

    ``subexpr`` is the offending AST node and ``value`` the input it choked on.
    """

    def __init__(self, reason: str, subexpr, value):
        super().__init__(f"{reason} in {_to_source_node(subexpr, 200)} at {value!r}")
        self.reason = reason
        self.subexpr = subexpr
        self.value = value


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class _Printed:
    def __repr__(self) -> str:
        """``<Type text>``, a subexpression over 200 characters as ``...``."""
        return f"<{type(self).__name__} {_to_source_node(getattr(self, 'root', self), 200)}>"


@dataclass(frozen=True, repr=False)
class Const(_Printed):
    value: complex


@dataclass(frozen=True, repr=False)
class Var(_Printed):
    name: str


@dataclass(frozen=True, repr=False)
class Unary(_Printed):
    op: str  # "neg" or a FUNCTIONS member
    arg: "Node"


@dataclass(frozen=True, repr=False)
class Binary(_Printed):
    op: str  # "add" | "sub" | "mul" | "div"
    left: "Node"
    right: "Node"


@dataclass(frozen=True, repr=False)
class Power(_Printed):
    base: "Node"
    exponent: int


Node = Union[Const, Var, Unary, Binary, Power]


def _bottom_up(root, visit, done=None):
    """``visit(node, *values of its children)`` at every node under ``root``,
    children first and left to right, once per node object; ``done`` maps
    ``id(node)`` to its value and may be shared between calls.  A loop, not
    recursion, so a tree's height costs no stack: every walk of a tree
    (evaluation, differentiation, folding, printing, compiling) goes through
    here.  A node waits on the stack under its children until they are done."""
    done = {} if done is None else done
    stack = [root]
    while stack:
        node = stack.pop()
        key = id(node)
        if key in done:
            continue
        if isinstance(node, Binary):
            left, right = node.left, node.right
            if id(left) in done and id(right) in done:
                done[key] = visit(node, done[id(left)], done[id(right)])
            else:
                stack += (node, right, left)
        elif isinstance(node, (Unary, Power)):
            arg = node.arg if isinstance(node, Unary) else node.base
            if id(arg) in done:
                done[key] = visit(node, done[id(arg)])
            else:
                stack += (node, arg)
        elif isinstance(node, (Const, Var)):
            done[key] = visit(node)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return done[id(root)]


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"\d+\Z")


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            m = _NUMBER_RE.match(src, i)
            tokens.append(("num", m.group(0), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _NAME_RE.match(src, i)
            tokens.append(("name", m.group(0), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str, varnames):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.varnames = tuple(varnames)
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", offset)
        return self.advance()

    def parse(self) -> Node:
        node = self.expression()
        kind, _, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input", offset)
        # Each node takes a token of its own, so only a long text can be too deep.
        if (len(self.tokens) > MAX_DEPTH
                and _bottom_up(node, lambda _, *heights: 1 + max(heights, default=-1)) > MAX_DEPTH):
            raise ExprSyntaxError(f"expression deeper than {MAX_DEPTH} operations", 0)
        return node

    def nested(self, parse):
        """``parse()`` one level deeper, refused past ``MAX_NESTING`` levels."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels",
                                  self.tokens[self.pos - 1][2])
        node = parse()
        self.nesting -= 1
        return node

    def expression(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Binary("add" if text == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = Binary("mul" if text == "*" else "div", node, rhs)
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.nested(self.unary))
        if kind == "op" and text == "+":
            self.advance()
            return self.nested(self.unary)
        return self.power()

    def power(self) -> Node:
        node = self.primary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = Power(node, self.exponent())
            else:
                return node

    def exponent(self) -> int:
        kind, text, offset = self.peek()
        if kind == "op" and text == "(":
            self.advance()
            k = self.nested(self.exponent)
            self.expect_op(")")
            return k
        sign = 1
        if kind == "op" and text in "+-":
            self.advance()
            sign = -1 if text == "-" else 1
            kind, text, offset = self.peek()
        if kind != "num" or not _INT_RE.match(text):
            raise ExprSyntaxError("power exponent must be an integer literal", offset)
        self.advance()
        return sign * int(text)

    def primary(self) -> Node:
        kind, text, offset = self.advance()
        if kind == "num":
            return Const(complex(float(text)))
        if kind == "name":
            if text == "i":
                return Const(1j)
            if text in self.varnames:
                return Var(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(self.expression)
                self.expect_op(")")
                return Unary(text, arg)
            raise UnknownIdentifier(text, offset)
        if kind == "op" and text == "(":
            node = self.nested(self.expression)
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a value", offset)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# One function table per interpreter of a tape's instructions (below); the
# tree walk calls the functions of this one.  "pow" takes a Power's exponent
# as ``exp``.
_SCALAR_FN: dict[str, Callable] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "neg": operator.neg,
    "pow": pow,
    "exp": cmath.exp,
    "log": cmath.log,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "tan": cmath.tan,
    "atan": cmath.atan,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
    "tanh": cmath.tanh,
    "sqrt": cmath.sqrt,
}


def _check_finite(value: complex, node: Node, at) -> complex:
    if not cmath.isfinite(value):
        raise EvalDomainError("overflow", node, at)
    return value


def _eval_step(env: dict, node: Node, *args) -> complex:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        (v,) = args
        if node.op == "neg":
            return -v
        if node.op == "log" and v == 0:
            raise EvalDomainError("log of zero", node, v)
        try:
            out = _SCALAR_FN[node.op](v)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise EvalDomainError(str(exc) or "domain error", node, v) from None
        return _check_finite(out, node, v)
    if isinstance(node, Binary):
        a, b = args
        if node.op == "div" and b == 0:
            raise EvalDomainError("division by zero", node, b)
        return _check_finite(_SCALAR_FN[node.op](a, b), node, (a, b))
    if isinstance(node, Power):
        (base,) = args
        if base == 0 and node.exponent < 0:
            raise EvalDomainError("zero to a negative power", node, base)
        try:
            out = base ** node.exponent
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalDomainError(str(exc) or "power overflow", node, base) from None
        return _check_finite(out, node, base)


def _eval_node(node: Node, env: dict) -> complex:
    """The tree walk: the value at the point ``env``, or EvalDomainError at the
    first node (children first, left to right) where it fails."""
    return _bottom_up(node, partial(_eval_step, env))


# ---------------------------------------------------------------------------
# tape evaluation: one program per set of expressions, run on arrays or at one point
# ---------------------------------------------------------------------------

def _power(base, exp: int, one=1 + 0j):
    """base**exp by the square-and-multiply order of CPython's complex power, in
    ufuncs: numpy's scalar ``*`` rounds a 0-d complex product unlike an array's.
    ``one`` is the run's own one, 1.0 in a float64 run."""
    n = abs(exp)
    out = one
    while n:
        if n & 1:
            out = np.multiply(out, base)
        n >>= 1
        if n:
            base = np.multiply(base, base)
    return np.divide(1, out) if exp < 0 else out


_NUMPY_FN: dict[str, Callable] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "neg": np.negative,
    "pow": _power,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "atan": np.arctan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
}


def _bind(table, op, **one):
    """The function of an instruction's op; a Power's op is its exponent."""
    return table[op] if isinstance(op, str) else partial(table["pow"], exp=op, **one)


# Ops whose value can be finite at a non-finite operand (exp(-inf) = 0,
# tanh(inf) = 1, atan(inf) = pi/2, tan at a complex infinity); a divisor or the
# base of a power with exponent <= 0 can hide one too (1/inf = 0, inf^0 = 1).
_HIDING = frozenset(("exp", "tan", "tanh", "atan"))


class Tape:
    """Expressions in the same variables, compiled together once into one
    straight-line program, run over arrays (``__call__``) or at one point
    (``scalar``).

    Each structurally distinct subtree of the set is one instruction, run once
    per evaluation; constants are told apart by their bits, since
    ``Const(0j) == Const(-0j)``.  An array run drops each value after its
    last use, except the roots: they stay until the run writes them out at
    its end.

    Real inputs run in float64, other inputs in complex128; values are
    complex128 either way.  On real inputs an expression with a non-real
    constant runs in complex128 (a set of both kinds runs as two tapes,
    ``_parts``).  An expression keeps its float64 value at a point where
    every one of its own instructions is finite there.  Elsewhere it takes
    the complex run's value and error at that point: the complex program
    runs again on those points only.

    An array run adds into one running sum only the values that can hide a
    non-finite operand: the roots, the operands of exp, tan, tanh and atan,
    divisors and the bases of powers with exponent <= 0.  Every other
    operation is non-finite wherever an operand is, and every value that is
    not a root has a consumer, so the sum is non-finite wherever some value
    is.  It can also overflow where every value is finite, as for
    ``tanh(w*1.5) + w*1.5`` at 1e308.  So its non-finite points are only
    suspects: there the program runs again, and each expression with a
    non-finite value among its own instructions is evaluated by the complex
    run, whose suspects go to the scalar tree walk ``_eval_node``.  A pole,
    branch point or overflow thus still raises ``EvalDomainError`` naming the
    node at fault, and no expression's values or errors depend on the rest of
    the set or of the points.
    """

    def __init__(self, exprs):
        self.exprs = tuple(exprs)
        self.varnames = self.exprs[0].varnames
        if any(e.varnames != self.varnames for e in self.exprs):
            raise ValueError("the expressions of a tape must share their variables")
        nvars = len(self.varnames)
        keys = {("var", name): -1 - k for k, name in enumerate(self.varnames)}
        seen, consts, code = {}, [], []

        def ref(node, *args):
            """Where a node's value is, from where its children's are: leaf -1,
            -2, ... (the variables first) or instruction 0, 1, ..."""
            if isinstance(node, Var):
                key = ("var", node.name)
            elif isinstance(node, Const):
                key = ("const", np.complex128(node.value).tobytes())
            elif isinstance(node, (Unary, Binary)):
                key = (node.op, *args)
            else:  # a Power, (exponent, base): an int where the others have a name
                key = (node.exponent, *args)
            got = keys.get(key)
            if got is None:
                if isinstance(node, Var):
                    raise ValueError(f"{node.name!r} is not one of the variables {self.varnames}")
                if isinstance(node, Const):
                    consts.append(node.value)
                    got = -nvars - len(consts)
                else:
                    code.append(key)
                    got = len(code) - 1
                keys[key] = got
            return got

        refs = [_bottom_up(e.root, ref, seen) for e in self.exprs]
        nleaves = nvars + len(consts)
        roots = set(refs)  # kept until the run writes them out
        last = {}  # other instruction -> the instruction after which its value is dropped
        for j, (_, *args) in enumerate(code):
            last.update((a, j) for a in args if a >= 0 and a not in roots)
        drops = [[] for _ in code]

        def at(r):  # the index of a value in a run's list: the leaves, then the instructions
            return -1 - r if r < 0 else nleaves + r

        for a, j in last.items():
            drops[j].append(at(a))
        guarded = set(refs)  # the values an array run adds into its running sum
        for op, *args in code:
            if op in _HIDING or (isinstance(op, int) and op <= 0):
                guarded.add(args[0])
            elif op == "div":
                guarded.add(args[1])
        self._ops = [(op, *map(at, args), *(None,) * (2 - len(args)), tuple(drops[j]), j in guarded)
                     for j, (op, *args) in enumerate(code)]
        self._values = consts  # the Const values themselves, for the scalar run
        self._consts = [np.complex128(c) for c in consts]
        self._roots = [at(r) for r in refs]
        self._pick_roots = operator.itemgetter(*self._roots)
        self._code = [(_bind(_NUMPY_FN, op), *rest) for op, *rest in self._ops]
        self._real_code = None  # a float64 run needs real constants
        if all(c.imag == 0 for c in consts):
            self._real_code = [(_bind(_NUMPY_FN, op, one=1.0), *rest) for op, *rest in self._ops]
            self._real_consts = [np.float64(c.real) for c in consts]

    def __len__(self):
        return len(self.exprs)

    @cached_property
    def _scalar_code(self):
        """The scalar run's program, (fn, a, b) per instruction, built on first use."""
        return [(_bind(_SCALAR_FN, op), a, b) for op, a, b, _, _ in self._ops]

    @cached_property
    def _parts(self):
        """For real inputs to a set with a non-real constant: (indices, tape) of
        the expressions whose constants are all real, whose tape runs in
        float64, then of the others; None where every expression has a
        non-real constant."""
        real = [_bottom_up(e.root, lambda node, *kids: all(kids) and not (
                    isinstance(node, Const) and node.value.imag)) for e in self.exprs]
        if not any(real):
            return None
        return [([i for i, r in enumerate(real) if r is keep],
                 Tape(e for e, r in zip(self.exprs, real) if r is keep)) for keep in (True, False)]

    def scalar(self, *values):
        """The program at one point on Python complex numbers: ``complex``
        converts each value first, then each instruction runs the operation of
        ``_eval_node`` on the same numbers.  Gives the value of the one
        expression (a tuple for several), or None where an operation raises or
        the running sum of the instruction values is not finite, so that only
        the tree walk raises."""
        if len(values) != len(self.varnames):
            raise TypeError(f"expected {len(self.varnames)} values, got {len(values)}")
        s = [*map(complex, values), *self._values]
        total = 0
        try:
            for fn, a, b in self._scalar_code:
                v = fn(s[a]) if b is None else fn(s[a], s[b])
                total += v
                s.append(v)
        except (ValueError, OverflowError, ZeroDivisionError):
            return None
        return self._pick_roots(s) if cmath.isfinite(total) else None

    def __call__(self, *arrays):
        """Evaluate every expression at every point of ``arrays``, one per
        variable in ``varnames`` order (else ``TypeError``, as in ``scalar``),
        broadcast against each other.

        The leaves are not broadcast: each instruction runs at the broadcast
        shape of its own operands, so on lattice axes ((n, 1) against (1, m))
        work on one variable runs once per grid line.  Returns ``(values,
        errors)``: complex128 values of shape ``(len(self), *shape)`` for the
        broadcast shape, and per expression a dict from the flat index (in
        that shape) of each point where its scalar tree walk raises to that
        ``EvalDomainError`` (its value is nan there).
        """
        if len(arrays) != len(self.varnames):
            raise TypeError(f"expected {len(self.varnames)} values, got {len(arrays)}")
        arrays = [np.asarray(a) for a in arrays]
        real = all(a.dtype.kind in "biuf" for a in arrays)
        if real and self._real_code is None and self._parts:
            return self._joined(arrays)
        if real and self._real_code is not None:
            dtype, code, s = float, self._real_code, self._real_consts
        else:
            dtype, code, s = complex, self._code, self._consts
        arrays = [a if a.dtype == dtype else a.astype(dtype) for a in arrays]
        shape = arrays[0].shape if len(arrays) == 1 else np.broadcast_shapes(*map(np.shape, arrays))
        values = np.empty((len(self.exprs), *shape), dtype=complex)
        total = np.zeros(shape, dtype=dtype)
        s = [*arrays, *s]
        add = np.add
        with np.errstate(all="ignore"):
            for fn, a, b, drop, guard in code:
                v = fn(s[a]) if b is None else fn(s[a], s[b])
                if guard:
                    add(total, v, total)
                s.append(v)
                for k in drop:
                    s[k] = None
            for i, k in enumerate(self._roots):
                values[i] = s[k]
            finite = cmath.isfinite(total.sum())  # one reduction, no mask, in most calls
        errors = [{} for _ in self.exprs]
        if not finite:
            suspects = np.flatnonzero(~np.isfinite(total))
            if suspects.size:
                self._walk_suspects(arrays, suspects, values, errors)
        return values, errors

    def _joined(self, arrays):
        """Each part's run (``_parts``), in the order of the set."""
        values, errors = None, [None] * len(self.exprs)
        for where, tape in self._parts:
            part_values, part_errors = tape(*arrays)
            if values is None:
                values = np.empty((len(self.exprs), *part_values.shape[1:]), dtype=complex)
            values[where] = part_values
            for i, e in zip(where, part_errors):
                errors[i] = e
        return values, errors

    def _walk_suspects(self, arrays, suspects, values, errors):
        """Run the program again at the suspect flat indices, and give each
        expression with a non-finite value among its own instructions there the
        complex run's value and error: a float64 run takes them from a complex
        run at the suspects, a complex run from the tree walk ``_eval_node``."""
        real = arrays[0].dtype.kind == "f"
        flat = [np.ravel(a) for a in np.broadcast_arrays(*arrays)]
        points = [f[suspects] for f in flat]
        s = [*points, *(self._real_consts if real else self._consts)]
        bad = [False] * len(s)  # per value: is it or an instruction below it not finite
        with np.errstate(all="ignore"):
            for fn, a, b, _, _ in self._real_code if real else self._code:
                v = fn(s[a]) if b is None else fn(s[a], s[b])
                s.append(v)
                bad.append(~np.isfinite(v) | bad[a] | (b is not None and bad[b]))
        hits = [np.broadcast_to(bad[root], suspects.shape) for root in self._roots]
        if real and any(hit.any() for hit in hits):
            complex_values, complex_errors = self(*(p.astype(complex) for p in points))
        flat_values = values.reshape(len(self.exprs), -1)
        for i, (e, hit) in enumerate(zip(self.exprs, hits)):
            if real and hit.any():
                flat_values[i, suspects[hit]] = complex_values[i, hit]
                errors[i] = {int(suspects[j]): exc for j, exc in complex_errors[i].items() if hit[j]}
            elif not real:
                for k in suspects[hit].tolist():
                    env = {name: complex(f[k]) for name, f in zip(self.varnames, flat)}
                    try:
                        flat_values[i, k] = _eval_node(e.root, env)
                    except EvalDomainError as exc:
                        flat_values[i, k] = complex("nan")
                        errors[i][k] = exc


# ---------------------------------------------------------------------------
# differentiation (exact within the grammar, constant folding only)
# ---------------------------------------------------------------------------

def _d_step(name: str, node: Node, *ds) -> Node:
    """The derivative of ``node`` from the derivatives ``ds`` of its children."""
    if isinstance(node, Const):
        return Const(0j)
    if isinstance(node, Var):
        return Const(1 + 0j) if node.name == name else Const(0j)
    if isinstance(node, Unary):
        u, (du,) = node.arg, ds
        op = node.op
        if op == "neg":
            return Unary("neg", du)
        if op == "exp":
            return Binary("mul", Unary("exp", u), du)
        if op == "log":
            return Binary("div", du, u)
        if op == "sqrt":
            return Binary("div", du, Binary("mul", Const(2 + 0j), Unary("sqrt", u)))
        if op == "sin":
            return Binary("mul", Unary("cos", u), du)
        if op == "cos":
            return Unary("neg", Binary("mul", Unary("sin", u), du))
        if op == "tan":
            sec2 = Binary("add", Const(1 + 0j), Power(Unary("tan", u), 2))
            return Binary("mul", sec2, du)
        if op == "atan":
            return Binary("div", du, Binary("add", Const(1 + 0j), Power(u, 2)))
        if op == "sinh":
            return Binary("mul", Unary("cosh", u), du)
        if op == "cosh":
            return Binary("mul", Unary("sinh", u), du)
        if op == "tanh":
            sech2 = Binary("sub", Const(1 + 0j), Power(Unary("tanh", u), 2))
            return Binary("mul", sech2, du)
        raise ValueError(f"unknown unary op {op!r}")
    if isinstance(node, Binary):
        a, b = node.left, node.right
        da, db = ds
        if node.op == "add":
            return Binary("add", da, db)
        if node.op == "sub":
            return Binary("sub", da, db)
        if node.op == "mul":
            return Binary("add", Binary("mul", da, b), Binary("mul", a, db))
        num = Binary("sub", Binary("mul", da, b), Binary("mul", a, db))
        return Binary("div", num, Power(b, 2))
    if isinstance(node, Power):
        k = node.exponent
        if k == 0:
            return Const(0j)
        (dbase,) = ds
        if k == 1:
            return dbase
        scaled = Binary("mul", Const(complex(k)), Power(node.base, k - 1))
        return Binary("mul", scaled, dbase)


def _d(node: Node, name: str) -> Node:
    return _bottom_up(node, partial(_d_step, name))


def _folded(node: Node) -> Node:
    """A node of constants as its value, or as it is where evaluating it raises."""
    try:
        return Const(_eval_node(node, {}))
    except EvalDomainError:
        return node


def _fold_step(node: Node, *args) -> Node:
    """``node`` over its folded children ``args``, folded."""
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Unary):
        (arg,) = args
        out = Unary(node.op, arg)
        return _folded(out) if isinstance(arg, Const) else out
    if isinstance(node, Binary):
        left, right = args
        out = Binary(node.op, left, right)
        if isinstance(left, Const) and isinstance(right, Const):
            return _folded(out)
        if node.op == "add":
            if isinstance(left, Const) and left.value == 0:
                return right
            if isinstance(right, Const) and right.value == 0:
                return left
        elif node.op == "sub":
            if isinstance(right, Const) and right.value == 0:
                return left
        elif node.op == "mul":
            if isinstance(left, Const) and left.value == 1:
                return right
            if isinstance(right, Const) and right.value == 1:
                return left
        elif node.op == "div":
            if isinstance(right, Const) and right.value == 1:
                return left
        return out
    if isinstance(node, Power):
        (base,) = args
        if node.exponent == 1:
            return base
        if node.exponent == 0 and isinstance(base, (Const, Var)):
            return Const(1 + 0j)
        out = Power(base, node.exponent)
        return _folded(out) if isinstance(base, Const) else out


def _fold(node: Node) -> Node:
    """Constant folding plus identity-element elision; never drops singularities."""
    return _bottom_up(node, _fold_step)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _format_const(c: complex) -> str:
    re_, im = c.real, c.imag
    if im == 0:
        return repr(re_)
    if re_ == 0:
        return f"({im!r}*i)"
    sign = "+" if im > 0 else "-"
    return f"({re_!r} {sign} {abs(im)!r}*i)"


_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _source_step(limit, node: Node, *texts) -> str:
    texts = ["..." if len(t) > limit else t for t in texts]
    if isinstance(node, Const):
        return _format_const(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return f"(-{texts[0]})" if node.op == "neg" else f"{node.op}({texts[0]})"
    if isinstance(node, Binary):
        return f"({texts[0]} {_BINARY_SYMBOL[node.op]} {texts[1]})"
    if isinstance(node, Power):
        return f"({texts[0]}^{node.exponent})"


def _to_source_node(node: Node, limit=cmath.inf) -> str:
    """The text of ``node``, where a subexpression longer than ``limit``
    characters reads ``...``."""
    return _bottom_up(node, partial(_source_step, limit))


# ---------------------------------------------------------------------------
# public wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class AnalyticExpr(_Printed):
    """A parsed expression in the free variables ``varnames``: one for the
    holomorphic data of the representations, ``("x", "y")`` for a graph
    z = Z(x, y)."""

    root: Node
    varnames: tuple

    @cached_property
    def _tape(self):
        return Tape((self,))

    def eval(self, *values) -> complex:
        """The value at one point, one value per variable: the tape's scalar
        run, or the tree walk (which raises ``EvalDomainError``) where that
        gives None."""
        out = self._tape.scalar(*values)
        if out is None:
            return _eval_node(self.root, dict(zip(self.varnames, map(complex, values))))
        return out

    def eval_array(self, *arrays):
        """Evaluate at every point of ``arrays`` (any shapes that broadcast, one
        per variable) with principal branches.

        Returns ``(values, errors)``: a complex128 array of the broadcast shape,
        and a dict from the flat index of each point where the scalar evaluator
        raises to its ``EvalDomainError`` (``values`` holds nan there).  Real
        arrays run in float64 where every operation is finite, and in complex
        arithmetic elsewhere (``Tape``).
        """
        values, errors = self._tape(*arrays)
        return values[0], errors[0]

    def derivative(self, name: str | None = None) -> "AnalyticExpr":
        """The derivative in the variable ``name``, the others held constant;
        ``name`` may be left out in one variable."""
        if name is None and len(self.varnames) == 1:
            name = self.varnames[0]
        if name not in self.varnames:
            raise ValueError(f"derivative needs one of the variables {self.varnames}, got {name!r}")
        return type(self)(_fold(_d(self.root, name)), self.varnames)

    def source(self) -> str:
        """Round-trippable text: ``parse(e.source())`` evaluates identically."""
        return _to_source_node(self.root)

    def __str__(self) -> str:
        return self.source()


class TwoVarExpr(AnalyticExpr):
    # Exists only so that perfbench/tracing.py can wrap vars(TwoVarExpr)["eval"]
    # as expr.eval_xy, counted apart from the one-variable expr.eval.
    eval = AnalyticExpr.eval


def parse(src: str, varname: str = "w") -> AnalyticExpr:
    """Parse ``src`` into an AST over the single free variable ``varname``."""
    return AnalyticExpr(_Parser(src, (varname,)).parse(), (varname,))


def parse_xy(src: str) -> TwoVarExpr:
    """Parse a two-variable graph expression in ``x`` and ``y``."""
    return TwoVarExpr(_Parser(src, ("x", "y")).parse(), ("x", "y"))
