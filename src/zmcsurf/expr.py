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

Whole arrays are evaluated by a ``Tape``: a set of expressions in the same
variables, compiled once into one straight-line numpy program over
``complex128`` arrays that runs each distinct subtree of the set once.
``eval_array`` is the tape of one expression.  Points where one of an
expression's own values is non-finite are evaluated again by the scalar tree
walk ``_eval_node``, so a pole, branch point or overflow still raises
``EvalDomainError`` naming the node at fault.  Scalar ``eval`` runs the same
program written out once, on its first call, as a straight-line ``cmath``
function (``Tape.kernel``); where that gives None it runs the tree walk, so
values and errors are the walk's, and the walk is the test oracle for both.

There is no simplifier beyond constant folding (applied to derivatives):
callers compare values, not tree shapes.
"""

from __future__ import annotations

import cmath
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
        super().__init__(f"{reason} in {_to_source_node(subexpr)} at {value!r}")
        self.reason = reason
        self.subexpr = subexpr
        self.value = value


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" or a FUNCTIONS member
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # "add" | "sub" | "mul" | "div"
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int


Node = Union[Const, Var, Unary, Binary, Power]


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
            return Unary("neg", self.unary())
        if kind == "op" and text == "+":
            self.advance()
            return self.unary()
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
            k = self.exponent()
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
                arg = self.expression()
                self.expect_op(")")
                return Unary(text, arg)
            raise UnknownIdentifier(text, offset)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a value", offset)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_CMATH_FN: dict[str, Callable[[complex], complex]] = {
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


def _eval_node(node: Node, env: dict) -> complex:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        v = _eval_node(node.arg, env)
        if node.op == "neg":
            return -v
        if node.op == "log" and v == 0:
            raise EvalDomainError("log of zero", node, v)
        try:
            out = _CMATH_FN[node.op](v)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise EvalDomainError(str(exc) or "domain error", node, v) from None
        return _check_finite(out, node, v)
    if isinstance(node, Binary):
        a = _eval_node(node.left, env)
        b = _eval_node(node.right, env)
        if node.op == "add":
            out = a + b
        elif node.op == "sub":
            out = a - b
        elif node.op == "mul":
            out = a * b
        else:
            if b == 0:
                raise EvalDomainError("division by zero", node, b)
            out = a / b
        return _check_finite(out, node, (a, b))
    if isinstance(node, Power):
        base = _eval_node(node.base, env)
        if base == 0 and node.exponent < 0:
            raise EvalDomainError("zero to a negative power", node, base)
        try:
            out = base ** node.exponent
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalDomainError(str(exc) or "power overflow", node, base) from None
        return _check_finite(out, node, base)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# array evaluation: one tape per set of expressions
# ---------------------------------------------------------------------------

_NUMPY_FN: dict[str, Callable] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "neg": np.negative,
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


def _power(base, k: int):
    """base**k by the square-and-multiply order of CPython's complex power."""
    n = abs(k)
    out = 1 + 0j
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return 1 / out if k < 0 else out


class Tape:
    """Expressions in the same variables, compiled together once into one
    straight-line program over complex128 arrays.

    Each structurally distinct subtree of the set is one instruction, run once
    per evaluation; constants are told apart by their bits, since
    ``Const(0j) == Const(-0j)``.  Each value is dropped after its last use.

    Every instruction's value is added into one running sum.  IEEE sums keep
    inf and nan, so the sum is non-finite wherever some value is; it can also
    overflow where every value is finite, as for ``(w*1.5) - (w*1.4)`` at
    1e308.  So its non-finite points are only suspects: there the program
    runs again, and each expression with a non-finite value among its own
    instructions is evaluated by the scalar tree walk ``_eval_node``.  A pole, branch point or
    overflow thus still raises ``EvalDomainError`` naming the node at fault,
    and no expression's values or errors depend on the rest of the set.
    """

    def __init__(self, exprs):
        self.exprs = tuple(exprs)
        self.varnames = self.exprs[0].varnames
        if any(e.varnames != self.varnames for e in self.exprs):
            raise ValueError("the expressions of a tape must share their variables")
        nvars = len(self.varnames)
        keys = {("var", name): -1 - k for k, name in enumerate(self.varnames)}
        seen, consts, code = {}, [], []

        def ref(node):
            """Where a node's value is: leaf -1, -2, ... (the variables first) or
            instruction 0, 1, ..."""
            got = seen.get(id(node))
            if got is not None:
                return got
            if isinstance(node, Var):
                key = ("var", node.name)
            elif isinstance(node, Const):
                key = ("const", np.complex128(node.value).tobytes())
            elif isinstance(node, Unary):
                key = (node.op, ref(node.arg))
            elif isinstance(node, Binary):
                key = (node.op, ref(node.left), ref(node.right))
            elif isinstance(node, Power):  # (exponent, base): an int where the others have a name
                key = (node.exponent, ref(node.base))
            else:
                raise TypeError(f"not an expression node: {node!r}")
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
            seen[id(node)] = got
            return got

        refs = [ref(e.root) for e in self.exprs]
        nleaves = nvars + len(consts)
        last = {}  # instruction -> the instruction after which its value is dropped
        for j, (_, *args) in enumerate(code):
            last.update((a, j) for a in args if a >= 0)
        rows, drops = [[] for _ in code], [[] for _ in code]
        for i, r in enumerate(refs):
            if r >= 0:  # a root is written out by its own instruction
                rows[r].append(i)
                last.setdefault(r, r)
        for a, j in last.items():
            drops[j].append(nleaves + a)
        self._values = consts  # the Const values themselves, for the scalar kernel
        self._consts = [np.complex128(c) for c in consts]
        self._refs = refs
        self._ops = code
        self._leaf_roots = [(i, -1 - r) for i, r in enumerate(refs) if r < 0]
        self._code = [(_NUMPY_FN[op] if isinstance(op, str) else partial(_power, k=op),
                       *(-1 - a if a < 0 else nleaves + a for a in args),
                       *(None,) * (2 - len(args)), tuple(rows[j]), tuple(drops[j]))
                      for j, (op, *args) in enumerate(code)]

    def __len__(self):
        return len(self.exprs)

    def kernel(self):
        """The program as one straight-line Python function over ``cmath``, for
        one point: ``kernel(*values)`` converts each value with ``complex`` before
        any operation, then gives the expression's value (a tuple for several),
        with the operations of ``_eval_node`` on the same numbers, or None where
        an operation raises or the running sum of the instruction values is not
        finite, so that only the tree walk raises.  The source names its
        arguments and bound values by position alone."""
        bound = {"isfinite": cmath.isfinite, "complex": complex}

        def bind(value):
            bound[f"c{len(bound)}"] = value
            return f"c{len(bound) - 1}"

        params = [f"a{k}" for k in range(len(self.varnames))]
        leaves = params + [bind(c) for c in self._values]

        def at(r):
            return leaves[-1 - r] if r < 0 else f"t{r}"

        lines = []
        for j, (op, *args) in enumerate(self._ops):
            a = at(args[0])
            if op == "neg":
                rhs = f"-{a}"
            elif op in _BINARY_SYMBOL:
                rhs = f"{a} {_BINARY_SYMBOL[op]} {at(args[1])}"
            elif op in _CMATH_FN:
                rhs = f"{bind(_CMATH_FN[op])}({a})"
            else:
                rhs = f"{a} ** {bind(op)}"
            lines.append(f"        t{j} = {rhs}\n        s += t{j}\n")
        convert = "".join(f"    {a} = complex({a})\n" for a in params)
        src = (f"def kernel({', '.join(params)}):\n{convert}    s = 0\n    try:\n{''.join(lines)}"
               "        if isfinite(s):\n"
               f"            return {', '.join(map(at, self._refs))}\n"
               "    except (ValueError, OverflowError, ZeroDivisionError):\n"
               "        return None\n")
        exec(compile(src, "<expr kernel>", "exec"), bound)
        return bound["kernel"]

    def __call__(self, *arrays):
        """Evaluate every expression at every point of ``arrays``, one per
        variable in ``varnames`` order, broadcast against each other.

        The leaves are not broadcast: each instruction runs at the broadcast
        shape of its own operands, so on lattice axes ((n, 1) against (1, m))
        work on one variable runs once per grid line.  Returns ``(values,
        errors)``: complex128 values of shape ``(len(self), *shape)`` for the
        broadcast shape, and per expression a dict from the flat index (in
        that shape) of each point where its scalar tree walk raises to that
        ``EvalDomainError`` (its value is nan there).
        """
        arrays = [np.asarray(a, dtype=complex) for a in arrays]
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        values = np.empty((len(self.exprs), *shape), dtype=complex)
        total = np.zeros(shape, dtype=complex)
        s = [*arrays, *self._consts]
        add = np.add
        with np.errstate(all="ignore"):
            for i, k in self._leaf_roots:
                values[i] = s[k]
            for fn, a, b, rows, drop in self._code:
                v = fn(s[a]) if b is None else fn(s[a], s[b])
                add(total, v, total)
                s.append(v)
                for i in rows:
                    values[i] = v
                for k in drop:
                    s[k] = None
            finite = cmath.isfinite(total.sum())  # one reduction, no mask, in most calls
        errors = [{} for _ in self.exprs]
        if not finite:
            suspects = np.flatnonzero(~np.isfinite(total))
            if suspects.size:
                self._walk_suspects(arrays, suspects, values, errors)
        return values, errors

    def _walk_suspects(self, arrays, suspects, values, errors):
        """Run the program again at the suspect flat indices, and evaluate each
        expression by ``_eval_node`` where one of its instructions is not finite."""
        flat = [np.ravel(a) for a in np.broadcast_arrays(*arrays)]
        s = [*(f[suspects] for f in flat), *self._consts]
        nonfinite = []
        with np.errstate(all="ignore"):
            for fn, a, b, _, _ in self._code:
                v = fn(s[a]) if b is None else fn(s[a], s[b])
                s.append(v)
                nonfinite.append(np.broadcast_to(~np.isfinite(v), suspects.shape))
        flat_values = values.reshape(len(self.exprs), -1)
        for i, (e, r) in enumerate(zip(self.exprs, self._refs)):
            own, todo = set(), [r] if r >= 0 else []
            while todo:  # the instructions of expression i
                j = todo.pop()
                if j not in own:
                    own.add(j)
                    todo.extend(a for a in self._ops[j][1:] if a >= 0)
            if not own:
                continue
            hit = np.logical_or.reduce([nonfinite[j] for j in own])
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

def _d(node: Node, name: str) -> Node:
    if isinstance(node, Const):
        return Const(0j)
    if isinstance(node, Var):
        return Const(1 + 0j) if node.name == name else Const(0j)
    if isinstance(node, Unary):
        u, du = node.arg, _d(node.arg, name)
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
        da, db = _d(a, name), _d(b, name)
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
        dbase = _d(node.base, name)
        if k == 1:
            return dbase
        scaled = Binary("mul", Const(complex(k)), Power(node.base, k - 1))
        return Binary("mul", scaled, dbase)
    raise TypeError(f"not an expression node: {node!r}")


def _fold(node: Node) -> Node:
    """Constant folding plus identity-element elision; never drops singularities."""
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Unary):
        arg = _fold(node.arg)
        out = Unary(node.op, arg)
        if isinstance(arg, Const):
            try:
                return Const(_eval_node(out, {}))
            except EvalDomainError:
                return out
        return out
    if isinstance(node, Binary):
        left = _fold(node.left)
        right = _fold(node.right)
        out = Binary(node.op, left, right)
        if isinstance(left, Const) and isinstance(right, Const):
            try:
                return Const(_eval_node(out, {}))
            except EvalDomainError:
                return out
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
        base = _fold(node.base)
        if node.exponent == 1:
            return base
        if node.exponent == 0 and isinstance(base, (Const, Var)):
            return Const(1 + 0j)
        if isinstance(base, Const):
            try:
                return Const(_eval_node(Power(base, node.exponent), {}))
            except EvalDomainError:
                pass
        return Power(base, node.exponent)
    raise TypeError(f"not an expression node: {node!r}")


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


def _to_source_node(node: Node) -> str:
    if isinstance(node, Const):
        return _format_const(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        inner = _to_source_node(node.arg)
        if node.op == "neg":
            return f"(-{inner})"
        return f"{node.op}({inner})"
    if isinstance(node, Binary):
        return f"({_to_source_node(node.left)} {_BINARY_SYMBOL[node.op]} {_to_source_node(node.right)})"
    if isinstance(node, Power):
        return f"({_to_source_node(node.base)}^{node.exponent})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# public wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticExpr:
    """A parsed expression in the free variables ``varnames``: one for the
    holomorphic data of the representations, ``("x", "y")`` for a graph
    z = Z(x, y)."""

    root: Node
    varnames: tuple

    @cached_property
    def _tape(self):
        return Tape((self,))

    @cached_property
    def _kernel(self):
        return self._tape.kernel()

    def eval(self, *values) -> complex:
        """The value at one point, one value per variable: the compiled kernel,
        or the tree walk (which raises ``EvalDomainError``) where the kernel
        gives None."""
        out = self._kernel(*values)
        if out is None:
            return _eval_node(self.root, dict(zip(self.varnames, map(complex, values))))
        return out

    def eval_array(self, *arrays):
        """Evaluate at every point of ``arrays`` (any shapes that broadcast, one
        per variable) with principal branches.

        Returns ``(values, errors)``: a complex128 array of the broadcast shape,
        and a dict from the flat index of each point where the scalar evaluator
        raises to its ``EvalDomainError`` (``values`` holds nan there).
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
