"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the speed of one core moves by up to half over tens of
seconds, and it moves a pass of any workload by the same factor.  The runner
times this kernel right after every operation and rescales the operation's
time by ``NOMINAL_S / measured``: the seconds the pass would have taken had
the kernel run at its nominal speed.  The kernel imports nothing from
zmcsurf, so a change to the program moves the rescaled time by the same share
as the raw one.

The kernel mixes what the workloads spend their time on: a walk over a small
expression tree of Python objects at many points, small numpy array
operations, and text formatting.  Change it and the rescaled numbers of
earlier runs are no longer comparable.
"""

import io
import math
from time import perf_counter

import numpy as np

# Seconds one ``run()`` takes when the reference machine (a shared 2-CPU x86_64
# host, Python 3.11, numpy 2.4) is quiet.  A constant, so that rescaled times
# stay in seconds and comparable across runs; only ratios depend on it.
NOMINAL_S = 0.003


class _Var:
    def eval(self, x):
        return x


class _Const:
    def __init__(self, c):
        self.c = c

    def eval(self, x):
        return self.c


class _Add:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, x):
        return self.a.eval(x) + self.b.eval(x)


class _Mul:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, x):
        return self.a.eval(x) * self.b.eval(x)


class _Call:
    def __init__(self, fn, a):
        self.fn, self.a = fn, a

    def eval(self, x):
        return self.fn(self.a.eval(x))


_X = _Var()
# 0.5 sin(x) + exp(-0.3 x) (x + 1.25)
_TREE = _Add(_Mul(_Const(0.5), _Call(math.sin, _X)),
             _Mul(_Call(math.exp, _Mul(_Const(-0.3), _X)), _Add(_X, _Const(1.25))))
_GRID = np.linspace(0.0, 1.0, 256)


def run():
    """One unit of reference work; returns a value so nothing is optimised away."""
    total = 0.0
    for i in range(600):
        total += _TREE.eval(i * 1e-3)
    for i in range(120):
        total += float(np.sin(_GRID * (1.0 + i * 1e-3)).sum())
    buf = io.StringIO()
    for i in range(500):
        buf.write(f"v {i * 0.1:.17g} {i * 0.2:.17g} {total * 1e-9:.17g}\n")
    return total + len(buf.getvalue())


def seconds(units=1):
    """Wall seconds that ``units`` back-to-back runs of the kernel take now."""
    start = perf_counter()
    for _ in range(units):
        run()
    return perf_counter() - start
