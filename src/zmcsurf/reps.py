"""Integral representations of ZMC surfaces and their decompositions.

Four representations are implemented:

* minimal graphs from holomorphic data (f, g), integrands
  ((1-g^2)f, i(1+g^2)f, 2gf), real parts of straight-path integrals;
* maximal graphs with integrands ((1+g^2)f, i(1-g^2)f, -2gf);
* the reduced single-function form (mode ``reduced-R``), where f plays the
  role of the non-vanishing density R and g is pinned to the identity map;
* timelike-minimal and Born-Infeld translation surfaces built from two
  one-variable data sets integrated independently.

The timelike representation is assembled so that both generating curves are
null for the metric diag(1, 1, -1): with projected Gauss map (q, r) and
densities f(u), g(v),

    x(u, v) = -I_u[q f]          + I_v[r g]
    y(u, v) = -(I_u[(1-q^2) f] + I_v[(1-r^2) g]) / 2
    z(u, v) =  (I_u[(1+q^2) f] - I_v[(1+r^2) g]) / 2

which makes the surface zero-mean-curvature by construction (translation
surface of null curves).  All samplers expose exact derivative jets
``jet(u, v) -> (X_u, X_v, X_uu, X_uv, X_vv)``: the derivative of a path
integral is its integrand, so a jet does no quadrature and is defined even
where the straight path to the point is singular.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import NoConvergence, SingularPath
from .expr import AnalyticExpr, Binary, Const, Power, Tape, Unary, Var, parse
from .report import BroadcastRows, VerificationReport
from .zmc import array_jet, point_from

__all__ = [
    "SingularPath",
    "NoConvergence",
    "ZeroWeight",
    "WeightSumError",
    "NewtonDiverged",
    "JacobianSingular",
    "WEData",
    "TLMSData",
    "BCData",
    "we_point",
    "split_weierstrass",
    "split_weierstrass_expressions",
    "verify_split",
    "invert_parametrization",
    "tlms_point",
    "bc_point",
    "WESampler",
    "TLMSSampler",
    "BCSampler",
    "InvertedGraphSampler",
    "integrate_segment",
    "integrate_segments",
]

WE_MODES = ("minimal", "maximal", "reduced-R")


class ZeroWeight(ValueError):
    """Splitting weights must be nonzero (scalar multiples of R must not vanish)."""


class WeightSumError(ValueError):
    """Splitting weights must sum to one."""


class NewtonDiverged(ArithmeticError):
    """Newton inversion hit the iteration cap or could not reduce the residual."""


class JacobianSingular(ArithmeticError):
    """The (x, y)-Jacobian is numerically singular: the surface is not a graph here."""


# ---------------------------------------------------------------------------
# composite Gauss-Legendre quadrature along straight segments
# ---------------------------------------------------------------------------

# Upper bound on nodes per vectorized evaluation; active endpoints are
# processed in chunks that stay under it (one endpoint may exceed it).  Small
# enough that a chunk's complex128 temporaries stay in a 2 MiB L2 cache.
_MAX_NODES = 1 << 13
_SHEET_MU = 0.5  # InvertedGraphSampler's bound on |full Newton step - edge| / |edge|
_TOL = 1e-10  # two successive levels of a segment agree within it
_MAX_SEGMENTS = 1024  # an endpoint that needs more sub-segments is NoConvergence
# Two levels of one integrand also agree where they differ by less than this
# multiple of the level's magnitude: the rounding floor of a large integral,
# which the absolute tolerance cannot reach (it exceeds _TOL above ~440).
_ROUNDING_FLOOR = 1024 * np.finfo(float).eps


# The 16-point Gauss-Legendre rule on [-1, 1]: the positive nodes and their
# weights, with the bits of numpy's ``leggauss(16)``.  That rule is exactly
# symmetric, so mirroring the halves gives its 16 nodes and weights in order.
_GAUSS_HALF = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
_GAUSS_NODES = np.array([-x for x, _ in reversed(_GAUSS_HALF)] + [x for x, _ in _GAUSS_HALF])
_GAUSS_WEIGHTS = np.array([w for _, w in reversed(_GAUSS_HALF)] + [w for _, w in _GAUSS_HALF])


@lru_cache(maxsize=None)
def _level_rule(nseg: int):
    """Nodes t in (0, 1) and weights of the nseg-segment composite rule.

    The 16 * nseg Gauss nodes come first, in the segment-major order of the
    scalar loop, and carry the weights.  The nseg - 1 interior segment
    boundaries k / nseg follow: they are evaluated only to detect a pole that
    the nodes, symmetric about it, would cancel into a principal value.
    """
    half = 0.5 / nseg
    mids = (np.arange(nseg) + 0.5) / nseg
    gauss = (mids[:, None] + half * _GAUSS_NODES[None, :]).reshape(-1)
    t = np.concatenate([gauss, np.arange(1, nseg) / nseg])
    weights = np.tile(_GAUSS_WEIGHTS * half, nseg)
    return t, weights


@lru_cache(maxsize=None)
def _pass_rule(levels: tuple):
    """The nodes of several levels side by side, each level's span (first and
    one past the last column) of Gauss nodes, and every column's weight (0 at
    a boundary probe)."""
    rules = [_level_rule(nseg) for nseg in levels]
    starts = np.cumsum([0] + [t.size for t, _ in rules]).tolist()
    spans = [(start, start + w.size) for start, (_, w) in zip(starts, rules)]
    weights = np.concatenate([np.pad(w, (0, t.size - w.size)) for t, w in rules])
    return np.concatenate([t for t, _ in rules]), spans, weights


def _singular(node, exc):
    """SingularPath for an integrand that fails at ``node``."""
    err = SingularPath(f"integrand singular at node {complex(node)!r}: {exc}")
    err.__cause__ = exc
    err.__suppress_context__ = True
    return err


@np.errstate(over="ignore", invalid="ignore")  # a non-finite length or sum is a SingularPath
def integrate_segments(integrands, z0, z1):
    """Integrate each expression along every straight segment [z0[k], z1[k]].

    ``integrands`` is a ``Tape`` or a sequence of expressions in one variable.
    ``z0`` and ``z1`` broadcast to one flat array of endpoints.  Returns
    ``(values, errors)``: ``values[i, k]`` is the integral of integrand ``i``
    over segment ``k`` and ``errors[k]`` is None or the SingularPath /
    NoConvergence that segment raises (its values are then 0).

    Composite rule: 16-node Gauss-Legendre panels on 1, 2, 4, ... equal
    sub-segments, refined until two successive levels agree in every
    integrand, within ``_TOL`` or within ``_ROUNDING_FLOOR`` times that
    integrand's own level value (NoConvergence past ``_MAX_SEGMENTS``).
    Singularities are detected by sampling: a node or an interior panel
    boundary where an integrand fails to evaluate finitely makes that
    segment's SingularPath (a pole at a boundary would otherwise cancel into
    its principal value).  It names the first failing node: a pass lays its
    levels' nodes side by side, coarsest first, so that is the lowest failing
    column, then the lowest integrand index.  A pole off the path, 1e-13 from its midpoint, is caught
    as NoConvergence (as measured for 1/w; at 8e-14 it cancels into its
    principal value undetected).  A segment with a non-finite end or length is a
    SingularPath before any node is built, and so is one whose level value
    overflows, in that pass.  Each endpoint keeps its own convergence state,
    so a segment stops at the same level, with the same value and error,
    whether it is integrated alone or in a batch.  Each pass evaluates the
    nodes of all still-active segments in one tape call; no segment can stop
    before level 2, so the first pass takes levels 1 and 2 and the probe at
    t = 1/2 together, 16 + 32 + 1 = 49 nodes.

    A chunk weights its nodes in one product and sums each level over its own
    columns.  Per-endpoint work runs only where a summary test fails: the
    non-finite ends' errors where the lengths' sum is not finite, the
    finiteness mask where a node failed or a level's sum is not finite, the
    per-endpoint test and floor where some difference reaches ``_TOL``.
    Otherwise the pass writes its last level in one assignment.
    """
    tape = integrands if isinstance(integrands, Tape) else Tape(integrands)
    z0 = np.asarray(z0, dtype=complex)
    z0 = z0.reshape(() if z0.size == 1 else -1)  # one start stays a scalar
    z1 = np.asarray(z1, dtype=complex).reshape(-1)
    delta = z1 - z0
    values = np.zeros((len(tape), delta.size), dtype=complex)
    errors = [None] * delta.size

    def ends(k):  # segment k's endpoints, for its error message
        return [complex(np.broadcast_to(z, delta.shape)[k]) for z in (z0, z1)]

    if not np.isfinite(delta.sum()):  # some end or length is not finite
        finite = np.isfinite(delta)
        for k in np.flatnonzero(~finite).tolist():
            a, b = ends(k)
            errors[k] = SingularPath(f"segment [{a!r}, {b!r}] has a non-finite "
                                     + ("length" if np.isfinite((a, b)).all() else "endpoint"))
        delta = np.where(finite, delta, 0)  # empty: never active
    active = np.flatnonzero(delta)
    prev = None
    nseg = 1
    while active.size:
        levels = (nseg,) if prev is not None or 2 * nseg > _MAX_SEGMENTS else (nseg, 2 * nseg)
        t, spans, weights = _pass_rule(levels)
        cur = np.empty((len(levels), len(tape), active.size), dtype=complex)
        first = {}  # endpoint row -> (its lowest failing column, integrand, node, error)
        chunk = max(1, _MAX_NODES // t.size)
        for lo in range(0, active.size, chunk):
            pts = active[lo:lo + chunk]
            length = delta[pts]
            w = (z0 if z0.ndim == 0 else z0[pts, None]) + t * length[:, None]
            vals, errs = tape(w)
            vals *= weights
            for level, (start, stop) in enumerate(spans):
                cur[level, :, lo:lo + pts.size] = length * vals[:, :, start:stop].sum(axis=2)
            for idx, errs_i in enumerate(errs):
                for flat, exc in errs_i.items():
                    row, col = divmod(flat, t.size)
                    got = first.get(lo + row)
                    if got is None or (col, idx) < got[:2]:
                        first[lo + row] = col, idx, w[row, col], exc
        # Every endpoint is alive unless a node failed or a level value is not finite.
        clean = not first and np.isfinite(cur.sum())
        alive = np.ones(active.size, dtype=bool) if clean else np.isfinite(cur).all(axis=(0, 1))
        if not clean:
            for k in active[~alive].tolist():  # a failing node outranks an overflow
                a, b = ends(k)
                errors[k] = SingularPath(f"the integral over [{a!r}, {b!r}] overflows")
            for row, (_, _, node, exc) in first.items():
                errors[active[row]] = _singular(node, exc)
                alive[row] = False
        for level_cur in cur:
            if prev is not None:
                diff = np.abs(level_cur - prev)
                if clean and diff.max() < _TOL:  # every endpoint done at this level
                    values[:, active] = level_cur
                    return values, errors
                done = alive & (diff.max(axis=0) < _TOL)
                if (done != alive).any():  # the floor, only once _TOL fails somewhere
                    floor = np.maximum(_TOL, _ROUNDING_FLOOR * np.abs(level_cur))
                    done = alive & (diff < floor).all(axis=0)
                values[:, active[done]] = level_cur[:, done]
                alive &= ~done
            prev = level_cur
            nseg *= 2
            if nseg > _MAX_SEGMENTS:
                for k in active[alive].tolist():
                    a, b = ends(k)
                    errors[k] = NoConvergence(f"quadrature on [{a!r}, {b!r}] did not "
                                              f"converge within {_MAX_SEGMENTS} segments")
                alive[:] = False
                break
        active, prev = active[alive], prev[:, alive]
    return values, errors


def integrate_segment(integrands, z0: complex, z1: complex):
    """Integrate each expression along the straight segment [z0, z1].

    A one-endpoint ``integrate_segments`` (``integrands`` is a ``Tape`` or a
    sequence of expressions): returns one complex per integrand and raises
    that endpoint's SingularPath or NoConvergence.
    """
    values, errors = integrate_segments(integrands, complex(z0), complex(z1))
    if errors[0] is not None:
        raise errors[0]
    return [complex(v) for v in values[:, 0]]


def _distinct(t):
    """Distinct entries of t by their bits (0.0 and -0.0 apart), and each entry's index."""
    bits, inverse = np.unique(np.asarray(t, dtype=float).view(np.int64), return_inverse=True)
    return bits.view(float), inverse.reshape(-1)


def _sample_grid(sampler, grid):
    """``sample_grid`` from ``points``: row-major (points, valid), failing points zeroed."""
    coords, errors = sampler.points(*grid.lattice())
    valid = np.array([e is None for e in errors], dtype=bool)
    return np.where(valid[:, None], np.column_stack(coords), 0.0), valid


def _with_derivatives(exprs):
    """One tape of the expressions, then their derivatives (for jets)."""
    return Tape(exprs + tuple(e.derivative() for e in exprs))


def _mul(*nodes):
    out = nodes[0]
    for n in nodes[1:]:
        out = Binary("mul", out, n)
    return out


_ONE = Const(1 + 0j)
_TWO = Const(2 + 0j)
_I = Const(1j)


# ---------------------------------------------------------------------------
# Weierstrass-Enneper data (minimal / maximal / reduced)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WEData:
    """Representation data: holomorphic f, meromorphic g (f*g^2 finite on the
    working domain, enforced by sampling), basepoint, offset, and mode."""

    f: AnalyticExpr
    g: AnalyticExpr
    zeta0: complex = 0j
    offset: tuple = (0.0, 0.0, 0.0)
    mode: str = "minimal"

    def __post_init__(self):
        if self.mode not in WE_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {WE_MODES}")
        if self.f.varnames != self.g.varnames:
            raise ValueError("f and g must share one free variable")
        if self.mode == "reduced-R" and self.g.root != Var(*self.f.varnames):
            raise ValueError("reduced-R mode pins g to the identity map")
        if len(self.offset) != 3:
            raise ValueError(f"offset needs 3 coordinates (x, y, z), got {len(self.offset)}")

    @classmethod
    def from_text(cls, f_text: str, g_text: str, zeta0=0j, offset=(0.0, 0.0, 0.0),
                  mode: str = "minimal") -> "WEData":
        return cls(parse(f_text), parse(g_text), complex(zeta0),
                   tuple(float(v) for v in offset), mode)

    @classmethod
    def reduced(cls, r_text: str, zeta0=0j, offset=(0.0, 0.0, 0.0)) -> "WEData":
        return cls.from_text(r_text, "w", zeta0, offset, "reduced-R")

    @cached_property
    def integrands(self):
        f = self.f.root
        g = self.g.root
        g2 = Power(g, 2)
        if self.mode == "maximal":
            phi = (
                _mul(Binary("add", _ONE, g2), f),
                _mul(_I, Binary("sub", _ONE, g2), f),
                Unary("neg", _mul(_TWO, g, f)),
            )
        else:  # minimal and reduced-R share the integrand shape
            phi = (
                _mul(Binary("sub", _ONE, g2), f),
                _mul(_I, Binary("add", _ONE, g2), f),
                _mul(_TWO, g, f),
            )
        return tuple(AnalyticExpr(p, self.f.varnames) for p in phi)

    @cached_property
    def integrand_tape(self):
        return Tape(self.integrands)

    @cached_property
    def jet_tape(self):
        return _with_derivatives(self.integrands)


def _family_coords(offset, ints, ct, st):
    """ct * (x0 + Re I) + st * (x0 + Im I) per coordinate: the associated-family
    member with cos(theta) = ct, sin(theta) = st (scalars or arrays)."""
    return tuple(ct * (x0 + v.real) + st * (x0 + v.imag) for x0, v in zip(offset, ints))


def we_point(data: WEData, zeta: complex):
    """Surface point at zeta: the one-point case of ``WESampler(data).points``."""
    return WESampler(data).point(complex(zeta).real, complex(zeta).imag)


# Radius of the disk around the basepoint on which splits are sampled and checked.
SPLIT_RADIUS = 0.8


def split_weierstrass(data: WEData, weights: Sequence[float]):
    """Split reduced data R into scalar multiples lambda_i * R (offsets zeroed).

    Scalar multiples of a non-vanishing R are automatically non-vanishing;
    with zero offsets the height functions satisfy sum_i z_i = z exactly.
    """
    if data.mode != "reduced-R":
        raise ValueError("splitting is defined for reduced-R data")
    lams = [] if weights is None else [float(v) for v in weights]
    if not lams:
        raise ZeroWeight("need at least one weight")
    if any(v == 0.0 for v in lams):
        raise ZeroWeight(f"weights must be nonzero, got {lams}")
    if not abs(sum(lams) - 1.0) <= 1e-12:  # a NaN or infinite weight makes a non-finite sum
        raise WeightSumError(f"weights must sum to 1, got sum = {sum(lams)!r}")
    out = []
    for lam in lams:
        scaled = AnalyticExpr(Binary("mul", Const(complex(lam)), data.f.root), data.f.varnames)
        out.append(replace(data, f=scaled, offset=(0.0, 0.0, 0.0)))
    return out


def split_weierstrass_expressions(data: WEData, pieces: Sequence):
    """Split reduced data into arbitrary expression pieces R = R_1 + ... + R_n.

    Whether an arbitrary expression vanishes cannot be decided symbolically,
    so both requirements are checked only by sampling a 32 x 32 grid
    (~10^3 points) on the disk of ``SPLIT_RADIUS`` around the basepoint:

    * the pieces must sum to R at every sampled point (WeightSumError);
    * no piece may come close to vanishing: a zero inside the disk drives the
      sampled minimum of |R_i| far below its sampled median, so
      min < 0.08 * median is treated as vanishing (ZeroWeight).  This is a
      heuristic with margin-of-the-disk false positives by design.

    Offsets of the output data are zeroed, as in the scalar-weight split.
    """
    if data.mode != "reduced-R":
        raise ValueError("splitting is defined for reduced-R data")
    exprs = [p if isinstance(p, AnalyticExpr) else parse(p, *data.f.varnames) for p in pieces]
    if not exprs:
        raise ZeroWeight("need at least one piece")

    offsets = -SPLIT_RADIUS + np.arange(32) * (2.0 * SPLIT_RADIUS / 31)
    w = data.zeta0 + (offsets[:, None] + 1j * offsets[None, :]).reshape(-1)
    w = w[np.abs(w - data.zeta0) <= SPLIT_RADIUS]
    (total, *values), errors = Tape([data.f, *exprs])(w)
    keep = np.ones(w.size, dtype=bool)
    keep[list(set().union(*errors))] = False
    piece_sum = sum(values)
    mismatch = np.flatnonzero(keep & (np.abs(piece_sum - total) > 1e-10 * (1.0 + np.abs(total))))
    if mismatch.size:
        k = mismatch[0]
        raise WeightSumError(
            f"pieces do not sum to R at {complex(w[k])!r}: "
            f"{complex(piece_sum[k])!r} != {complex(total[k])!r}")
    for e, vals in zip(exprs, values):
        mags = np.sort(np.abs(vals[keep]))
        if not mags.size:
            raise ZeroWeight(f"piece {e.source()} never evaluated on the sample disk")
        median = mags[mags.size // 2]
        if mags[0] < max(1e-9, 0.08 * median):
            raise ZeroWeight(
                f"piece {e.source()} vanishes (or nearly) on the sample disk: "
                f"min |R_i| = {mags[0]:.3e} vs median {median:.3e}")
    return [replace(data, f=e, offset=(0.0, 0.0, 0.0)) for e in exprs]


def verify_split(data: WEData, weights: Sequence[float] = None, n_samples: int = 50,
                 seed: int = 20240801, tolerance: float = 1e-10,
                 pieces: Sequence = None) -> VerificationReport:
    """Check sum_i z_i = z at random probes within ``SPLIT_RADIUS`` of the basepoint."""
    if pieces is not None:
        split = split_weierstrass_expressions(data, pieces)
        label = {"pieces": [p.f.source() for p in split]}
    else:
        weights = None if weights is None else list(weights)  # an iterator is read once
        split = split_weierstrass(data, weights)
        label = {"weights": weights}
    rng = random.Random(seed)
    zetas = []
    for _ in range(n_samples):
        r = SPLIT_RADIUS * math.sqrt(rng.random())
        phi = 2 * math.pi * rng.random()
        zetas.append(data.zeta0 + r * cmath.exp(1j * phi))
    # One quadrature over the integrand triples of the parent and every piece: a
    # probe stops once all agree within _TOL, so each is refined as far as the
    # slowest.  The first failing probe raises its first failing node (the
    # parent's first), else its NoConvergence or overflow.
    tape = Tape([e for d in (data, *split) for e in d.integrands])
    values, errors = integrate_segments(tape, data.zeta0, zetas)
    failure = next((err for err in errors if err is not None), None)
    if failure is not None:
        raise failure
    z_parent, z_sum = values[2].real, sum(values[5::3].real)  # heights without offsets
    probes = np.array(zetas)
    return VerificationReport.of(
        np.abs(z_parent - z_sum), BroadcastRows(probes.real, probes.imag), z_parent, z_sum,
        subject="we-split",
        parameters={**label, "samples": n_samples, "radius": SPLIT_RADIUS,
                    "seed": seed, "mode": data.mode},
        grid=None, policy="principal", tolerance=tolerance)


def _surface_points(data: WEData, zetas):
    """The (n, 3) surface points at ``zetas`` and their typed errors, in one quadrature."""
    values, errors = integrate_segments(data.integrand_tape, data.zeta0, zetas)
    return np.array(data.offset) + values.real.T, errors


@np.errstate(divide="ignore", invalid="ignore")  # where phi fails or det = 0
def _newton_step(data: WEData, z, res):
    """Full Newton steps from z for residuals res, det J and phi_1's, then phi_2's failures."""
    (p1, p2, _), errs = data.integrand_tape(z)
    det = (p1 * p2.conj()).imag
    return 1j * (res.real * p2.conj() - res.imag * p1.conj()) / det, det, {**errs[1], **errs[0]}


def _invert(data: WEData, x, y, guesses, points, errors, tries: int = 20):
    """Damped Newton for (x(zeta), y(zeta)) = (x, y) from each guess, as arrays:
    per round one ``integrand_tape`` call (the exact Jacobian phi_1, phi_2) and
    one ``integrate_segments`` call over the points still iterating.  Per
    point: ``tries`` step lengths 1, 1/2, ..., at most 50 iterations, update
    tolerance 1e-12, residual tolerance 1e-10.  The surface ``points`` at the
    guesses and their typed ``errors`` give the first residuals.  Returns the
    roots, the surface points there (from the last accepted quadrature) and
    per point None or its typed error, none of which depends on the batch."""
    zetas, target = np.array(guesses, dtype=complex).reshape(-1), np.add(x, 1j * np.asarray(y))
    points, errors = np.array(points, dtype=float), list(errors)
    live = np.flatnonzero(np.equal(errors, None))
    # Per live point: index, iterate, residual, target, step, step lengths tried, iterations.
    state = (live, zetas[live], points[live, 0] + 1j * points[live, 1] - target[live],
             target[live], np.zeros(live.size, dtype=complex), *np.zeros((2, live.size), int))
    while state[0].size:
        idx, z, res, t, step, tried, iters = state
        if not tried.all():  # an iteration starts; a point retrying gets its step again
            step, det, failed = _newton_step(data, z, res)
            for i in np.flatnonzero(np.abs(det) < 1e-14).tolist():
                failed.setdefault(i, JacobianSingular(
                    f"|det| = {abs(det[i]):.3e} at zeta = {complex(z[i])!r} "
                    "(R vanishes or the graph folds)"))
            if failed:
                for i, exc in failed.items():
                    errors[idx[i]] = exc
                idx, z, res, t, step, tried, iters = (
                    np.delete(a, list(failed)) for a in (idx, z, res, t, step, tried, iters))
        lam = 0.5 ** tried
        trial = z + lam * step
        found, terrs = _surface_points(data, trial)
        g = found[:, 0] + 1j * found[:, 1] - t
        gn, quad_ok = np.abs(g), np.equal(terrs, None)
        ok = ((gn < np.abs(res)) | (gn <= 1e-10)) & quad_ok
        done = ok & ((lam * np.abs(step) < 1e-12) | (gn <= 1e-13))
        points[idx[ok]] = found[ok]
        z, res, iters = np.where(ok, trial, z), np.where(ok, g, res), iters + ok
        zetas[idx], tried = z, np.where(ok, 0, tried + 1)
        bad = (done & (gn > 1e-10)) | (~done & (iters >= 50)) | (tried >= tries) | ~quad_ok
        for i in np.flatnonzero(bad).tolist():
            errors[idx[i]] = terrs[i] or NewtonDiverged(
                f"converged update but residual {gn[i]:.3e} > 1e-10" if done[i] else
                "no convergence within 50 iterations" if ok[i] else
                f"residual did not decrease at any of {tries} step lengths")
        keep = ~(done | bad)
        state = tuple(a[keep] for a in (idx, z, res, t, step, tried, iters))
    return zetas, points, errors


def invert_parametrization(data: WEData, x: float, y: float, zeta_guess: complex) -> complex:
    """The zeta with (x(zeta), y(zeta)) = (x, y) by the sampler's Newton from the guess;
    raises NewtonDiverged, JacobianSingular, SingularPath, NoConvergence or EvalDomainError."""
    zetas, _, errors = _invert(data, [x], [y], [zeta_guess], *_surface_points(data, zeta_guess))
    if errors[0] is not None:
        raise errors[0]
    return complex(zetas[0])


class WESampler:
    """Parametric sampler (zeta1, zeta2) -> X^theta with exact jets.

    theta = 0 is the surface itself, theta = pi/2 its conjugate; every member
    of the family is ZMC for the mode's ambient metric.
    """

    def __init__(self, data: WEData, theta: float = 0.0):
        self.data = data
        self.theta = float(theta)
        self._ct = math.cos(self.theta)
        self._st = math.sin(self.theta)

    def points(self, u, v):
        """The points at zeta = u + i v and their errors, in one batched quadrature."""
        zeta = np.array(u, dtype=complex)
        zeta.imag = v  # u + 1j * v would turn a -0.0 of u into 0.0
        ints, errors = integrate_segments(self.data.integrand_tape, self.data.zeta0, zeta)
        return _family_coords(self.data.offset, ints, self._ct, self._st), errors

    point = point_from(points)
    sample_grid = _sample_grid

    @array_jet
    def jet(self, u, v):
        """(X_u, X_v, X_uu, X_uv, X_vv) from the integrands and their derivatives:
        d/du is the integrand, d/dv is i times it (no quadrature), each taken
        to the family member as the integrals are, without the offset."""
        zeta = np.array(u, dtype=complex)
        zeta.imag = v
        values = self.data.jet_tape(zeta)[0]
        phi, dphi = values[:3], values[3:]
        xu, xv, xuu, xuv = (_family_coords((0.0, 0.0, 0.0), d, self._ct, self._st)
                            for d in (phi, [1j * p for p in phi], dphi, [1j * p for p in dphi]))
        return xu, xv, xuu, xuv, tuple(-c for c in xuu)


class InvertedGraphSampler:
    """Height sampling z = Z(x, y) of a representation by Newton inversion.

    ``sample_grid`` keeps the seeding rule (a point's Newton starts from its
    left neighbour's root, else its lower neighbour's, else the seed).  After
    one batched round of full steps from the seed, (0, 0) keeps a converged
    root; another point keeps one if its predecessor did and the full step s
    from that root zeta_p gives |zeta_p + s - zeta_k| <= _SHEET_MU |zeta_k -
    zeta_p| (the sheet test; the ratio is <= 0.071 on the benchmark, ~1 across
    sheets).  The rule inverts the rest by anti-diagonals.  Failed points are
    invalid; ``rejected`` counts the last grid's per error type."""

    def __init__(self, data: WEData, zeta_seed: Optional[complex] = None):
        self.data = data
        self.zeta_seed = complex(zeta_seed if zeta_seed is not None else data.zeta0)
        self.rejected = Counter()

    def sample_grid(self, grid):
        nv, data, seed, (x, y) = grid.nv, self.data, self.zeta_seed, grid.lattice()
        k, (seed_p, seed_err) = np.arange(x.size), _surface_points(data, seed)
        # Root and surface point per lattice point, then the seed's (source index -1).
        zetas, points = np.full(k.size + 1, seed, dtype=complex), np.repeat(seed_p, k.size + 1, 0)
        ok = np.append(np.zeros(k.size, dtype=bool), seed_err[0] is None)

        def invert(cells, src, tries=20):  # Newton at cells from the roots at src
            zetas[cells], points[cells], errors = _invert(
                data, x[cells], y[cells], zetas[src], points[src],
                [seed_err[0] if s < 0 else None for s in src.tolist()], tries)
            ok[cells] = np.equal(errors, None)
            return errors

        invert(k, np.full(k.size, -1), 1)
        cand = np.flatnonzero(ok[1:-1]) + 1  # the converged points but (0, 0)
        pred = np.where(cand % nv > 0, cand - 1, cand - nv)  # left, else lower
        step, det, _ = _newton_step(data, zetas[pred], points[pred, 0] + 1j * points[pred, 1]
                                    - x[cand] - 1j * y[cand])
        edge = zetas[cand] - zetas[pred]
        ok[cand] = (np.abs(det) >= 1e-14) & (np.abs(step - edge) <= _SHEET_MU * np.abs(edge))
        good = np.logical_and.accumulate(ok[:-1].reshape(-1, nv), 1)  # accepted: its whole
        ok[:-1] = (good & np.logical_and.accumulate(good[:, :1])).ravel()  # chain passes
        self.rejected, todo = Counter(), k[~ok[:-1]]
        diagonal = todo // nv + todo % nv
        for d in sorted(set(diagonal.tolist())):
            cells = todo[diagonal == d]
            left, lower = cells - 1, cells - nv
            src = np.where((cells % nv > 0) & ok[left], left,
                           np.where((lower >= 0) & ok[lower], lower, -1))
            self.rejected.update(type(e).__name__ for e in invert(cells, src) if e is not None)
        return np.where(ok[:-1, None], np.column_stack([x, y, points[:-1, 2]]), 0.0), ok[:-1]


# ---------------------------------------------------------------------------
# translation surfaces X(u, v) = A(u) + B(v): timelike minimal and Born-Infeld
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Curve:
    """One generating curve of a translation surface.  Its columns at t are the
    integrals of ``integrands`` from ``base`` to t, then the ``values``
    expressions at t; a surface point is a linear assembly of both curves'
    columns."""

    integrands: tuple
    values: tuple = ()
    base: float = 0.0

    @cached_property
    def tape(self):
        return Tape(self.integrands)

    @cached_property
    def jet_tape(self):
        """The columns' first derivatives (the integrands, then the values'
        derivatives), then their second derivatives."""
        return _with_derivatives(self.integrands + tuple(e.derivative() for e in self.values))

    def columns(self, t):
        """The columns at the points t as the rows of one real array, each
        point's integral error, and a dict of the values' errors (the first
        failing value's)."""
        q, errors = integrate_segments(self.tape, self.base, t)
        evaluated = [e.eval_array(t) for e in self.values]
        failed = {k: exc for _, errs in reversed(evaluated) for k, exc in errs.items()}
        return np.vstack([q.real, *(vals.real for vals, _ in evaluated)]), errors, failed


def _translation_points(assemble, curves, u, v):
    """Each distinct u and v is integrated and evaluated once (a lattice costs
    nu + nv integrals); a point's error is its u-integral's, v-integral's,
    u-values' or v-values', in that order, else a SingularPath where its
    coordinates overflow (assembled without numpy warnings)."""
    (us, iu), (vs, iv) = _distinct(u), _distinct(v)
    (qu, eu, fu), (qv, ev, fv) = curves[0].columns(us), curves[1].columns(vs)
    errors = [None] * iu.size
    if any(eu) or any(ev) or fu or fv:
        errors = [eu[i] or ev[j] or fu.get(i) or fv.get(j) for i, j in zip(iu.tolist(), iv.tolist())]
    with np.errstate(over="ignore", invalid="ignore"):
        coords = assemble(qu[:, iu], qv[:, iv])
    for k in np.flatnonzero(~np.isfinite(coords).all(axis=0)).tolist():
        errors[k] = errors[k] or SingularPath("the surface point overflows")
    return coords, errors


def _translation_jet(assemble, curves, u, v):
    """(X_u, X_v, X_uu, X_uv, X_vv): X is linear in the columns, so each
    derivative is the assembly of the columns' derivatives, and X_uv = 0."""
    (du, ddu), (dv, ddv) = (np.split(c.jet_tape(t)[0].real, 2) for c, t in zip(curves, (u, v)))
    zero = (0.0, 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a non-finite entry
        return (assemble(du, zero), assemble(zero, dv), assemble(ddu, zero), zero,
                assemble(zero, ddv))


@dataclass(frozen=True)
class TLMSData:
    """Projected-Gauss-map data (q, r) and densities f(u), g(v)."""

    f_u: AnalyticExpr
    q_u: AnalyticExpr
    g_v: AnalyticExpr
    r_v: AnalyticExpr
    base: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.f_u.varnames != self.q_u.varnames:
            raise ValueError("f and q must share the u variable")
        if self.g_v.varnames != self.r_v.varnames:
            raise ValueError("g and r must share the v variable")
        if len(self.base) != 2:
            raise ValueError(f"base needs 2 values (u0, v0), got {len(self.base)}")

    @classmethod
    def from_text(cls, f_text: str, g_text: str, q_text: str, r_text: str,
                  base=(0.0, 0.0)) -> "TLMSData":
        return cls(parse(f_text, "u"), parse(q_text, "u"),
                   parse(g_text, "v"), parse(r_text, "v"),
                   tuple(float(t) for t in base))

    @cached_property
    def curves(self):
        """The u and v null curves: the integrals of (q f, (1 - q^2) f, (1 + q^2) f)."""
        return (_Curve(_null_curve_integrands(self.f_u, self.q_u), base=self.base[0]),
                _Curve(_null_curve_integrands(self.g_v, self.r_v), base=self.base[1]))


def _null_curve_integrands(density: AnalyticExpr, gauss: AnalyticExpr):
    """(q f, (1 - q^2) f, (1 + q^2) f) for a density f and Gauss map q of one variable."""
    f, q = density.root, gauss.root
    q2 = Power(q, 2)
    shapes = (_mul(q, f),
              _mul(Binary("sub", _ONE, q2), f),
              _mul(Binary("add", _ONE, q2), f))
    return tuple(AnalyticExpr(s, density.varnames) for s in shapes)


def _assemble_tlms(qu, qv):
    """Surface coordinates from the u- and v-integral triples (arrays or floats)."""
    x = -qu[0] + qv[0]
    y = -0.5 * (qu[1] + qv[1])
    z = 0.5 * (qu[2] - qv[2])
    return (x, y, z)


def tlms_point(data: TLMSData, u: float, v: float):
    """Timelike-minimal surface point: the one-point case of ``TLMSSampler.points``."""
    return TLMSSampler(data).point(u, v)


class TLMSSampler:
    """Parametric (u, v) sampler with exact jets (X_uv = 0 by construction)."""

    def __init__(self, data: TLMSData):
        self.data = data

    def points(self, u, v):
        return _translation_points(_assemble_tlms, self.data.curves, u, v)

    point = point_from(points)
    sample_grid = _sample_grid

    @array_jet
    def jet(self, u, v):
        return _translation_jet(_assemble_tlms, self.data.curves, u, v)


@dataclass(frozen=True)
class BCData:
    """Two arbitrary smooth functions F(r), G(s); the base corner is (0, 0)."""

    F: AnalyticExpr
    G: AnalyticExpr

    @classmethod
    def from_text(cls, f_text: str, g_text: str) -> "BCData":
        return cls(parse(f_text, "r"), parse(g_text, "s"))

    @cached_property
    def curves(self):
        """The r and s curves: the integrals of (t^2 F'(t), t F'(t)), then F(t)."""
        return tuple(_Curve(_soliton_integrands(e.derivative()), (e,)) for e in (self.F, self.G))


def _soliton_integrands(prime: AnalyticExpr):
    """(t^2 F'(t), t F'(t)) in the variable t of F' = ``prime``."""
    t = Var(*prime.varnames)
    return (AnalyticExpr(_mul(Power(t, 2), prime.root), prime.varnames),
            AnalyticExpr(_mul(t, prime.root), prime.varnames))


def bc_point(data: BCData, r: float, s: float):
    """Born-Infeld soliton point:
    x = (F + G - I_s[s^2 G'] - I_r[r^2 F'])/2,
    y = (G - F - I_r[r^2 F'] + I_s[s^2 G'])/2,
    z = I_r[r F'] + I_s[s G']."""
    return BCSampler(data).point(r, s)


def _assemble_bc(qr, qs):
    """Soliton coordinates from the r- and s-column triples (I[t^2 F'], I[t F'], F)."""
    x = 0.5 * (qr[2] + qs[2] - qs[0] - qr[0])
    y = 0.5 * (qs[2] - qr[2] - qr[0] + qs[0])
    z = qr[1] + qs[1]
    return (x, y, z)


class BCSampler:
    """Parametric (r, s) sampler with exact jets (X_rs = 0 by construction)."""

    def __init__(self, data: BCData):
        self.data = data

    def points(self, u, v):
        return _translation_points(_assemble_bc, self.data.curves, u, v)

    point = point_from(points)
    sample_grid = _sample_grid

    @array_jet
    def jet(self, u, v):
        return _translation_jet(_assemble_bc, self.data.curves, u, v)
