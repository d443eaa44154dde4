"""Graph jets, the three graph ZMC residuals, and a signature-aware parametric check.

The graph equations are evaluated with verbatim coefficient placement:

    minimal     (1 + z_x^2) z_yy - 2 z_x z_y z_xy + (1 + z_y^2) z_xx = 0
    maximal     (1 - z_x^2) z_yy + 2 z_x z_y z_xy + (1 - z_y^2) z_xx = 0
    bi-soliton  (1 - z_y^2) z_xx + 2 z_x z_y z_xy - (1 + z_x^2) z_yy = 0

Graph residuals are reported unnormalized (directly comparable across grids);
the parametric mean-curvature numerator is normalized to be scale-comparable.
There is no graph equation for timelike minimal surfaces here; those get only
the parametric check with metric diag(1, 1, -1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np

from .errors import DomainViolation
from .report import ErrorStats, VerificationReport

__all__ = [
    "GraphJet",
    "SignatureMetric",
    "EUCLID3",
    "LORENTZ3",
    "LORENTZ3_PRIME",
    "EQUATIONS",
    "ExactUnavailable",
    "DegenerateMetric",
    "graph_jet",
    "graph_jets",
    "graph_residual",
    "parametric_zmc_numerator",
    "graph_jet_from_parametric",
    "residual_sweep",
    "parametric_sweep",
    "GraphLiftSampler",
]

EQUATIONS = ("minimal", "maximal", "bi-soliton")


class ExactUnavailable(RuntimeError):
    """The surface has no closed-form jet; the caller must opt into central-diff."""


class DegenerateMetric(ArithmeticError):
    """First fundamental form numerically degenerate (|EG - F^2| ~ 0)."""


@dataclass(frozen=True)
class GraphJet:
    """Second-order jet of a height function z = Z(x, y).

    Entries are floats for real probes and complex for complexified probes;
    z_xy is the single mixed value (mixed partials symmetric by construction).
    """

    z: complex
    z_x: complex
    z_y: complex
    z_xx: complex
    z_xy: complex
    z_yy: complex


_JET_FIELDS = ("z", "z_x", "z_y", "z_xx", "z_xy", "z_yy")


def graph_residual(eq: str, jet: GraphJet):
    """Left-hand side of the selected graph ZMC equation at the jet."""
    zx, zy = jet.z_x, jet.z_y
    zxx, zxy, zyy = jet.z_xx, jet.z_xy, jet.z_yy
    if eq == "minimal":
        return (1 + zx * zx) * zyy - 2 * zx * zy * zxy + (1 + zy * zy) * zxx
    if eq == "maximal":
        return (1 - zx * zx) * zyy + 2 * zx * zy * zxy + (1 - zy * zy) * zxx
    if eq == "bi-soliton":
        return (1 - zy * zy) * zxx + 2 * zx * zy * zxy - (1 + zx * zx) * zyy
    raise ValueError(f"unknown equation {eq!r}; expected one of {EQUATIONS}")


# The central-difference step of every sweep, and the 5-point coefficients
# for f' (divide by 12h) with the offsets they belong to.
FD_STEP = 1e-4
_D1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))


def _shifts(u, v, h):
    """The stencil as broadcast axes: the 5 shifts of u in shape (5, 1, *u.shape)
    and the 5 of v in shape (1, 5, *v.shape), u and v first brought to one ndim.
    Their broadcast, reshaped to (25, ...), has shift (di, dj) in row
    5 * di + dj + 12; an unshifted coordinate keeps its own bits."""
    ndim = max(np.ndim(u), np.ndim(v))
    u, v = (np.reshape(t, (1,) * (ndim - np.ndim(t)) + np.shape(t)) for t in (u, v))
    su, sv = (np.stack([t + d * h if d else t for d in range(-2, 3)]) for t in (u, v))
    return su[:, None], sv[None]


def _stencil(u, v, h):
    """The 25 shifted copies of (u, v), the broadcast of ``_shifts``, in shape
    (25, *shape)."""
    su, sv = np.broadcast_arrays(*_shifts(u, v, h))
    return su.reshape(25, *su.shape[2:]), sv.reshape(25, *sv.shape[2:])


# The stencil rows in the order the formulas below first use them (z, then the
# f_u, f_v and f_uv terms): a failing stencil reports its errors in this order.
_EVAL_ORDER = [5 * di + dj + 12 for di, dj in [(0, 0)] + [(d, 0) for d, _ in _D1]
               + [(0, d) for d, _ in _D1] + [(di, dj) for di, _ in _D1 for dj, _ in _D1]]


def _central_jet(f, h):
    """5-point central-difference jet (f, f_u, f_v, f_uu, f_uv, f_vv) with step h
    from the values ``f`` at a ``_stencil``, an array of shape (25, ...)."""
    def at(di, dj):
        return f[5 * di + dj + 12]

    z = at(0, 0)
    zu = sum(c * at(d, 0) for d, c in _D1) / (12 * h)
    zv = sum(c * at(0, d) for d, c in _D1) / (12 * h)
    zuu = (-at(2, 0) + 16 * at(1, 0) - 30 * z + 16 * at(-1, 0) - at(-2, 0)) / (12 * h * h)
    zvv = (-at(0, 2) + 16 * at(0, 1) - 30 * z + 16 * at(0, -1) - at(0, -2)) / (12 * h * h)
    zuv = sum(ci * cj * at(di, dj) for di, ci in _D1 for dj, cj in _D1) / (144 * h * h)
    return z, zu, zv, zuu, zuv, zvv


def graph_jets(surface, x, y, method: str = "exact", h: float = FD_STEP) -> GraphJet:
    """Second-order jets of a height surface at every point of the arrays x, y.

    ``method="exact"`` uses the surface's closed-form/symbolic jet and raises
    ExactUnavailable when there is none (no silent fallback: the caller
    chooses).  ``method="central-diff"`` evaluates the 5-point stencil with step
    h as one stack (one ``domain_ok`` and one ``heights`` call) on the broadcast
    axes of ``_shifts``, so work on one coordinate runs on its 5 shifts alone; a
    point outside the domain raises DomainViolation with the first failing
    shift's first five (di-major).  Entries are arrays that broadcast against
    each other to the shape of x and y broadcast (scalars for scalar x, y): on
    lattice axes, a jet entry that depends on x alone may keep x's shape.
    """
    if method == "exact":
        if surface.exact_jet is None:
            raise ExactUnavailable(f"surface {surface.id!r} has no exact jet")
        with np.errstate(all="ignore"):
            return surface.exact_jet(x, y)
    if method != "central-diff":
        raise ValueError(f"unknown jet method {method!r}")

    su, sv = _shifts(x, y, h)
    px, py = su + 0.0, sv + 0.0  # as x + 0 * h: -0.0 is 0.0
    bad = ~surface.domain_ok(px, py, 0.0)
    if bad.any():
        bad = bad.reshape(25, -1)
        k = bad.any(axis=1).argmax()
        pu, pv = (t.reshape(25, -1)[k][bad[k]].tolist() for t in np.broadcast_arrays(px, py))
        raise DomainViolation(f"stencil leaves the domain of {surface.id!r}",
                              list(zip(pu, pv))[:5])
    shape = np.broadcast_shapes(su.shape, sv.shape)
    with np.errstate(all="ignore"):
        f = np.broadcast_to(surface.heights(su, sv), shape)
        return GraphJet(*_central_jet(f.reshape(25, *shape[2:]), h))


def one_point(x, y):
    """Arguments that make a lattice formula's one-point case round as its
    lattice entry does: real points as they are (real arithmetic rounds the
    same on scalars and arrays), complex points as one-element arrays
    (numpy's scalar complex product rounds differently from its array loop).
    """
    if isinstance(x, complex) or isinstance(y, complex):
        return np.array([x], dtype=complex), np.array([y], dtype=complex)
    return x, y


def graph_jet(surface, x: float, y: float, method: str = "exact", h: float = FD_STEP) -> GraphJet:
    """Second-order jet of a height surface at (x, y): the one-point case of
    ``graph_jets``."""
    jet = graph_jets(surface, *one_point(x, y), method, h)
    return GraphJet(*(np.ravel(getattr(jet, name))[0].item() for name in _JET_FIELDS))


# ---------------------------------------------------------------------------
# signature metrics and the parametric ZMC numerator
# ---------------------------------------------------------------------------

_ALLOWED_SIGNS = {(1, 1, 1), (1, 1, -1), (1, -1, 1)}


@dataclass(frozen=True)
class SignatureMetric:
    """Diagonal ambient metric; exactly one of diag(1,1,1), diag(1,1,-1), diag(1,-1,1)."""

    signs: tuple

    def __post_init__(self):
        if tuple(self.signs) not in _ALLOWED_SIGNS:
            raise ValueError(f"unsupported metric signature {self.signs!r}")

    def inner(self, a, b) -> float:
        s = self.signs
        return s[0] * a[0] * b[0] + s[1] * a[1] * b[1] + s[2] * a[2] * b[2]

    def pseudo_normal(self, a, b):
        """diag(signs) applied to the Euclidean cross product a x b."""
        cx = a[1] * b[2] - a[2] * b[1]
        cy = a[2] * b[0] - a[0] * b[2]
        cz = a[0] * b[1] - a[1] * b[0]
        s = self.signs
        return (s[0] * cx, s[1] * cy, s[2] * cz)


EUCLID3 = SignatureMetric((1, 1, 1))
LORENTZ3 = SignatureMetric((1, 1, -1))
LORENTZ3_PRIME = SignatureMetric((1, -1, 1))

METRIC_NAMES = {"euclid": EUCLID3, "l3": LORENTZ3, "l3p": LORENTZ3_PRIME}


def array_jet(jet):
    """Let ``jet(self, u, v)``, written over 1-d arrays, also take one point: it
    runs on one-element arrays, so each entry is the float of its lattice entry."""
    @functools.wraps(jet)
    def either(self, u, v):
        if np.ndim(u) or np.ndim(v):
            return jet(self, u, v)
        vecs = jet(self, np.array([float(u)]), np.array([float(v)]))
        return tuple(tuple(np.ravel(c)[0].item() for c in vec) for vec in vecs)
    return either


def point_from(points):
    """``point(u, v)``: one-element ``points``, returning its floats or raising its error."""
    def point(self, u, v):
        coords, errors = points(self, np.array([float(u)]), np.array([float(v)]))
        if errors[0] is not None:
            raise errors[0]
        return tuple(c[0].item() for c in coords)
    return point


def parametric_zmc_numerator(sampler, metric: SignatureMetric, u, v,
                             use_exact_jet: bool = True):
    """Normalized mean-curvature numerator E<X_vv,N> - 2F<X_uv,N> + G<X_uu,N> at
    the points of the 1-d arrays u, v (or, as a float, at one point).

    Uses the sampler's exact jet ``jet(u, v) -> (X_u, X_v, X_uu, X_uv, X_vv)``
    when it has one (and ``use_exact_jet``), otherwise 5-point central
    differences of ``sampler.points``, called once on the flattened stencil.
    Normalization by (|E|+|F|+|G|) * |N|_euclid makes values scale-comparable;
    a point where either factor overflows, or the jet has a pole, is NaN.
    """
    if not (np.ndim(u) or np.ndim(v)):
        return parametric_zmc_numerator(sampler, metric, np.array([float(u)]),
                                        np.array([float(v)]), use_exact_jet).item()
    if use_exact_jet and hasattr(sampler, "jet"):
        xu, xv, xuu, xuv, xvv = sampler.jet(u, v)
    else:
        coords, errors = sampler.points(*(t.reshape(-1) for t in _stencil(u, v, FD_STEP)))
        for failed in filter(None, np.array(errors, object).reshape(25, -1)[_EVAL_ORDER].flat):
            raise failed  # the first failing point of the first failing shift
        stack = np.array(coords, float).reshape(3, 25, -1).swapaxes(0, 1)
        xu, xv, xuu, xuv, xvv = (tuple(d) for d in _central_jet(stack, FD_STEP)[1:])

    with np.errstate(all="ignore"):
        E = metric.inner(xu, xu)
        F = metric.inner(xu, xv)
        G = metric.inner(xv, xv)
        n = metric.pseudo_normal(xu, xv)
        size = abs(E) + abs(F) + abs(G)
        scale, n_sq = size * size, n[0] * n[0] + n[1] * n[1] + n[2] * n[2]
        finite = np.broadcast_to(np.isfinite(scale + n_sq), u.shape)  # both are >= 0
        degenerate = finite & ((scale == 0) | (abs(E * G - F * F) < 1e-12 * scale))
        if degenerate.any():
            k = degenerate.argmax()
            raise DegenerateMetric(f"first fundamental form degenerate at ({u[k]}, {v[k]})")
        numerator = (E * metric.inner(xvv, n)
                     - 2 * F * metric.inner(xuv, n)
                     + G * metric.inner(xuu, n))
        return np.where(finite, numerator / (size * np.sqrt(n_sq)), np.nan)


def graph_jet_from_parametric(z, xu, xv, xuu, xuv, xvv) -> GraphJet:
    """Jet of the local graph z = z(x, y) at height ``z`` implied by a parametric jet.

    Solves the chain-rule systems; raises DegenerateMetric when the (x, y)
    Jacobian is singular (the surface is not a graph over (x, y) there).
    """
    jac = np.array([[xu[0], xv[0]], [xu[1], xv[1]]], dtype=float)
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if abs(det) < 1e-14:
        raise DegenerateMetric("surface is not a graph over (x, y) here")
    z_x, z_y = np.linalg.solve(jac.T, np.array([xu[2], xv[2]]))

    # Second derivatives: subtract the first-order transport, then solve the
    # 3x3 quadratic-form system for (z_xx, z_xy, z_yy).
    rhs = np.array([
        xuu[2] - z_x * xuu[0] - z_y * xuu[1],
        xuv[2] - z_x * xuv[0] - z_y * xuv[1],
        xvv[2] - z_x * xvv[0] - z_y * xvv[1],
    ])
    a = np.array([
        [xu[0] ** 2, 2 * xu[0] * xu[1], xu[1] ** 2],
        [xu[0] * xv[0], xu[0] * xv[1] + xv[0] * xu[1], xu[1] * xv[1]],
        [xv[0] ** 2, 2 * xv[0] * xv[1], xv[1] ** 2],
    ])
    z_xx, z_xy, z_yy = np.linalg.solve(a, rhs)
    return GraphJet(z, float(z_x), float(z_y), float(z_xx), float(z_xy), float(z_yy))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def residual_sweep(surface, eq: str, grid, method: str = "exact",
                   tolerance: float = 1e-10) -> VerificationReport:
    """Max/mean |graph residual| over a lattice that must lie in the domain;
    the whole lattice is evaluated at once on its axes and reduced in
    row-major order."""
    u, v = grid.axes()
    shape = (grid.nu, grid.nv)
    bad = ~np.broadcast_to(surface.domain_ok(u, v, grid.margin), shape).reshape(-1)
    if bad.any():
        u, v = grid.lattice()
        raise DomainViolation(
            f"{int(bad.sum())} grid points violate the domain of {surface.id!r}",
            list(zip(u[bad].tolist(), v[bad].tolist()))[:10])

    with np.errstate(all="ignore"):
        r = np.broadcast_to(graph_residual(eq, graph_jets(surface, u, v, method=method)),
                            shape).reshape(-1)
    stats = ErrorStats()
    stats.add_many(np.abs(r), np.column_stack(grid.lattice()), r)
    return VerificationReport.of(
        stats, subject=f"residual:{eq}:{surface.id}",
        parameters={"equation": eq, "surface": surface.id, "method": method, "h": FD_STEP},
        grid=grid, policy="unnormalized", tolerance=tolerance)


def parametric_sweep(sampler, metric: SignatureMetric, grid, tolerance: float = 1e-6,
                     use_exact_jet: bool = True,
                     subject: str = "parametric-zmc") -> VerificationReport:
    """Max/mean |normalized parametric ZMC numerator| over a (u, v) lattice;
    the whole lattice is evaluated at once and reduced in row-major order."""
    u, v = grid.lattice()
    value = parametric_zmc_numerator(sampler, metric, u, v, use_exact_jet=use_exact_jet)
    stats = ErrorStats()
    stats.add_many(np.abs(value), np.column_stack([u, v]), value)
    return VerificationReport.of(
        stats, subject=subject,
        parameters={"metric": list(metric.signs), "h": FD_STEP,
                    "jets": "exact" if use_exact_jet else "central-diff"},
        grid=grid, policy="normalized", tolerance=tolerance)


class GraphLiftSampler:
    """Parametric view (x, y) -> (x, y, Z(x, y)) of a height surface.

    The ``jet`` attribute is bound only when the surface has an exact jet;
    otherwise the parametric checker falls back to central differences of
    ``points``, as it does for every sampler with ``use_exact_jet=False``.
    """

    def __init__(self, surface):
        self.surface = surface
        if surface.exact_jet is not None:
            self.jet = self._exact_jet

    def points(self, u, v):
        """(u, v, heights(u, v)); a non-finite height has ``height_at``'s error."""
        z = self.surface.heights(u, v)
        return (u, v, z), [None if ok else DomainViolation(
            f"{self.surface.id} has no finite real value at ({x}, {y})", [(x, y)])
            for x, y, ok in zip(u.tolist(), v.tolist(), np.isfinite(z).tolist())]

    point = point_from(points)

    @array_jet
    def _exact_jet(self, u, v):
        j = graph_jets(self.surface, u, v)
        return ((1.0, 0.0, j.z_x), (0.0, 1.0, j.z_y),
                (0.0, 0.0, j.z_xx), (0.0, 0.0, j.z_xy), (0.0, 0.0, j.z_yy))
