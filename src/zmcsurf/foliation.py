"""Foliation of 3-space minus the vertical lines (2*pi*k, 0, z) by shifted helicoid leaves.

The leaf function is piecewise per band: with k(x) = round(x / 2*pi) mapping x
into [(2k-1)*pi, (2k+1)*pi],

    F(x, y) = (-1)^k * atan(y / (x - 2*k*pi))        (principal arctangent)

The two adjacent band formulas agree at every boundary x = (2k+1)*pi because
atan is odd, so F is continuous across bands.  Leaves are the vertical shifts
z = F(x, y) + t; every admissible point lies on exactly one leaf
(t = z - F(x, y)).  On band k a leaf is (-1)^k times the helicoid at
(x - 2*k*pi, y), plus t, so ``LeafSurface(t)`` is a catalog
``HeightSurface``: it is meshed and residual-checked as the catalog's
surfaces are.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .catalog import HeightSurface, builtin_surface
from .errors import DomainViolation, EmptyGrid
from .report import BroadcastRows, VerificationReport, reduce_errors
from .zmc import GraphJet

__all__ = [
    "ExcludedPoint",
    "TooManyBoundaries",
    "UnplaceableProbes",
    "band_index",
    "leaf_height",
    "leaf_point",
    "leaf_of_point",
    "foliation_check",
    "LeafSurface",
]

TWO_PI = 2 * math.pi
_HELICOID = builtin_surface("helicoid")


class ExcludedPoint(DomainViolation):
    """The point lies on an excluded line (2*pi*k, 0, z); ``points`` holds it."""


class TooManyBoundaries(ValueError):
    """The window holds more band boundaries than ``foliation_check`` visits."""


class UnplaceableProbes(ValueError):
    """The window holds band boundaries where doubles are more than
    ``BOUNDARY_DELTA`` apart, so the probes cannot straddle a boundary."""


def _band(x):
    """(k, x - 2*pi*k) with k = round(x / 2*pi) as a float."""
    k = np.round(np.asarray(x) / TWO_PI)
    return k, x - TWO_PI * k


def band_index(x):
    """k with x in [(2k-1)*pi, (2k+1)*pi] (ties at boundaries go either way);
    an int for one x, an int array for arrays."""
    k, _ = _band(x)
    return int(k) if np.ndim(k) == 0 else k.astype(np.int64)


def _band_offset(x, y):
    """``_band(x)``; raises ExcludedPoint if any point lies on an excluded line."""
    k, dx = _band(x)
    excluded = (np.asarray(y) == 0.0) & (np.abs(dx) < 1e-12)
    if excluded.any():
        px, py, pk = (np.broadcast_to(a, excluded.shape)[excluded][0] for a in (x, y, k))
        raise ExcludedPoint(f"({px}, {py}) lies on the excluded line x = 2*pi*{int(pk)}, y = 0",
                            [(float(px), float(py))])
    return k, dx


def _band_sign(k):
    return np.where(np.mod(k, 2) == 1, -1.0, 1.0)


def leaf_height(x, y):
    """The piecewise band formula (scalars or arrays); exact band boundaries
    return the common value."""
    k, dx = _band_offset(x, y)
    with np.errstate(all="ignore"):
        # On the band axis with y != 0 the principal arctangent saturates.
        z = np.where(dx == 0.0, np.copysign(math.pi / 2, y), np.arctan(y / dx))
    return (_band_sign(k) * z)[()]


def leaf_point(x, y, t):
    """Embedding of the admissible plane point into the leaf with shift t."""
    return (x, y, leaf_height(x, y) + t)


def leaf_of_point(x, y, z):
    """The unique shift t with (x, y, z) on the leaf z = F + t."""
    return z - leaf_height(x, y)


def LeafSurface(t: float = 0.0) -> HeightSurface:
    """The leaf z = F(x, y) + t as a catalog graph surface (minimal on each band
    interior): (-1)^k times the helicoid at (x - 2*pi*k, y), plus t.  Its jet is
    the helicoid's exact jet there, times (-1)^k; its default grid is the
    helicoid's, which lies in band 0."""
    def height(x, y):
        return leaf_height(x, y) + t

    def domain(x, y, margin):
        return np.hypot(_band(x)[1], y) > max(margin, 1e-12)

    def jet(x, y):
        k, dx = _band_offset(x, y)
        sign = _band_sign(k)
        j = _HELICOID.exact_jet(dx, y)
        return GraphJet(height(x, y),
                        *((sign * d)[()] for d in (j.z_x, j.z_y, j.z_xx, j.z_xy, j.z_yy)))

    return HeightSurface("foliation-leaf", "minimal", height, domain, jet, _HELICOID.default_grid)


# Half-width of the pairs straddling a band boundary, the tolerances of the
# two sub-checks of ``foliation_check``, its count of random points, its bound
# on rounds of random draws and on the band boundaries of its window.
BOUNDARY_DELTA = 1e-7
BOUNDARY_TOLERANCE = 1e-6
ROUNDTRIP_TOLERANCE = 1e-12
RANDOM_POINTS = 2000
DRAW_ROUNDS = 1000
MAX_BOUNDARIES = 10_000


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    """``count`` draws of ``rng.random()``, the same doubles with the same state
    after, from one ``getrandbits`` call: draw k takes bits [64k, 64k + 64) as
    a low word ``a`` and a high word ``b``."""
    bits = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    a, b = np.frombuffer(bits, dtype="<u4").reshape(count, 2).T
    return ((a >> 5) * 67108864.0 + (b >> 6)) / 2**53


def foliation_check(grid, t_samples, seed: int = 20240901) -> VerificationReport:
    """Continuity, coverage, and disjointness checks for the leaf family.

    (a) band-boundary continuity: straddling pairs x = (2k+1)*pi +- delta for
        every boundary inside the grid window, max |F difference| = O(delta),
        against ``BOUNDARY_TOLERANCE``;
    (b) disjointness/coverage: for ``RANDOM_POINTS`` random admissible points
        and every t in ``t_samples``, recovering t from the embedded leaf
        point is exact, to ``ROUNDTRIP_TOLERANCE``;
    (c) the graph property holds by construction (single-valued height).

    The report's max/mean error, tolerance and worst point are those of the
    sub-check with the larger max error / tolerance ratio (the roundtrip when
    the window holds no band boundary), so the report passes exactly when both
    sub-checks pass.  Both sub-checks' max and mean are also in the
    parameters.  A window without boundaries and ``RANDOM_POINTS = 0`` checks
    nothing, and a window that yields fewer than ``RANDOM_POINTS`` admissible
    points in ``DRAW_ROUNDS`` rounds of draws cannot be checked (EmptyGrid both).
    A window with more than ``MAX_BOUNDARIES`` band boundaries raises
    TooManyBoundaries, and one with a band boundary where the spacing of
    doubles at its wider end exceeds ``BOUNDARY_DELTA`` (|x| from about 5.4e8)
    raises UnplaceableProbes, both before anything is allocated.
    """
    t_samples = list(t_samples)
    if not t_samples:
        raise EmptyGrid("need at least one leaf shift t")

    # Entry (i, j) is boundary i at ys[j]; row-major is the check order.
    ys = grid.v_values()
    k_lo = math.ceil((grid.u_min - math.pi) / TWO_PI)
    k_hi = math.floor((grid.u_max - math.pi) / TWO_PI)
    if k_hi - k_lo + 1 > MAX_BOUNDARIES:  # Python ints: no array and no overflow however wide
        raise TooManyBoundaries(f"the window holds {k_hi - k_lo + 1} band boundaries, more than "
                                f"the {MAX_BOUNDARIES} a foliation check visits")
    reach = max(abs(grid.u_min), abs(grid.u_max))
    if k_hi >= k_lo and math.ulp(reach) > BOUNDARY_DELTA:
        raise UnplaceableProbes(f"the window reaches |x| = {reach:g}, where doubles are "
                                f"{math.ulp(reach):g} apart: the band boundary probes cannot "
                                f"be placed {BOUNDARY_DELTA:g} from a boundary")
    k = np.arange(k_lo, k_hi + 1)
    xb = (2 * k + 1) * math.pi
    xb = xb[(grid.u_min <= xb) & (xb <= grid.u_max)][:, None]
    left = leaf_height(xb - BOUNDARY_DELTA, ys)
    right = leaf_height(xb + BOUNDARY_DELTA, ys)
    boundary = reduce_errors(np.abs(left - right), BroadcastRows(xb, ys), left, right)

    # Draw the pairs as a one-at-a-time rejection loop of rng.uniform(lo, hi) does.
    rng = random.Random(seed)
    margin = max(grid.margin, 1e-6)
    lo, hi = np.array([grid.u_min, grid.v_min]), np.array([grid.u_max, grid.v_max])
    x = y = np.empty(0)
    for _ in range(DRAW_ROUNDS):
        m = RANDOM_POINTS - x.size
        if m <= 0:
            break
        draws = lo + (hi - lo) * _uniforms(rng, 2 * m).reshape(m, 2)
        keep = np.hypot(_band(draws[:, 0])[1], draws[:, 1]) > margin
        x, y = np.concatenate([x, draws[keep, 0]]), np.concatenate([y, draws[keep, 1]])
    if x.size < RANDOM_POINTS:
        raise EmptyGrid(f"only {x.size} of {RANDOM_POINTS} random points are admissible "
                        f"after {DRAW_ROUNDS} rounds of draws in the window")
    checked = x.size
    t = np.array(t_samples, dtype=float)
    # Entry (i, j) is point i on the leaf t[j]; row-major is the check order.
    recovered = np.broadcast_to(leaf_of_point(*leaf_point(x[:, None], y[:, None], t)),
                                (checked, t.size))
    columns = (np.broadcast_to(c, recovered.shape) for c in (x[:, None], y[:, None]))
    roundtrip = reduce_errors(np.abs(recovered - t), BroadcastRows(*columns), recovered, t)

    # Compare the err/tolerance ratios without dividing by a tolerance; a NaN
    # max heads the report whichever sub-check it is in, and a window without
    # band boundaries has only the roundtrip sub-check to report.
    b_max, r_max = boundary["max_abs_err"], roundtrip["max_abs_err"]
    if (r_max * BOUNDARY_TOLERANCE > b_max * ROUNDTRIP_TOLERANCE or math.isnan(r_max)
            or boundary["points_checked"] == 0):
        headline, tolerance = roundtrip, ROUNDTRIP_TOLERANCE
    else:
        headline, tolerance = boundary, BOUNDARY_TOLERANCE
    return VerificationReport(
        subject="foliation-check",
        parameters={
            "t_samples": t_samples,
            "boundary_pairs": boundary["points_checked"],
            "boundary_delta": BOUNDARY_DELTA,
            "boundary_max": b_max,
            "boundary_mean": boundary["mean_abs_err"],
            "boundary_tolerance": BOUNDARY_TOLERANCE,
            "roundtrip_points": checked,
            "roundtrip_max": r_max,
            "roundtrip_mean": roundtrip["mean_abs_err"],
            "roundtrip_tolerance": ROUNDTRIP_TOLERANCE,
            "roundtrip_pass": r_max <= ROUNDTRIP_TOLERANCE,
            "seed": seed,
        },
        grid=grid,
        **{**headline, "points_checked": boundary["points_checked"] + roundtrip["points_checked"]},
        policy="principal",
        tolerance=tolerance,
    )
