"""Foliation of 3-space minus the vertical lines (2*pi*k, 0, z) by shifted helicoid leaves.

The leaf function is piecewise per band: with k(x) = round(x / 2*pi) mapping x
into [(2k-1)*pi, (2k+1)*pi],

    F(x, y) = (-1)^k * atan(y / (x - 2*k*pi))        (principal arctangent)

The two adjacent band formulas agree at every boundary x = (2k+1)*pi because
atan is odd, so F is continuous across bands.  Leaves are the vertical shifts
z = F(x, y) + t; every admissible point lies on exactly one leaf
(t = z - F(x, y)).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import EmptyGrid
from .report import ErrorStats, VerificationReport
from .zmc import GraphJet

__all__ = [
    "ExcludedPoint",
    "band_index",
    "leaf_height",
    "leaf_point",
    "leaf_of_point",
    "foliation_check",
    "LeafSurface",
]

TWO_PI = 2 * math.pi


class ExcludedPoint(ValueError):
    """The point lies on an excluded line (2*pi*k, 0, z)."""


def band_index(x: float) -> int:
    """k with x in [(2k-1)*pi, (2k+1)*pi] (ties at boundaries go either way)."""
    return int(round(x / TWO_PI))


def _band_offset(x: float, y: float):
    k = band_index(x)
    dx = x - TWO_PI * k
    if y == 0.0 and abs(dx) < 1e-12:
        raise ExcludedPoint(f"({x}, {y}) lies on the excluded line x = 2*pi*{k}, y = 0")
    return k, dx


def leaf_height(x: float, y: float) -> float:
    """The piecewise band formula; exact band boundaries return the common value."""
    k, dx = _band_offset(x, y)
    sign = -1.0 if k % 2 else 1.0
    if dx == 0.0:
        # On the band axis with y != 0 the principal arctangent saturates.
        return sign * math.copysign(math.pi / 2, y)
    return sign * math.atan(y / dx)


def leaf_point(x: float, y: float, t: float):
    """Embedding of the admissible plane point into the leaf with shift t."""
    return (x, y, leaf_height(x, y) + t)


def leaf_of_point(x: float, y: float, z: float) -> float:
    """The unique shift t with (x, y, z) on the leaf z = F + t."""
    return z - leaf_height(x, y)


@dataclass(frozen=True)
class LeafSurface:
    """One leaf as a graph surface (meshable; minimal on each band interior)."""

    t: float = 0.0
    id: str = "foliation-leaf"
    kind: str = "minimal"

    def height_at(self, x: float, y: float) -> float:
        return leaf_height(x, y) + self.t

    def domain_ok(self, x: float, y: float, margin: float = 0.0) -> bool:
        k = band_index(x)
        return math.hypot(x - TWO_PI * k, y) > max(margin, 1e-12)

    def exact_jet(self, x: float, y: float) -> GraphJet:
        k, dx = _band_offset(x, y)
        sign = -1.0 if k % 2 else 1.0
        r2 = dx * dx + y * y
        return GraphJet(
            self.height_at(x, y),
            sign * (-y / r2),
            sign * (dx / r2),
            sign * (2 * dx * y / (r2 * r2)),
            sign * ((y * y - dx * dx) / (r2 * r2)),
            sign * (-2 * dx * y / (r2 * r2)),
        )


def foliation_check(grid, t_samples, n_random: int = 2000, seed: int = 20240901,
                    boundary_delta: float = 1e-7,
                    boundary_tolerance: float = 1e-6,
                    roundtrip_tolerance: float = 1e-12) -> VerificationReport:
    """Continuity, coverage, and disjointness checks for the leaf family.

    (a) band-boundary continuity: straddling pairs x = (2k+1)*pi +- delta for
        every boundary inside the grid window, max |F difference| = O(delta),
        against ``boundary_tolerance``;
    (b) disjointness/coverage: for random admissible points and every t in
        ``t_samples``, recovering t from the embedded leaf point is exact, to
        ``roundtrip_tolerance``;
    (c) the graph property holds by construction (single-valued height).

    The report's max/mean error, tolerance and worst point are those of the
    sub-check with the larger max error / tolerance ratio, so the report
    passes exactly when both sub-checks pass.  Both sub-checks' max and mean
    are also in the parameters.
    """
    t_samples = list(t_samples)
    if not t_samples:
        raise EmptyGrid("need at least one leaf shift t")

    boundary = ErrorStats()
    k_lo = math.ceil((grid.u_min - math.pi) / TWO_PI)
    k_hi = math.floor((grid.u_max - math.pi) / TWO_PI)
    for k in range(k_lo, k_hi + 1):
        xb = (2 * k + 1) * math.pi
        if not (grid.u_min <= xb <= grid.u_max):
            continue
        for v in grid.v_values():
            y = float(v)
            left = leaf_height(xb - boundary_delta, y)
            right = leaf_height(xb + boundary_delta, y)
            boundary.add(abs(left - right), (xb, y), left, right)

    rng = random.Random(seed)
    margin = max(grid.margin, 1e-6)
    roundtrip = ErrorStats()
    checked = 0
    while checked < n_random:
        x = rng.uniform(grid.u_min, grid.u_max)
        y = rng.uniform(grid.v_min, grid.v_max)
        if math.hypot(x - TWO_PI * band_index(x), y) <= margin:
            continue
        for t in t_samples:
            recovered = leaf_of_point(*leaf_point(x, y, t))
            roundtrip.add(abs(recovered - t), (x, y), recovered, t)
        checked += 1

    # Compare the err/tolerance ratios without dividing by a tolerance; a NaN
    # max heads the report whichever sub-check it is in.
    if (roundtrip.max * boundary_tolerance > boundary.max * roundtrip_tolerance
            or math.isnan(roundtrip.max)):
        headline, tolerance = roundtrip, roundtrip_tolerance
    else:
        headline, tolerance = boundary, boundary_tolerance
    return VerificationReport(
        subject="foliation-check",
        parameters={
            "t_samples": t_samples,
            "boundary_pairs": boundary.count,
            "boundary_delta": boundary_delta,
            "boundary_max": boundary.max,
            "boundary_mean": boundary.mean,
            "boundary_tolerance": boundary_tolerance,
            "roundtrip_points": checked,
            "roundtrip_max": roundtrip.max,
            "roundtrip_mean": roundtrip.mean,
            "roundtrip_tolerance": roundtrip_tolerance,
            "roundtrip_pass": roundtrip.max <= roundtrip_tolerance,
            "seed": seed,
        },
        grid=grid,
        points_checked=boundary.count + roundtrip.count,
        max_abs_err=headline.max,
        mean_abs_err=headline.mean,
        worst_point=headline.worst,
        policy="principal",
        tolerance=tolerance,
    )
