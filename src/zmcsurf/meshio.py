"""Structured sampling of surfaces into patches and bit-exact OBJ/CSV export.

Patches are row-major (nu, nv) lattices; invalid points never leak NaN into a
file: OBJ skips them (and every face touching them), CSV flags them.  All
numeric output uses 17 significant digits, which round-trips binary64 exactly,
and files are written atomically with LF endings so golden-file comparisons
are byte-stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, EmptyGrid, NoConvergence, SingularPath
from .expr import EvalDomainError

__all__ = ["GridSpec", "SurfacePatch", "sample_patch", "write_obj", "write_csv", "read_csv"]


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@dataclass(frozen=True)
class GridSpec:
    """A (nu x nv) lattice over [u_min,u_max] x [v_min,v_max].

    ``margin`` is the singularity standoff: how far (in argument space) every
    sampled quantity must stay from its singular set.
    """

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    nu: int
    nv: int
    margin: float = 0.05

    def __post_init__(self):
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("grid bounds must satisfy u_min < u_max and v_min < v_max")
        if self.nu < 2 or self.nv < 2:
            raise ValueError("grid needs nu >= 2 and nv >= 2")
        if self.margin < 0:
            raise ValueError("margin must be >= 0")

    def u_values(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.nu)

    def v_values(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.nv)

    def points(self):
        """Row-major lattice iterator: ((i, j), (u, v))."""
        us = self.u_values()
        vs = self.v_values()
        for i in range(self.nu):
            for j in range(self.nv):
                yield (i, j), (float(us[i]), float(vs[j]))

    def to_dict(self) -> dict:
        return {
            "u_min": self.u_min,
            "u_max": self.u_max,
            "v_min": self.v_min,
            "v_max": self.v_max,
            "nu": self.nu,
            "nv": self.nv,
            "margin": self.margin,
        }

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse ``umin:umax:nu,vmin:vmax:nv[,margin]``."""
        parts = text.split(",")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad grid spec {text!r}")
        try:
            u = parts[0].split(":")
            v = parts[1].split(":")
            if len(u) != 3 or len(v) != 3:
                raise ValueError
            margin = float(parts[2]) if len(parts) == 3 else 0.05
            return cls(float(u[0]), float(u[1]), float(v[0]), float(v[1]),
                       int(u[2]), int(v[2]), margin)
        except ValueError as exc:
            raise ValueError(f"bad grid spec {text!r}") from exc


@dataclass
class SurfacePatch:
    """Row-major (nu*nv, 3) point array plus validity mask."""

    nu: int
    nv: int
    points: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(self.nu * self.nv, 3)
        self.valid = np.asarray(self.valid, dtype=bool).reshape(self.nu * self.nv)

    def index(self, i: int, j: int) -> int:
        return i * self.nv + j

    def valid_count(self) -> int:
        return int(self.valid.sum())


# Failures that mark one lattice point invalid; anything else is a bug and propagates.
_POINT_ERRORS = (SingularPath, NoConvergence, EvalDomainError, DomainViolation)


def sample_patch(source, grid: GridSpec) -> SurfacePatch:
    """Evaluate ``source`` on the lattice, masking points that fail.

    Sources, by decreasing specificity:
      * ``source.sample_grid(grid)`` -> (points, valid), row-major, the whole
        lattice in one call (batched quadrature of the WE, TLMS and BC
        samplers; inversion-based height sampling with neighbor-continuation
        seeding);
      * ``source.point(u, v)`` -> (x, y, z)  (parametric samplers);
      * ``source.height_at(x, y)`` + ``source.domain_ok(x, y, margin)``
        (graph surfaces and foliation leaves).

    A point is masked when it raises SingularPath, NoConvergence,
    EvalDomainError or DomainViolation, or comes out non-finite; masked points
    are stored as zeros.  Any other exception propagates.
    """
    n = grid.nu * grid.nv
    if hasattr(source, "sample_grid"):
        points, valid = source.sample_grid(grid)
        patch = SurfacePatch(grid.nu, grid.nv, points, valid)
        patch.valid &= np.isfinite(patch.points).all(axis=1)
        patch.points[~patch.valid] = 0.0
    else:
        points = np.zeros((n, 3))
        valid = np.zeros(n, dtype=bool)
        parametric = hasattr(source, "point")
        for (i, j), (u, v) in grid.points():
            k = i * grid.nv + j
            try:
                if parametric:
                    x, y, z = source.point(u, v)
                else:
                    if hasattr(source, "domain_ok") and not source.domain_ok(u, v, grid.margin):
                        continue
                    x, y, z = u, v, source.height_at(u, v)
            except _POINT_ERRORS:
                continue
            if all(np.isfinite((x, y, z))):
                points[k] = (x, y, z)
                valid[k] = True
        patch = SurfacePatch(grid.nu, grid.nv, points, valid)
    if patch.valid_count() == 0:
        raise EmptyGrid("no valid points in sampled patch")
    return patch


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_obj(patch: SurfacePatch, path: str) -> None:
    """ASCII OBJ: one ``v`` line per valid vertex (row-major), quad faces only
    when all four corners are valid.  Byte-deterministic."""
    if patch.valid_count() == 0:
        raise EmptyGrid("cannot export an all-invalid patch")
    lines = []
    vertex_number = {}
    for k in range(patch.nu * patch.nv):
        if patch.valid[k]:
            vertex_number[k] = len(vertex_number) + 1
            x, y, z = patch.points[k]
            lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    for i in range(patch.nu - 1):
        for j in range(patch.nv - 1):
            corners = (
                patch.index(i, j),
                patch.index(i + 1, j),
                patch.index(i + 1, j + 1),
                patch.index(i, j + 1),
            )
            if all(patch.valid[c] for c in corners):
                a, b, c, d = (vertex_number[c] for c in corners)
                lines.append(f"f {a} {b} {c} {d}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_csv(patch: SurfacePatch, path: str) -> None:
    """CSV schema: ``u_index,v_index,x,y,z,valid`` with one row per lattice point."""
    lines = ["u_index,v_index,x,y,z,valid"]
    for i in range(patch.nu):
        for j in range(patch.nv):
            k = patch.index(i, j)
            x, y, z = patch.points[k]
            flag = 1 if patch.valid[k] else 0
            lines.append(f"{i},{j},{_fmt(x)},{_fmt(y)},{_fmt(z)},{flag}")
    _atomic_write(path, "\n".join(lines) + "\n")


def read_csv(path: str) -> SurfacePatch:
    """Inverse of write_csv (17-digit decimals round-trip exactly)."""
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    header, body = rows[0], rows[1:]
    if header != ["u_index", "v_index", "x", "y", "z", "valid"]:
        raise ValueError(f"unexpected CSV header in {path}: {header}")
    nu = max(int(r[0]) for r in body) + 1
    nv = max(int(r[1]) for r in body) + 1
    points = np.zeros((nu * nv, 3))
    valid = np.zeros(nu * nv, dtype=bool)
    for r in body:
        k = int(r[0]) * nv + int(r[1])
        points[k] = (float(r[2]), float(r[3]), float(r[4]))
        valid[k] = r[5] == "1"
    return SurfacePatch(nu, nv, points, valid)
