"""Structured sampling of surfaces into patches and bit-exact OBJ/CSV export.

Patches are row-major (nu, nv) lattices; invalid points never leak NaN into a
file: OBJ skips them (and every face touching them), CSV flags them.  All
numeric output uses 17 significant digits, which round-trips binary64 exactly,
and files are written atomically with LF endings so golden-file comparisons
are byte-stable.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyGrid

__all__ = ["GridSpec", "SurfacePatch", "sample_patch", "write_obj", "write_csv", "read_csv"]


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
        u_min, u_max, v_min, v_max = map(float, (self.u_min, self.u_max, self.v_min, self.v_max))
        if not all(map(math.isfinite, (u_min, u_max, v_min, v_max, u_max - u_min,
                                       v_max - v_min, self.margin))):
            raise ValueError("grid bounds, widths and margin must be finite")
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("grid bounds must satisfy u_min < u_max and v_min < v_max")
        for name in ("nu", "nv"):
            n = getattr(self, name)
            if isinstance(n, bool) or not hasattr(type(n), "__index__"):
                raise ValueError(f"grid size {name} must be an integer, got {n!r}")
            object.__setattr__(self, name, operator.index(n))
        if self.nu < 2 or self.nv < 2:
            raise ValueError("grid needs nu >= 2 and nv >= 2")
        if self.margin < 0:
            raise ValueError("margin must be >= 0")

    def u_values(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.nu)

    def v_values(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, self.nv)

    def lattice(self):
        """Row-major (u, v) coordinate arrays of the nu*nv lattice points."""
        u, v = np.meshgrid(self.u_values(), self.v_values(), indexing="ij")
        return u.reshape(-1), v.reshape(-1)

    def axes(self):
        """The lattice as broadcast axes: u as a (nu, 1) column, v as a (1, nv)
        row.  Elementwise formulas give the bits of ``lattice()`` in shape
        (nu, nv), and work that depends on one coordinate runs once per line."""
        return self.u_values()[:, None], self.v_values()[None, :]

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
        try:
            if len(parts) not in (2, 3):
                raise ValueError("expected umin:umax:nu,vmin:vmax:nv[,margin]")
            u = parts[0].split(":")
            v = parts[1].split(":")
            if len(u) != 3 or len(v) != 3:
                raise ValueError("each axis needs min:max:n")
            margin = float(parts[2]) if len(parts) == 3 else 0.05
            return cls(float(u[0]), float(u[1]), float(v[0]), float(v[1]),
                       int(u[2]), int(v[2]), margin)
        except ValueError as exc:
            raise ValueError(f"bad grid spec {text!r}: {exc}") from exc


@dataclass
class SurfacePatch:
    """Row-major (nu*nv, 3) point array plus validity mask."""

    nu: int
    nv: int
    points: np.ndarray
    valid: np.ndarray
    # (points bytes, their 17-digit text) left by the last export for the next.
    _text: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(self.nu * self.nv, 3)
        self.valid = np.asarray(self.valid, dtype=bool).reshape(self.nu * self.nv)

    def index(self, i: int, j: int) -> int:
        return i * self.nv + j

    def valid_count(self) -> int:
        return int(self.valid.sum())


def sample_patch(source, grid: GridSpec) -> SurfacePatch:
    """Evaluate ``source`` on the lattice, masking points that fail.

    ``source.sample_grid(grid)`` returns the whole lattice as row-major
    (points, valid) and masks its own failing points (a typed quadrature,
    evaluation or Newton failure, or a point outside ``domain_ok``); one
    finiteness mask over the whole array then applies to every source.
    Masked points are stored as zeros.
    """
    points, valid = source.sample_grid(grid)
    patch = SurfacePatch(grid.nu, grid.nv, points, valid)
    patch.valid &= np.isfinite(patch.points).all(axis=1)
    patch.points[~patch.valid] = 0.0
    if patch.valid_count() == 0:
        raise EmptyGrid("no valid points in sampled patch")
    return patch


def _fmt17(values: np.ndarray) -> np.ndarray:
    """``'%.17g'`` text of every value, as an object array of ``values``' shape.

    Each distinct binary64 bit pattern is formatted once (``-0.0`` and ``0.0``
    stay distinct) and the strings are gathered back: lattice coordinates
    repeat along rows and columns.  ``'%.17g' % x`` is ``format(x, '.17g')``.
    """
    values = np.ascontiguousarray(values, dtype=float)
    _, first, inverse = np.unique(values.reshape(-1).view(np.int64), return_index=True,
                                  return_inverse=True)
    distinct = values.reshape(-1)[first].tolist()
    text = ("%.17g\n" * len(distinct) % tuple(distinct)).split("\n")
    return np.array(text, dtype=object)[inverse].reshape(values.shape)


def _point_text(patch: SurfacePatch) -> np.ndarray:
    """``_fmt17(patch.points)``, formatted once for a pair of exports.

    A patch is usually written as both OBJ and CSV.  The text an export
    formats is kept on the patch for the next export, which takes it if the
    points are still bitwise the same; taking it releases it, so no text
    outlives the pair.
    """
    key = patch.points.tobytes()
    if patch._text is not None and patch._text[0] == key:
        text = patch._text[1]
        patch._text = None
        return text
    text = _fmt17(patch.points)
    patch._text = (key, text)
    return text


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temp file with LF endings, then rename it over ``path``;
    a failed write or rename removes the temp file and leaves ``path`` as it was."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# Corners (i, j), (i+1, j), (i+1, j+1), (i, j+1) of every lattice quad, as
# slices of the (nu, nv) lattice.
_QUAD_CORNERS = ((slice(None, -1), slice(None, -1)), (slice(1, None), slice(None, -1)),
                 (slice(1, None), slice(1, None)), (slice(None, -1), slice(1, None)))


def write_obj(patch: SurfacePatch, path: str) -> None:
    """ASCII OBJ: one ``v`` line per valid vertex (row-major), quad faces only
    when all four corners are valid.  Byte-deterministic."""
    if patch.valid_count() == 0:
        raise EmptyGrid("cannot export an all-invalid patch")
    valid = patch.valid.reshape(patch.nu, patch.nv)
    number = np.cumsum(patch.valid).reshape(patch.nu, patch.nv)  # 1-based at valid points
    quad = np.logical_and.reduce([valid[c] for c in _QUAD_CORNERS])
    faces = np.stack([number[c][quad] for c in _QUAD_CORNERS], axis=1)
    vertex_text = _point_text(patch)[patch.valid].reshape(-1).tolist()
    atomic_write(path, ("v %s %s %s\n" * patch.valid_count()) % tuple(vertex_text)
                 + ("f %d %d %d %d\n" * len(faces)) % tuple(faces.reshape(-1).tolist()))


_CSV_HEADER = ["u_index", "v_index", "x", "y", "z", "valid"]
# read_csv's np.loadtxt arguments: a negative index does not parse as u8; the flag stays text.
_CSV_LOADTXT = dict(dtype=[("index", "u8", 2), ("point", "f8", 3), ("flag", "O")],
                    delimiter=",", comments=None, ndmin=1)


def write_csv(patch: SurfacePatch, path: str) -> None:
    """CSV schema: ``u_index,v_index,x,y,z,valid`` with one row per lattice point."""
    n = patch.nu * patch.nv
    cells = np.empty((n, 6), dtype=object)
    cells[:, 0], cells[:, 1] = np.divmod(np.arange(n), patch.nv)
    cells[:, 2:5] = _point_text(patch)
    cells[:, 5] = patch.valid
    atomic_write(path, ",".join(_CSV_HEADER) + "\n"
                 + ("%d,%d,%s,%s,%s,%d\n" * n) % tuple(cells.reshape(-1).tolist()))


def read_csv(path: str) -> SurfacePatch:
    """Inverse of write_csv (one ``np.loadtxt`` pass; 17-digit decimals are exact).

    Blank lines are skipped, rows may come in any order, missing points stay
    invalid zeros and only the flag ``1`` is valid; a file without rows or a
    row without six parsable fields is a ValueError naming the row."""
    with open(path) as fh:
        lines = list(map(str.strip, filter(str.strip, fh.read().split("\n"))))
    header = lines[0].split(",") if lines else []
    if header != _CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}: {header}")
    if len(lines) == 1:
        raise ValueError(f"no CSV rows in {path}")
    with warnings.catch_warnings():
        # Older numpy reads a failed integer field as a float and only warns (-1 wraps).
        warnings.simplefilter("error", DeprecationWarning)
        try:
            rows = np.loadtxt(lines[1:], **_CSV_LOADTXT)
        except ValueError as exc:
            for k in range(1, len(lines)):  # loadtxt counts rows from 0 or 1 by kind of error
                try:
                    np.loadtxt(lines[k:k + 1], **_CSV_LOADTXT)
                except ValueError:
                    raise ValueError(f"bad CSV row in {path}, row {k}: {lines[k]!r}") from exc
            raise
    iu, iv = rows["index"].T
    nu, nv = int(iu.max()) + 1, int(iv.max()) + 1
    points = np.zeros((nu * nv, 3))
    valid = np.zeros(nu * nv, dtype=bool)
    k = iu * nv + iv
    points[k] = rows["point"]
    valid[k] = rows["flag"] == "1"
    return SurfacePatch(nu, nv, points, valid)
