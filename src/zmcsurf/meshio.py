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
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import EmptyGrid

# Lattice points (or faces) formatted, joined and written per block of text:
# enough to amortize the per-block calls, small against a patch's point text.
_BLOCK = 2048

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

    @cached_property
    def _values(self):
        """The read-only u and v coordinates, computed on first use.  They live
        in the instance dict, outside the fields that equality, hash, repr and
        ``replace`` see, and ``__getstate__`` keeps them out of a pickle."""
        # linspace forms the last point as (n - 1) * step, which can overflow
        # when the width is near the largest double, and then sets it to the
        # finite upper bound; every other point is below that bound.
        with np.errstate(over="ignore"):
            u = np.linspace(self.u_min, self.u_max, self.nu)
            v = np.linspace(self.v_min, self.v_max, self.nv)
        u.flags.writeable = v.flags.writeable = False
        return u, v

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    __getstate__ = to_dict

    def u_values(self) -> np.ndarray:
        return self._values[0]

    def v_values(self) -> np.ndarray:
        return self._values[1]

    def lattice(self):
        """Row-major (u, v) coordinate arrays of the nu*nv lattice points, as
        fresh writable arrays."""
        u, v = self._values
        return np.repeat(u, self.nv), np.tile(v, self.nu)

    def axes(self):
        """The lattice as broadcast axes: u as a (nu, 1) column, v as a (1, nv)
        row, read-only views of the coordinates.  Elementwise formulas give the
        bits of ``lattice()`` in shape (nu, nv), and work that depends on one
        coordinate runs once per line."""
        u, v = self._values
        return u[:, None], v[None, :]

    def points(self):
        """Row-major lattice iterator: ((i, j), (u, v))."""
        vs = self.v_values().tolist()
        for i, u in enumerate(self.u_values().tolist()):
            for j, v in enumerate(vs):
                yield (i, j), (u, v)

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
    # (a copy of the points' bits, their 17-digit text) left by the last export for the next.
    _text: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(self.nu * self.nv, 3)
        self.valid = np.asarray(self.valid, dtype=bool).reshape(self.nu * self.nv)

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

    The distinct binary64 bit patterns come from one unstable ``np.unique``
    sort of the bits (``-0.0`` and ``0.0``, and nans with different payloads,
    stay distinct); each is formatted once, ``_BLOCK`` at a time by one ``%``
    over a repeated template into a preallocated object array, and the strings
    are gathered back by the inverse index: lattice coordinates repeat along
    rows and columns.  ``'%.17g' % x`` is ``format(x, '.17g')``.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.reshape(-1).view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    text = np.empty(len(distinct), dtype=object)
    for start in range(0, len(distinct), _BLOCK):
        block = distinct[start:start + _BLOCK].tolist()
        text[start:start + len(block)] = ("%.17g\n" * len(block) % tuple(block)).split("\n")[:-1]
    return text[inverse].reshape(values.shape)


def _point_text(patch: SurfacePatch) -> np.ndarray:
    """``_fmt17(patch.points)``, formatted once for a pair of exports.

    A patch is usually written as both OBJ and CSV.  The text an export
    formats is kept on the patch for the next export, which takes it if the
    points are still bitwise the same; taking it releases it, so no text
    outlives the pair.
    """
    bits = np.ascontiguousarray(patch.points).view(np.int64)
    if patch._text is not None and np.array_equal(patch._text[0], bits):
        text = patch._text[1]
        patch._text = None
        return text
    text = _fmt17(patch.points)
    patch._text = (bits.copy(), text)
    return text


def atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, one str or an iterable of str parts written in turn, as
    UTF-8, its newlines untranslated, to a temp file, then rename it over
    ``path``.  A part that is not a str, an iterable that raises, a failed
    write or a failed rename removes the temp file and leaves ``path`` as it
    was."""
    parts = (text,) if isinstance(text, str) else iter(text)  # a non-iterable fails here
    tmp = f"{path}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        try:
            for part in parts:
                data = memoryview(str.encode(part))
                while data:
                    data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# Corners (i, j), (i+1, j), (i+1, j+1), (i, j+1) of every lattice quad, as
# slices of the (nu, nv) lattice.
_QUAD_CORNERS = ((slice(None, -1), slice(None, -1)), (slice(1, None), slice(None, -1)),
                 (slice(1, None), slice(1, None)), (slice(None, -1), slice(1, None)))


def _block_rows(patch: SurfacePatch) -> int:
    """Lattice rows per block of text: at most ``_BLOCK`` lattice points, or
    one row when a row is longer."""
    return max(1, _BLOCK // patch.nv)


def _obj_parts(patch: SurfacePatch):
    """The OBJ text in parts: the ``v`` lines, then the ``f`` lines, of one
    block of lattice rows each."""
    nu, nv = patch.nu, patch.nv
    text, valid = _point_text(patch).reshape(nu, nv, 3), patch.valid.reshape(nu, nv)
    step = _block_rows(patch)
    for i in range(0, nu, step):
        vertices = text[i:i + step][valid[i:i + step]]
        yield ("v %s %s %s\n" * len(vertices)) % tuple(vertices.reshape(-1).tolist())
    number = np.cumsum(patch.valid).reshape(nu, nv)  # 1-based at valid points
    for i in range(0, nu - 1, step):  # quads i..i+step-1 have corners in rows i..i+step
        rows = slice(i, i + step + 1)
        quad = np.logical_and.reduce([valid[rows][c] for c in _QUAD_CORNERS])
        faces = np.stack([number[rows][c][quad] for c in _QUAD_CORNERS], axis=1)
        yield ("f %d %d %d %d\n" * len(faces)) % tuple(faces.reshape(-1).tolist())


def write_obj(patch: SurfacePatch, path: str) -> None:
    """ASCII OBJ: one ``v`` line per valid vertex (row-major), quad faces only
    when all four corners are valid.  Byte-deterministic; written one block of
    lattice rows at a time (``_obj_parts``), so no whole-patch line text is
    built."""
    if patch.valid_count() == 0:
        raise EmptyGrid("cannot export an all-invalid patch")
    atomic_write(path, _obj_parts(patch))


_CSV_HEADER = ["u_index", "v_index", "x", "y", "z", "valid"]
# read_csv's np.loadtxt arguments: a negative index does not parse as u8; the flag stays text.
_CSV_LOADTXT = dict(dtype=[("index", "u8", 2), ("point", "f8", 3), ("flag", "O")],
                    delimiter=",", comments=None, ndmin=1)


def _numbered(n: int) -> np.ndarray:
    """The strings ``"0,"`` to ``f"{n - 1},"`` as an object array."""
    return np.array([f"{i}," for i in range(n)], dtype=object)


def _csv_cells(u_index: np.ndarray, v_index: np.ndarray, text: np.ndarray,
               valid: np.ndarray) -> list:
    """The CSV text of a block of lattice rows cut into its strings, as one
    flat list: each row is its ``u_index`` and ``v_index`` strings, x,
    ``","``, y, ``","``, z and ``",1\n"`` or ``",0\n"``, with x, y and z
    from ``text`` (the block's point text, shape (rows, nv, 3)) and the flag
    from ``valid`` (shape (rows, nv)).  Every cell of a column refers to one
    of a few shared strings, so no row formats an integer or builds a
    string."""
    cells = np.empty((*valid.shape, 8), dtype=object)
    cells[..., 0] = u_index[:, None]
    cells[..., 1] = v_index
    cells[..., 2::2] = text
    cells[..., 3:6:2] = ","
    flag = cells[..., 7]
    flag[...] = ",0\n"
    flag[valid] = ",1\n"
    return cells.reshape(-1).tolist()


def _csv_parts(patch: SurfacePatch):
    """The CSV text in parts: the header line, then one ``"".join`` of
    ``_csv_cells`` per block of lattice rows."""
    nu, nv = patch.nu, patch.nv
    yield ",".join(_CSV_HEADER) + "\n"
    text, valid = _point_text(patch).reshape(nu, nv, 3), patch.valid.reshape(nu, nv)
    u_index, v_index = _numbered(nu), _numbered(nv)
    step = _block_rows(patch)
    for i in range(0, nu, step):
        rows = slice(i, i + step)
        yield "".join(_csv_cells(u_index[rows], v_index, text[rows], valid[rows]))


def write_csv(patch: SurfacePatch, path: str) -> None:
    """CSV schema: ``u_index,v_index,x,y,z,valid`` with one row per lattice point.

    Written one block of lattice rows at a time (``_csv_parts``): a block's
    cell table, list and text are freed before the next is built."""
    atomic_write(path, _csv_parts(patch))


def read_csv(path: str) -> SurfacePatch:
    """Inverse of write_csv (one ``np.loadtxt`` pass; 17-digit decimals are exact).

    Blank lines are skipped, rows may come in any order, missing points stay
    invalid zeros and only the flag ``1`` is valid; a file without rows or a
    row without six parsable fields is a ValueError naming the row.  Every u
    index 0..nu-1 and v index 0..nv-1 must occur in some row, or a ValueError
    names the row with the largest index before the lattice is allocated."""
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
    for name, index, n in (("u_index", iu, nu), ("v_index", iv, nv)):
        # More indices than rows leave one out; else bincount counts n <= rows indices.
        if n > len(rows) or not np.bincount(index.astype(np.intp)).all():
            k = int(index.argmax()) + 1
            raise ValueError(f"bad CSV lattice in {path}, row {k}: {lines[k]!r}: "
                             f"some {name} below {n - 1} occurs in no row")
    points = np.zeros((nu * nv, 3))
    valid = np.zeros(nu * nv, dtype=bool)
    k = iu * nv + iv
    points[k] = rows["point"]
    valid[k] = rows["flag"] == "1"
    return SurfacePatch(nu, nv, points, valid)
