"""Machine-readable verification reports (JSON schema version 1)."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyGrid
from .meshio import atomic_write

SCHEMA_VERSION = 1


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "to_dict"):
        return _jsonable(value.to_dict())
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return value


class BroadcastRows:
    """Rows of the table whose columns are ``columns`` broadcast to one shape
    and flattened row-major, without building the table.

    ``rows[k]`` is the tuple of Python scalars at flat index k, so a sweep
    over lattice axes passes ``BroadcastRows(u, v)`` as the coordinates of
    ``reduce_errors`` or of a ``DomainViolation`` and only the rows it names
    are looked up; nothing is broadcast before a lookup.
    """

    __slots__ = ("_columns",)

    def __init__(self, *columns):
        self._columns = columns

    def __getitem__(self, k) -> tuple:
        shape = np.broadcast_shapes(*map(np.shape, self._columns))
        index = np.unravel_index(k, shape)
        return tuple(np.broadcast_to(c, shape)[index].item() for c in self._columns)


def reduce_errors(err, rows, lhs, rhs=0.0) -> dict:
    """The report fields of the pointwise errors ``err``: their count, max,
    mean and worst point.

    ``rows[i]`` are the coordinates of entry i of ``err`` flattened row-major,
    and ``lhs`` and ``rhs`` broadcast against ``err``.  The worst point is the
    first maximal error, and a NaN error counts as maximal (the first NaN is
    the worst point), so a report built from a NaN max fails.  The mean is the
    left-to-right float sum (``np.cumsum``) divided by the count.  No errors
    give count 0, max and mean 0.0 and no worst point.
    """
    err = np.asarray(err, dtype=float)
    flat = err.reshape(-1)
    if flat.size == 0:
        return {"points_checked": 0, "max_abs_err": 0.0, "mean_abs_err": 0.0,
                "worst_point": None}
    nans = np.isnan(flat)
    i = int(nans.argmax() if nans.any() else flat.argmax())
    row = rows[i]
    return {"points_checked": flat.size, "max_abs_err": float(flat[i]),
            "mean_abs_err": float(np.cumsum(flat)[-1]) / flat.size,
            "worst_point": {
                "coords": row.tolist() if isinstance(row, np.ndarray) else list(row),
                "lhs": np.broadcast_to(lhs, err.shape).flat[i].item(),
                "rhs": np.broadcast_to(rhs, err.shape).flat[i].item()}}


@dataclass
class VerificationReport:
    """Outcome of one identity / residual / foliation sweep.

    Invariants: ``passed`` is exactly ``max_abs_err <= tolerance``, and at
    least one point was checked (EmptyGrid otherwise).
    """

    subject: str
    parameters: dict
    grid: Optional[object]  # GridSpec or None (probe lists)
    points_checked: int
    max_abs_err: float
    mean_abs_err: float
    worst_point: Optional[dict]
    policy: str
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.points_checked == 0:
            raise EmptyGrid(f"{self.subject}: no points checked")
        self.passed = bool(self.max_abs_err <= self.tolerance)

    @classmethod
    def of(cls, err, rows, lhs, rhs=0.0, **fields) -> "VerificationReport":
        """The report of the errors ``err`` at ``rows`` (see ``reduce_errors``)."""
        return cls(**reduce_errors(err, rows, lhs, rhs), **fields)

    def to_dict(self, include_timestamp: bool = True) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "subject": self.subject,
            "parameters": _jsonable(self.parameters),
            "grid": _jsonable(self.grid) if self.grid is not None else None,
            "points_checked": int(self.points_checked),
            "max_abs_err": float(self.max_abs_err),
            "mean_abs_err": float(self.mean_abs_err),
            "worst_point": _jsonable(self.worst_point) if self.worst_point else None,
            "policy": self.policy,
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }
        if include_timestamp:
            out["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        return out

    def to_json(self, include_timestamp: bool = True) -> str:
        return json.dumps(self.to_dict(include_timestamp), indent=2, sort_keys=True) + "\n"

    def write(self, path: str) -> None:
        """Atomic write (temp file + rename), LF endings, deterministic key order."""
        atomic_write(path, self.to_json())
