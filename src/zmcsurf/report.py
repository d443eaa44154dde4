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
    ``ErrorStats.add_many`` or of a ``DomainViolation`` and only the rows it
    names are looked up; nothing is broadcast before a lookup.  ``shape``
    widens the columns further (one row per leaf of each point, say).
    """

    __slots__ = ("_columns", "_shape")

    def __init__(self, *columns, shape=()):
        self._columns, self._shape = columns, shape

    def __getitem__(self, k) -> tuple:
        shape = np.broadcast_shapes(self._shape, *map(np.shape, self._columns))
        index = np.unravel_index(k, shape)
        return tuple(np.broadcast_to(c, shape)[index].item() for c in self._columns)


class ErrorStats:
    """Streaming max / mean / worst point of pointwise errors.

    The worst point is the first maximal error in ``add`` order, and a NaN
    error counts as maximal (the first NaN stays the worst point), so a
    report built from a NaN ``max`` fails.  ``mean`` is the left-to-right
    float sum divided by ``count``; it is 0.0 before the first ``add``.
    """

    __slots__ = ("count", "max", "worst", "_total")

    def __init__(self):
        self.count = 0
        self.max = 0.0
        self.worst = None
        self._total = 0.0

    def add(self, err, coords, lhs, rhs=0.0) -> None:
        self.count += 1
        self._total += err
        if err > self.max or self.worst is None or (err != err and self.max == self.max):
            self.max = err
            self.worst = {"coords": list(coords), "lhs": lhs, "rhs": rhs}

    def add_many(self, err, coords, lhs, rhs=0.0) -> None:
        """``add`` for every entry of the 1-d array ``err`` in order.

        ``coords[i]`` are the coordinates of entry i; ``lhs`` and ``rhs``
        broadcast against ``err``.  The running sum is ``np.cumsum``, which
        adds left to right as ``add`` does, so the mean is the same bits.
        """
        err = np.asarray(err, dtype=float).reshape(-1)
        if err.size == 0:
            return
        self.count += err.size
        self._total = float(np.cumsum(np.concatenate(([self._total], err)))[-1])
        nans = np.isnan(err)
        if nans.any():
            if self.max != self.max:
                return
            i = int(nans.argmax())
        else:
            i = int(err.argmax())
            if self.worst is not None and not err[i] > self.max:
                return
        row = coords[i]
        self.max = float(err[i])
        self.worst = {"coords": row.tolist() if isinstance(row, np.ndarray) else list(row),
                      "lhs": np.broadcast_to(lhs, err.shape)[i].item(),
                      "rhs": np.broadcast_to(rhs, err.shape)[i].item()}

    @property
    def mean(self) -> float:
        return self._total / self.count if self.count else 0.0


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
    def of(cls, stats: ErrorStats, **fields) -> "VerificationReport":
        """The report of the errors in ``stats``: their count, max, mean and worst point."""
        return cls(points_checked=stats.count, max_abs_err=stats.max, mean_abs_err=stats.mean,
                   worst_point=stats.worst, **fields)

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
