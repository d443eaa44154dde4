"""Machine-readable verification reports (JSON schema version 1)."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .errors import EmptyGrid
from .meshio import atomic_write

SCHEMA_VERSION = 1


def _json_text(value, pad: str, out: list) -> None:
    """Append to ``out`` the text that ``json.dumps(indent=2, sort_keys=True)`` gives ``value``
    at indent ``pad``, a complex value written as ``{"im", "re"}``, an object with ``to_dict``
    as that dict, a numpy scalar as its ``item()`` and a key as ``str(key)``."""
    if (kind := type(value)) is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int or kind is float and value - value == 0.0:  # json names the other floats
        out.append(repr(value))
    elif isinstance(value, complex):
        _json_text({"re": value.real, "im": value.imag}, pad, out)
    elif isinstance(value, dict):
        named, sep = {str(k): v for k, v in value.items()}, "{\n" + pad + "  "
        for key in sorted(named):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_text(named[key], pad + "  ", out)
            sep = ",\n" + pad + "  "
        out.append("\n" + pad + "}" if named else "{}")
    elif isinstance(value, (list, tuple)):
        sep = "[\n" + pad + "  "
        for item in value:
            out.append(sep)
            _json_text(item, pad + "  ", out)
            sep = ",\n" + pad + "  "
        out.append("\n" + pad + "]" if value else "[]")
    elif hasattr(value, "to_dict") or hasattr(value, "item"):  # numpy scalars have item()
        _json_text(value.to_dict() if hasattr(value, "to_dict") else value.item(), pad, out)
    elif value is None or isinstance(value, (str, int, float)):  # bool and NaN included
        out.append(json.dumps(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


class BroadcastRows:
    """Rows of the table whose columns are ``columns`` broadcast to one shape
    and flattened row-major, without building the table.

    ``rows[k]`` is the tuple of Python scalars at flat index k, so a sweep
    over lattice axes passes ``BroadcastRows(u, v)`` as the coordinates of
    ``reduce_errors`` or of a ``DomainViolation`` and only the rows it names
    are looked up; each column is read at its own index, and nothing is broadcast.
    """

    __slots__ = ("_columns",)

    def __init__(self, *columns):
        self._columns = columns

    def __getitem__(self, k) -> tuple:
        columns = [np.asarray(c) for c in self._columns]
        index = np.unravel_index(k, np.broadcast(*columns).shape)
        return tuple(c.item(tuple(j % n for n, j in zip(c.shape, index[len(index) - c.ndim:])))
                     for c in columns)  # j % 1 == 0: a length-1 axis broadcasts


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
    i = int(flat.argmax())  # the first maximum, or the first NaN
    row = rows[i]
    # lhs and rhs at i, broadcasting only a side that is neither 0-d nor of err's shape
    lhs, rhs = (s.item() if s.ndim == 0 else s.item(i) if s.shape == err.shape
                else np.broadcast_to(s, err.shape).item(i) for s in map(np.asarray, (lhs, rhs)))
    return {"points_checked": flat.size, "max_abs_err": float(flat[i]),
            "mean_abs_err": float(np.cumsum(flat)[-1]) / flat.size,
            "worst_point": {"coords": row.tolist() if isinstance(row, np.ndarray) else list(row),
                            "lhs": lhs, "rhs": rhs}}


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
        return json.loads(self.to_json(include_timestamp))

    def to_json(self, include_timestamp: bool = True) -> str:
        fields = {"schema": SCHEMA_VERSION, "subject": self.subject,
                  "parameters": self.parameters, "grid": self.grid,
                  "points_checked": int(self.points_checked),
                  "max_abs_err": float(self.max_abs_err), "mean_abs_err": float(self.mean_abs_err),
                  "worst_point": self.worst_point or None, "policy": self.policy,
                  "tolerance": float(self.tolerance), "pass": self.passed}
        if include_timestamp:
            fields["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        out = []
        _json_text(fields, "", out)
        return "".join(out) + "\n"

    def write(self, path: str) -> None:
        """Atomic write (temp file + rename), LF endings, deterministic key order."""
        atomic_write(path, self.to_json())
