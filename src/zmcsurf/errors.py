"""Exception types shared by more than one module."""

import numpy as np


class DomainViolation(ValueError):
    """A point (or a whole grid) falls outside a surface/identity domain.

    ``points`` carries up to a handful of offending points for diagnostics.
    """

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = list(points) if points is not None else []


def reject(bad, rows, message):
    """Raise DomainViolation when the mask ``bad`` has a point: the count, then
    ``message``, naming the first 10 such points in row-major order by their
    ``rows`` (each as a tuple)."""
    k = np.flatnonzero(bad)
    if k.size:
        raise DomainViolation(f"{k.size} {message}", [tuple(rows[i]) for i in k[:10]])


class EmptyGrid(ValueError):
    """A sweep produced no usable points (all invalid, or no lattice)."""


class SingularPath(ArithmeticError):
    """An integrand blew up (pole/branch point/overflow) at a quadrature node,
    or a segment or its integral is not finite."""


class NoConvergence(ArithmeticError):
    """Composite quadrature did not settle within the segment cap."""
