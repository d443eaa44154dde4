"""Exception types shared by more than one module."""


class DomainViolation(ValueError):
    """A point (or a whole grid) falls outside a surface/identity domain.

    ``points`` carries up to a handful of offending points for diagnostics.
    """

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = list(points) if points is not None else []


class EmptyGrid(ValueError):
    """A sweep produced no usable points (all invalid, or no lattice)."""


class SingularPath(ArithmeticError):
    """An integrand blew up (pole/branch point/overflow) at a quadrature node,
    or a segment or its integral is not finite."""


class NoConvergence(ArithmeticError):
    """Composite quadrature did not settle within the segment cap."""
