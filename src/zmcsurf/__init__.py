"""zmcsurf: zero-mean-curvature surfaces, their finite decompositions, and checks.

Modules:
    expr       complex-analytic expression ASTs (parse/eval/differentiate)
    catalog    closed-form surfaces, decomposition identities, series oracles
    zmc        graph jets, one graph ZMC residual in three metrics, parametric check
    reps       integral representations (minimal/maximal/timelike/Born-Infeld)
    foliation  shifted-helicoid leaves of 3-space minus lines
    meshio     structured patches, deterministic OBJ/CSV export
    cli        command-line interface with JSON reports
"""

__version__ = "0.1.0"

from .errors import DomainViolation, EmptyGrid
from .meshio import GridSpec, SurfacePatch
from .report import VerificationReport

__all__ = [
    "DomainViolation",
    "EmptyGrid",
    "GridSpec",
    "SurfacePatch",
    "VerificationReport",
    "__version__",
]
