"""Reproducing-kernel integral transforms and a steady-state heat
workbench on the unit disk.

Modules:

* :mod:`harmonicdisk.kernels` -- closed-form kernel evaluation
* :mod:`harmonicdisk.quadrature` -- adaptive polar quadrature
* :mod:`harmonicdisk.sources` -- declarative integrands and the figure catalog
* :mod:`harmonicdisk.transforms` -- the integral operators
* :mod:`harmonicdisk.verify` -- norms, harmonicity checks, invariant suite
* :mod:`harmonicdisk.heatlab` -- finite-volume heat solver and comparison harness
* :mod:`harmonicdisk.cli` -- command-line surface
"""

from .errors import (
    DomainError,
    HarmonicDiskError,
    IncompatibleKindError,
    InvalidExponentError,
    InvalidRegionError,
    NonConvergenceError,
    NonFiniteError,
    SourceParseError,
    SourceValidationError,
    StencilOutOfRangeError,
    UnknownFigureError,
)
from .geometry import EvaluationGrid, PolarRectangle
from .kernels import (
    analytic_bergman_kernel,
    poisson_kernel,
    q_kernel,
)
from .quadrature import (
    QuadratureResult,
    QuadratureSpec,
    integrate_angular,
    integrate_polar,
)
from .sources import (
    BoundaryFunction,
    FigureCase,
    SourceFunction,
    figure_case,
    parse_source_config,
    serialize_config,
)
from .transforms import (
    Field,
    analytic_rep,
    bergman_project,
    harmonic_rep,
    poisson_integral,
    q_transform,
)
from .verify import (
    HarmonicityReport,
    NormSpec,
    SuiteConfig,
    laplacian_residual,
    norm,
    run_invariant_suite,
)
from .heatlab import (
    BoundaryCondition,
    ConjectureReport,
    HeatProblem,
    solve_steady_state,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition",
    "BoundaryFunction",
    "ConjectureReport",
    "DomainError",
    "EvaluationGrid",
    "Field",
    "FigureCase",
    "HarmonicDiskError",
    "HarmonicityReport",
    "HeatProblem",
    "IncompatibleKindError",
    "InvalidExponentError",
    "InvalidRegionError",
    "NonConvergenceError",
    "NonFiniteError",
    "NormSpec",
    "PolarRectangle",
    "QuadratureResult",
    "QuadratureSpec",
    "SourceFunction",
    "SourceParseError",
    "SourceValidationError",
    "StencilOutOfRangeError",
    "SuiteConfig",
    "UnknownFigureError",
    "analytic_bergman_kernel",
    "analytic_rep",
    "bergman_project",
    "figure_case",
    "harmonic_rep",
    "integrate_angular",
    "integrate_polar",
    "laplacian_residual",
    "norm",
    "parse_source_config",
    "poisson_integral",
    "poisson_kernel",
    "q_kernel",
    "q_transform",
    "run_invariant_suite",
    "serialize_config",
    "solve_steady_state",
]
