"""Steklov eigenvalue asymptotics for nearly circular area-normalized domains.

Core pieces: finite Fourier series (`series`), perturbed domain geometry
(`geometry`), the boundary integral constants (`integrals`), the eigenvalue
correction engine (`expansion`), and a direct spectral Steklov eigensolver
used as its numerical cross-check (`solver`).
"""

from .errors import (
    FirstOrderSplit,
    IllConditioned,
    InsufficientGrid,
    InvalidMode,
    NonStarShaped,
    SteklovError,
)
from .expansion import (
    PerturbationReport,
    TwoByTwoSym,
    closed_form_lambda2_special,
    expand,
    first_order_coefficients,
    lambda0,
    lambda1,
    lambda2,
    matrix_first_order,
    matrix_second_order,
    special_rho,
)
from .geometry import area_quadrature
from .integrals import coupled_constants, single_constants
from .series import FourierSeries
from .solver import (
    EigencurveSet,
    SolverConfig,
    assemble,
    fit_derivatives,
    solve,
    steklov_eigenvalues,
    sweep,
    symmetric_grid,
)

__version__ = "0.1.0"

__all__ = [
    "EigencurveSet",
    "FirstOrderSplit",
    "FourierSeries",
    "IllConditioned",
    "InsufficientGrid",
    "InvalidMode",
    "NonStarShaped",
    "PerturbationReport",
    "SolverConfig",
    "SteklovError",
    "TwoByTwoSym",
    "area_quadrature",
    "assemble",
    "closed_form_lambda2_special",
    "coupled_constants",
    "expand",
    "first_order_coefficients",
    "fit_derivatives",
    "lambda0",
    "lambda1",
    "lambda2",
    "matrix_first_order",
    "matrix_second_order",
    "single_constants",
    "solve",
    "special_rho",
    "steklov_eigenvalues",
    "sweep",
    "symmetric_grid",
]
