"""Coupled membrane-height / linker-protein simulations on the unit square.

The package discretizes a fourth-order membrane equation coupled to a
reaction-diffusion pair of linker densities, provides stationary solvers,
the no-diffusion energy machinery with its sharp-switch limit, and a
finite-difference verifier for sphere shape-derivative formulas.
"""

__version__ = "0.1.0"

from .grid import Grid, SparseMatrix, assemble_laplacian, build_grid, integrate
from .linalg import (
    LinearSolveError,
    NewtonError,
    SolveOptions,
    cg_solve,
    gmres_solve,
    newton_armijo,
)
from .model import (
    MICROGRAM,
    PASCAL,
    ModelParams,
    PressureField,
    disruption_initial,
    g_theta,
    pressure_pulse,
    ripping_rate,
)
from .dynamics import Diagnostics, Scheme, State, march, simulate, step
from .stationary import (
    StationaryResult,
    stationary_by_marching,
    stationary_fixed_point,
    weighted_density_residual,
)
from .energy import (
    EnergyReport,
    eval_J_theta,
    euler_lagrange_residual_J0,
    minimize_J,
)
from .geometry import PerturbedSphere, formula_value, second_derivative_fd, surface_functional
from .config import ConfigError, ScenarioConfig, parse_config

__all__ = [
    "Grid",
    "SparseMatrix",
    "build_grid",
    "assemble_laplacian",
    "integrate",
    "SolveOptions",
    "LinearSolveError",
    "NewtonError",
    "cg_solve",
    "gmres_solve",
    "newton_armijo",
    "ModelParams",
    "PressureField",
    "PASCAL",
    "MICROGRAM",
    "ripping_rate",
    "g_theta",
    "pressure_pulse",
    "disruption_initial",
    "State",
    "Diagnostics",
    "Scheme",
    "step",
    "march",
    "simulate",
    "StationaryResult",
    "stationary_fixed_point",
    "stationary_by_marching",
    "weighted_density_residual",
    "EnergyReport",
    "eval_J_theta",
    "minimize_J",
    "euler_lagrange_residual_J0",
    "PerturbedSphere",
    "surface_functional",
    "second_derivative_fd",
    "formula_value",
    "ScenarioConfig",
    "ConfigError",
    "parse_config",
]
