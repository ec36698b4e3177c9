"""Coupled membrane-height / linker-protein simulations on the unit square.

The package discretizes a fourth-order membrane equation coupled to a
reaction-diffusion pair of linker densities, provides stationary solvers,
the no-diffusion energy machinery with its sharp-switch limit, and a
finite-difference verifier for sphere shape-derivative formulas.  Import
from the modules, e.g. ``from blebsheet.stationary import stationary_fixed_point``.
"""

__version__ = "0.1.0"
