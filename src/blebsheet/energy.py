"""No-diffusion energy machinery: the action functional, its sharp limit,
minimization, and the first-order residual of the limit model.

The functional evaluated here is

    J_theta(h) = 1/2 a(h, h) + int Phi_theta(h(x)) dx - int p0 h dx

with ``a`` the bending/tension/zeroth-order bilinear form and
``Phi_theta(H) = int_0^H s g_theta(s) ds``.  For the positive-part ripping
rate the inner integral has a closed form which is used everywhere (a
quadrature cross-check lives in the tests).  As ``theta`` vanishes the
density term converges to ``rho0/2 * min(h, h_star)^2``, the sharp-switch
functional ``J_0``; ``theta = 0`` is that limit throughout this module
(:func:`density_primitive`, :func:`eval_J_theta`, :func:`minimize_J`).  Its
first-order condition carries the Heaviside factor ``H(1 - h/h_star)`` with
``H(x) = 0`` for ``x <= 0``, so nodes at or above the critical height feel
no spring.

Fields passed in and out are full-grid arrays respecting the zero Dirichlet
boundary; all energies are discrete trapezoidal integrals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .dynamics import HeightOperator, Operators
from .grid import Grid
from .linalg import SolveError, SolveOptions, cg_solve, newton_armijo
from .model import PASCAL, ModelParams, g_theta, g_theta_prime


@dataclass
class EnergyReport:
    energy: float
    gradient_sup_norm: float
    minimizer: np.ndarray


def density_primitive(H, theta: float, rho0: float, params: ModelParams):
    """Closed form of ``int_0^H s g_theta(s) ds`` for the positive-part rate.

    Below the critical height the integrand is ``rho0 * s``; above it the
    substitution ``u = s - h_star`` integrates to a logarithm, which
    vanishes at ``theta = 0``: the sharp limit ``rho0/2 * min(H, h_star)^2``.
    A positive ``theta`` requires a positive ``k``, as :func:`g_theta` does.
    """
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    H = np.asarray(H, dtype=float)
    hs = params.h_star
    below = 0.5 * rho0 * np.minimum(H, hs)**2
    if theta == 0.0:
        return below
    if params.k <= 0.0:
        raise ValueError("density_primitive requires a positive reconnection rate k")
    ktheta = params.k * theta
    excess = np.maximum(H - hs, 0.0)
    above = params.k * rho0 * theta * (excess + (hs - ktheta) * np.log1p(excess / ktheta))
    return below + np.where(H > hs, above, 0.0)


def eval_J_theta(
    h: np.ndarray,
    theta: float,
    rho0: float,
    params: ModelParams,
    pressure: np.ndarray,
    grid: Grid,
    ops: Operators | None = None,
) -> float:
    """Discrete ``J_theta`` under ``pressure`` (Pa per node); ``theta = 0`` is ``J_0``."""
    if ops is None:
        ops = Operators(grid)
    h_int = grid.restrict(h)
    membrane = HeightOperator(ops, params, params.lam, np.zeros(grid.num_interior))
    quadratic = grid.spacing**2 * float(h_int @ (membrane @ h_int))  # a(h, h)
    density = float(grid.weights @ density_primitive(h, theta, rho0, params))
    load = PASCAL * float(grid.weights @ (pressure * h))
    return 0.5 * quadratic + density - load


def _spring(theta, rho0, params, grid, h_int, hessian=False):
    """Interior spring of the gradient, ``g``, or Hessian, ``g + h g'``.

    At ``theta = 0`` both are ``rho0 H(1 - h/h_star)``, switched off at and
    above the critical height.
    """
    if theta == 0.0:
        return rho0 * (h_int < params.h_star)
    p_theta = params.with_(theta=theta)
    h_full = grid.embed(h_int)
    spring = g_theta(h_full, rho0, p_theta)
    if hessian:
        spring = spring + h_full * g_theta_prime(h_full, rho0, p_theta)
    return grid.restrict(spring)


def _gradient(theta, rho0, params, pressure, grid, ops, h_int):
    """Strong-form gradient on interior nodes: ``dJ/dh`` over the node weight ``spacing^2``."""
    membrane = HeightOperator(ops, params, params.lam, _spring(theta, rho0, params, grid, h_int))
    return membrane @ h_int - PASCAL * grid.restrict(pressure)


def _hessian(theta, rho0, params, grid, ops, h_int) -> HeightOperator:
    """Membrane operator with spring ``g + h g'``: the Jacobian of :func:`_gradient`."""
    spring = _spring(theta, rho0, params, grid, h_int, hessian=True)
    return HeightOperator(ops, params, params.lam, spring)


def minimize_J(
    theta: float,
    rho0: float,
    params: ModelParams,
    pressure: np.ndarray,
    grid: Grid,
    opts: SolveOptions = SolveOptions(),
    ops: Operators | None = None,
) -> EnergyReport:
    """Damped Newton (:func:`newton_armijo`) on the discrete gradient; ``pressure`` in Pa per node.

    Newton starts from ``h = 0``; a negative ``theta`` raises ValueError.
    ``theta = 0`` runs the semismooth variant: the Heaviside factor of the
    gradient and Hessian is the current iterate's active set (``h <
    h_star``).  Newton runs on the strong-form gradient :func:`_gradient`,
    and each direction solves the Hessian system by CG with the height
    operator's preconditioner.  The line search lowers ``0.5
    ||gradient||^2``, and no step is checked to lower ``J``: where the
    Hessian spring ``g + h g'`` is negative, Newton could stop at a critical
    point that is no minimizer.  ``newton_grad_tol`` bounds the weighted
    gradient ``dJ/dh``, ``spacing^2`` times the strong form, and so does the
    reported ``gradient_sup_norm``.  Convergence is declared once the
    strong-form gradient's sup norm is at most ``max(newton_grad_tol /
    spacing^2, floor)``, with :meth:`Operators.roundoff_floor` for the
    spring bound ``rho0`` as the floor where that is larger; the floor grows
    about sixteenfold per halving of the spacing.  A failed Newton iteration
    or Hessian solve raises :class:`SolveError` with the last Newton iterate
    (on the full grid) and its strong-form gradient sup norm.
    """
    if ops is None:
        ops = Operators(grid)
    gradient = partial(_gradient, theta, rho0, params, pressure, grid, ops)
    try:
        h_int = newton_armijo(
            gradient,
            partial(_hessian, theta, rho0, params, grid, ops),
            np.zeros(grid.num_interior),
            replace(opts, newton_grad_tol=opts.newton_grad_tol / grid.spacing**2),
            linear_solve=lambda J, rhs: cg_solve(J, rhs, opts, precond=J.precond),
            # the spring never exceeds rho0
            floor=partial(ops.roundoff_floor, params, rho0),
        )
    except SolveError as exc:
        raise SolveError(str(exc), grid.embed(exc.iterate), exc.residual_norm) from exc
    minimizer = grid.embed(h_int)
    return EnergyReport(
        energy=eval_J_theta(minimizer, theta, rho0, params, pressure, grid, ops),
        gradient_sup_norm=grid.spacing**2 * float(np.max(np.abs(gradient(h_int)))),
        minimizer=minimizer,
    )


def euler_lagrange_residual_J0(
    h: np.ndarray,
    rho0: float,
    params: ModelParams,
    pressure: np.ndarray,
    grid: Grid,
    ops: Operators | None = None,
) -> np.ndarray:
    """Nodewise strong-form residual of the sharp-limit first-order system.

    ``kappa lap^2 h - gamma lap h + lam h + rho0 h H(1 - h/h_star) - p0``
    on interior nodes (``p0`` the ``pressure``, Pa per node), zero on the
    boundary: the ``theta = 0`` :func:`_gradient`.
    """
    if ops is None:
        ops = Operators(grid)
    return grid.embed(_gradient(0.0, rho0, params, pressure, grid, ops, grid.restrict(h)))


def gamma_ladder(
    thetas,
    rho0: float,
    params: ModelParams,
    pressure: np.ndarray,
    grid: Grid,
    h_test: np.ndarray,
    opts: SolveOptions = SolveOptions(),
) -> list[dict]:
    """Gap and minimizer-distance ladder used by the gamma-limit scenario.

    For each theta: evaluates both functionals at the fixed test field and
    minimizes J_theta under ``pressure`` (Pa per node); distances are
    measured against the theta = 0 minimizer.  Returns one row per theta.
    """
    ops = Operators(grid)
    report0 = minimize_J(0.0, rho0, params, pressure, grid, opts, ops)
    J_0 = eval_J_theta(h_test, 0.0, rho0, params, pressure, grid, ops)
    rows = []
    for theta in thetas:
        J_t = eval_J_theta(h_test, theta, rho0, params, pressure, grid, ops)
        report = minimize_J(theta, rho0, params, pressure, grid, opts, ops)
        rows.append(
            {
                "theta": theta,
                "J_theta": J_t,
                "J0": J_0,
                "gap": abs(J_t - J_0),
                "minimizer_distance": float(
                    np.max(np.abs(report.minimizer - report0.minimizer))
                ),
            }
        )
    return rows
