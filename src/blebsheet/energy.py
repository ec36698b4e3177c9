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

from dataclasses import dataclass

import numpy as np

from .dynamics import HeightOperator, Operators
from .grid import Grid
from .linalg import ARMIJO_C1, BACKTRACK_FACTOR, SolveError, SolveOptions, cg_solve
from .model import PASCAL, ModelParams, g_theta, g_theta_prime


@dataclass
class EnergyReport:
    theta: float
    energy: float
    gradient_sup_norm: float
    minimizer: np.ndarray
    iterations: int


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
    """Weighted gradient on interior nodes."""
    membrane = HeightOperator(ops, params, params.lam, _spring(theta, rho0, params, grid, h_int))
    load = PASCAL * grid.restrict(pressure)
    return grid.spacing**2 * (membrane @ h_int - load)


def _hessian(theta, rho0, params, grid, ops, h_int) -> HeightOperator:
    """Membrane operator with spring ``g + h g'``: the Hessian over ``spacing^2``."""
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
    energy_history: list | None = None,
) -> EnergyReport:
    """Newton on the discrete gradient with Armijo control on J; ``pressure`` in Pa per node.

    Newton starts from ``h = 0``; a negative ``theta`` raises ValueError.
    ``theta = 0`` runs the semismooth variant: the Heaviside factor of the
    gradient and Hessian is the current iterate's active set (``h <
    h_star``).  Each Newton direction solves the unweighted Hessian system
    by CG with the height operator's preconditioner.  Convergence is
    declared once the gradient's sup norm is at most ``max(newton_grad_tol,
    16 eps ||M|| sup|h|)``, the grid's roundoff floor where that is larger:
    ``M`` maps ``h`` to the gradient, and ``||M||``, ``spacing^2`` times
    :meth:`Operators.membrane_norm` with the spring bound ``rho0``, bounds
    its sup norm, so the floor grows about fourfold per halving of the
    spacing.  At the iteration cap, on a direction that does not descend,
    or when the line search fails, it raises :class:`SolveError` with the
    last iterate (on the full grid) and its gradient sup norm.
    """
    if ops is None:
        ops = Operators(grid)
    h_int = np.zeros(grid.num_interior)
    # the spring never exceeds rho0, which bounds max|diag|
    floor_scale = (16.0 * np.finfo(float).eps * grid.spacing**2
                   * ops.membrane_norm(params, rho0))

    def energy_at(hi):
        return eval_J_theta(grid.embed(hi), theta, rho0, params, pressure, grid, ops)

    energy = energy_at(h_int)
    if energy_history is not None:
        energy_history.append(energy)
    iterations = 0
    for iterations in range(opts.newton_max_iter + 1):
        grad = _gradient(theta, rho0, params, pressure, grid, ops, h_int)
        sup_grad = float(np.max(np.abs(grad)))
        floor = floor_scale * np.max(np.abs(h_int))
        if sup_grad <= max(opts.newton_grad_tol, floor):
            break
        if iterations == opts.newton_max_iter:
            raise SolveError(
                f"minimize_J: no convergence in {opts.newton_max_iter} Newton "
                f"iterations (gradient sup {sup_grad:.3e}, roundoff floor {floor:.3e})",
                grid.embed(h_int),
                sup_grad,
            )
        H = _hessian(theta, rho0, params, grid, ops, h_int)
        direction = cg_solve(H, -grad / grid.spacing**2, opts, precond=H.precond)
        slope = float(grad @ direction)
        if not slope < 0.0:
            raise SolveError(f"minimize_J: Hessian solve gave no descent direction "
                             f"(slope {slope:.3e})", grid.embed(h_int), sup_grad)
        # once the predicted decrease sinks below the roundoff floor of the
        # energy, the Armijo test cannot resolve it; take the pure Newton step
        resolved = -slope > 1e3 * np.finfo(float).eps * max(1.0, abs(energy))
        alpha = 1.0
        trial = h_int + direction
        energy_trial = energy_at(trial)
        while resolved and energy_trial > energy + ARMIJO_C1 * alpha * slope:
            alpha *= BACKTRACK_FACTOR
            if alpha < 1e-14:
                raise SolveError("minimize_J: line search failed", grid.embed(h_int), sup_grad)
            trial = h_int + alpha * direction
            energy_trial = energy_at(trial)
        h_int, energy = trial, energy_trial
        if energy_history is not None:
            energy_history.append(energy)

    return EnergyReport(
        theta=theta,
        energy=energy,
        gradient_sup_norm=sup_grad,
        minimizer=grid.embed(h_int),
        iterations=iterations,
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
    on interior nodes (``p0`` the ``pressure``, Pa per node), zero on the boundary:
    the ``theta = 0`` gradient over the node weight ``spacing^2``.
    """
    if ops is None:
        ops = Operators(grid)
    grad = _gradient(0.0, rho0, params, pressure, grid, ops, grid.restrict(h))
    return grid.embed(grad / grid.spacing**2)


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
