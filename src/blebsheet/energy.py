"""No-diffusion energy machinery: the action functional, its sharp limit,
minimization, and the first-order residual of the limit model.

The functional evaluated here is

    J_theta(h) = 1/2 a(h, h) + int Phi_theta(h(x)) dx - int p0 h dx

with ``a`` the bending/tension/zeroth-order bilinear form and
``Phi_theta(H) = int_0^H s g_theta(s) ds``.  For the positive-part ripping
rate the inner integral has a closed form which is used everywhere (a
quadrature cross-check lives in the tests).  As ``theta`` vanishes the
density term converges to ``rho0/2 * min(h^2, h_star^2)``, the sharp-switch
functional ``J_0``; its first-order condition carries the Heaviside factor
``H(1 - h/h_star)`` with ``H(x) = 0`` for ``x <= 0``, so nodes at or above
the critical height feel no spring.

Fields passed in and out are full-grid arrays respecting the zero Dirichlet
boundary; all energies are discrete trapezoidal integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import HeightOperator, Operators
from .grid import Grid
from .linalg import ARMIJO_C1, BACKTRACK_FACTOR, NewtonError, SolveOptions, cg_solve
from .model import PASCAL, ModelParams, PressureField, g_theta, g_theta_prime


@dataclass
class EnergyReport:
    theta: float
    energy: float
    gradient_sup_norm: float
    minimizer: np.ndarray
    iterations: int
    inner_integral_method: str = "closed-form"


def density_primitive(H, theta: float, rho0: float, params: ModelParams):
    """Closed form of ``int_0^H s g_theta(s) ds`` for the positive-part rate.

    Below the critical height the integrand is ``rho0 * s``; above it the
    substitution ``u = s - h_star`` integrates to a logarithm.
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    H = np.asarray(H, dtype=float)
    hs = params.h_star
    ktheta = params.k * theta
    below = np.where(H <= hs, 0.5 * rho0 * H**2, 0.5 * rho0 * hs**2)
    excess = np.maximum(H - hs, 0.0)
    above = params.k * rho0 * theta * (excess + (hs - ktheta) * np.log1p(excess / ktheta))
    return below + np.where(H > hs, above, 0.0)


def _quadratic_form(grid: Grid, ops: Operators, params: ModelParams,
                    h_int: np.ndarray) -> float:
    """a(h, h) with interior trapezoid weights (= spacing^2)."""
    w2 = grid.spacing**2
    Ah = ops.A @ h_int
    return w2 * float(
        params.kappa * (Ah @ Ah)
        + params.gamma * (h_int @ Ah)
        + params.lam * (h_int @ h_int)
    )


def eval_J_theta(
    h: np.ndarray,
    theta: float,
    rho0: float,
    params: ModelParams,
    pressure: PressureField,
    grid: Grid,
    ops: Operators | None = None,
) -> float:
    """Discrete action functional at sharpness ``theta > 0``."""
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    if ops is None:
        ops = Operators(grid)
    h_int = grid.restrict(h)
    density = float(grid.weights @ density_primitive(h, theta, rho0, params))
    load = PASCAL * float(grid.weights @ (pressure.values * h))
    return 0.5 * _quadratic_form(grid, ops, params, h_int) + density - load


def eval_J0(
    h: np.ndarray,
    rho0: float,
    params: ModelParams,
    pressure: PressureField,
    grid: Grid,
    ops: Operators | None = None,
) -> float:
    """Sharp-switch limit functional."""
    if ops is None:
        ops = Operators(grid)
    h_int = grid.restrict(h)
    density = 0.5 * rho0 * float(
        grid.weights @ np.minimum(h**2, params.h_star**2)
    )
    load = PASCAL * float(grid.weights @ (pressure.values * h))
    return 0.5 * _quadratic_form(grid, ops, params, h_int) + density - load


def _membrane(ops: Operators, params: ModelParams, spring: np.ndarray,
              scale: float = 1.0) -> HeightOperator:
    """``scale (kappa A^2 + gamma A + lam + diag(spring))`` on the interior."""
    return HeightOperator(ops.A, scale * (params.lam + spring),
                          scale * params.kappa, scale * params.gamma)


def _gradient(theta, rho0, params, pressure, grid, ops, h_int, active_mask=None):
    """Weighted gradient on interior nodes; mask freezes the theta=0 switch."""
    if theta > 0.0:
        spring = grid.restrict(g_theta(grid.embed(h_int), rho0, params.with_(theta=theta)))
    else:
        spring = rho0 * active_mask
    load = PASCAL * grid.restrict(pressure.values)
    return grid.spacing**2 * (_membrane(ops, params, spring) @ h_int - load)


def _hessian(theta, rho0, params, grid, ops, h_int, active_mask=None) -> HeightOperator:
    """Weighted Hessian: the membrane operator with spring ``g + h g'``."""
    if theta > 0.0:
        p_theta = params.with_(theta=theta)
        h_full = grid.embed(h_int)
        g = g_theta(h_full, rho0, p_theta)
        gp = g_theta_prime(h_full, rho0, p_theta)
        spring = grid.restrict(g + h_full * gp)
    else:
        spring = rho0 * active_mask
    return _membrane(ops, params, spring, grid.spacing**2)


def minimize_J(
    theta: float,
    rho0: float,
    params: ModelParams,
    pressure: PressureField,
    grid: Grid,
    h0: np.ndarray | None = None,
    opts: SolveOptions = SolveOptions(),
    ops: Operators | None = None,
    energy_history: list | None = None,
) -> EnergyReport:
    """Newton iteration on the discrete gradient with Armijo control on J.

    ``theta = 0`` runs the semismooth variant: the Heaviside factor is frozen
    per iteration using the previous iterate's active set (``h < h_star``).
    Convergence is declared when the discrete gradient of the energy drops
    below ``newton_grad_tol`` in the sup norm.  At the iteration cap, or
    when the line search fails, it raises :class:`NewtonError` with the last
    iterate (on the full grid) and its gradient sup norm.
    """
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    if ops is None:
        ops = Operators(grid)
    h_int = np.zeros(grid.num_interior) if h0 is None else grid.restrict(np.asarray(h0, float))

    def energy_at(hi):
        h_full = grid.embed(hi)
        if theta > 0.0:
            return eval_J_theta(h_full, theta, rho0, params, pressure, grid, ops)
        return eval_J0(h_full, rho0, params, pressure, grid, ops)

    mask = (h_int < params.h_star).astype(float)
    energy = energy_at(h_int)
    if energy_history is not None:
        energy_history.append(energy)
    iterations = 0
    for iterations in range(opts.newton_max_iter + 1):
        if theta == 0.0:
            mask = (h_int < params.h_star).astype(float)
        grad = _gradient(theta, rho0, params, pressure, grid, ops, h_int, mask)
        sup_grad = float(np.max(np.abs(grad)))
        if sup_grad <= opts.newton_grad_tol:
            break
        if iterations == opts.newton_max_iter:
            raise NewtonError(
                f"minimize_J: no convergence in {opts.newton_max_iter} Newton "
                f"iterations (gradient sup {sup_grad:.3e}); the requested "
                f"tolerance may sit below the grid's roundoff floor",
                grid.embed(h_int),
                sup_grad,
            )
        H = _hessian(theta, rho0, params, grid, ops, h_int, mask)
        direction = cg_solve(H, -grad, opts)
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = -float(grad @ grad)
        # once the predicted decrease sinks below the roundoff floor of the
        # energy, the Armijo test cannot resolve it; take the pure Newton step
        noise_floor = 1e3 * np.finfo(float).eps * max(1.0, abs(energy))
        if -slope <= noise_floor:
            h_int = h_int + direction
            energy = energy_at(h_int)
            if energy_history is not None:
                energy_history.append(energy)
            continue
        alpha = 1.0
        while True:
            trial = h_int + alpha * direction
            energy_trial = energy_at(trial)
            if energy_trial <= energy + ARMIJO_C1 * alpha * slope:
                break
            alpha *= BACKTRACK_FACTOR
            if alpha < 1e-14:
                raise NewtonError("minimize_J: line search failed",
                                  grid.embed(h_int), sup_grad)
        h_int = trial
        energy = energy_trial
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
    pressure: PressureField,
    grid: Grid,
    ops: Operators | None = None,
) -> np.ndarray:
    """Nodewise strong-form residual of the sharp-limit first-order system.

    ``kappa lap^2 h - gamma lap h + lam h + rho0 h H(1 - h/h_star) - p0``
    on interior nodes, zero on the boundary.
    """
    if ops is None:
        ops = Operators(grid)
    h_int = grid.restrict(h)
    heaviside = (h_int < params.h_star).astype(float)  # H(0) = 0 convention
    res = _membrane(ops, params, rho0 * heaviside) @ h_int
    return grid.embed(res - PASCAL * grid.restrict(pressure.values))


def gamma_ladder(
    thetas,
    rho0: float,
    params: ModelParams,
    pressure: PressureField,
    grid: Grid,
    h_test: np.ndarray,
    opts: SolveOptions = SolveOptions(),
) -> list[dict]:
    """Gap and minimizer-distance ladder used by the gamma-limit scenario.

    For each theta: evaluates both functionals at the fixed test field and
    minimizes J_theta; distances are measured against the theta = 0
    minimizer.  Returns one row per theta.
    """
    ops = Operators(grid)
    report0 = minimize_J(0.0, rho0, params, pressure, grid, None, opts, ops)
    rows = []
    for theta in thetas:
        J_t = eval_J_theta(h_test, theta, rho0, params, pressure, grid, ops)
        J_0 = eval_J0(h_test, rho0, params, pressure, grid, ops)
        report = minimize_J(theta, rho0, params, pressure, grid, None, opts, ops)
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
