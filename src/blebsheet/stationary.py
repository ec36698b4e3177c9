"""Stationary solutions: damped fixed-point iteration and time marching.

The fixed-point map mirrors the existence construction for the reduced
active-linker problem: freeze the active density and solve the height
equation, then solve the active-linker equation with the frozen ripping rate
and the mean-field source ``(k/|D|) * ((eta_a/eta_i - 1) * int(rho_a) + m0)``.
The inactive density is reconstructed afterwards from the constant weighted
sum ``eta_a rho_a + eta_i rho_i = rho_0``.  Results carry the residuals of
the stationary equations, whose terms :func:`dynamics.stationary_terms` writes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Operators, build_pressure, initial_state, march, stationary_terms
from .dynamics import weighted_density_residual  # noqa: F401  re-exported
from .grid import Grid, build_grid, integrate
from .linalg import SolveOptions, cg_solve
from .model import MICROGRAM, PASCAL, ModelParams, ripping_rate

#: Weight of the new iterate in each Picard update.  Undamped, n = 64 at 410 Pa
#: took 21 iterations, not 61, when Picard stopped on its increment (66 now
#: that it stops on its residuals); 1.0 waits for the benchmark runner to
#: stop keeping each operation's output, or the faster runs read as more
#: memory.
DAMPING = 0.5

#: Picard iterations before :func:`stationary_fixed_point` gives up.
MAX_PICARD = 500


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


def _residuals_and_floor(
    ops: Operators, params: ModelParams, pressure: np.ndarray,
    h: np.ndarray, rho_a: np.ndarray, rho_i: np.ndarray,
) -> tuple[tuple[float, float, float], float]:
    """Relative sup norms of the stationary equations, and the height one's roundoff floor.

    The height residual is relative to the larger side of its equation, and
    each density residual to ``k rho_a`` or the largest of its terms
    (:func:`stationary_terms`).  The floor is ``16 eps sup|h|`` times
    :meth:`Operators.membrane_norm` with the spring ``xi MICROGRAM max
    rho_a``, relative to the same scale as the height residual: a bound on
    the roundoff of the membrane product, below which no stop test may ask
    a height solve to go.
    """
    h_int = ops.grid.restrict(h)
    membrane, load, diff_a, diff_i, recon, rip = stationary_terms(
        ops, params, pressure, h_int, rho_a, rho_i)
    norm = ops.membrane_norm(params, params.xi * MICROGRAM * float(np.max(rho_a)))
    floor = 16.0 * np.finfo(float).eps * norm * np.max(np.abs(h_int))
    residuals = (
        _relative_sup(membrane - load, membrane, load),
        _relative_sup(diff_a - recon + rip, diff_a, recon, rip, params.k * rho_a),
        _relative_sup(diff_i + recon - rip, diff_i, recon, rip, params.k * rho_a),
    )
    return residuals, _relative_sup(floor, membrane, load)


def _residuals(
    ops: Operators, params: ModelParams, pressure: np.ndarray,
    h: np.ndarray, rho_a: np.ndarray, rho_i: np.ndarray,
) -> tuple[float, float, float]:
    """Relative sup norms of the stationary equations (:func:`_residuals_and_floor`).

    Called once per solve, from :func:`_result`: ``perfbench/run.py`` ends
    the last Picard iteration at its first call, so the Picard loop calls
    :func:`_residuals_and_floor` instead.
    """
    return _residuals_and_floor(ops, params, pressure, h, rho_a, rho_i)[0]


def _result(
    ops: Operators, params: ModelParams, pressure: np.ndarray,
    h: np.ndarray, rho_a: np.ndarray, rho_i: np.ndarray, iterations: int,
) -> StationaryResult:
    """The fields with their residuals, mass and weighted density."""
    res = _residuals(ops, params, pressure, h, rho_a, rho_i)
    return StationaryResult(
        h=h,
        rho_a=rho_a,
        rho_i=rho_i,
        residual_height=res[0],
        residual_rho_a=res[1],
        residual_rho_i=res[2],
        iterations=iterations,
        total_mass=integrate(ops.grid, rho_a + rho_i),
        rho0_weighted=integrate(ops.grid, params.eta_a * rho_a + params.eta_i * rho_i),
    )


def stationary_fixed_point(
    params: ModelParams,
    pressure: np.ndarray,
    m0: float,
    grid: Grid,
    opts: SolveOptions = SolveOptions(),
    tol: float = 1e-10,
) -> StationaryResult:
    """Damped Picard iteration of the reduced problem under ``pressure`` (Pa per node).

    Requires positive diffusivities; damped by ``DAMPING``.  Converges once
    the damped iterate, with ``rho_i`` rebuilt from the weighted sum, meets
    ``tol`` in the residuals the result reports: both density residuals at
    most ``tol``, and the height residual at most ``max(tol, floor)``, with
    the roundoff floor of :func:`_residuals_and_floor`.  The floor is a
    bound: at 410 Pa it reads 2.7e-9 at n = 64 and 4.4e-8 at n = 128, where
    the solve reaches 6.2e-11 and 1.1e-9; without it n = 128 would never
    meet ``tol`` 1e-10 in height.  Non-convergence raises with the last
    iterate and its residuals after ``MAX_PICARD`` iterations; a non-finite
    new iterate raises with the last finite one.

    The inner solves are inexact (Eisenstat & Walker, SIAM J. Sci. Comput.
    17, 1996): each iteration's height and density CG runs at
    ``max(tight, min(1e-6, 1e-3 r))``, ``r`` the largest residual of the
    previous iteration (1e-6 on the first) and ``tight`` from
    :meth:`SolveOptions.tight`, so the last iterations solve at 1e-12.  At
    n = 64, 410 Pa that takes 66 Picard, 181 height CG and 9,274 density
    CG iterations; solves at 1e-12 throughout take the same 66 Picard
    iterations with 292 and 20,529 CG iterations.  A looser rule,
    ``min(1e-4, 1e-2 r)``, takes 83 Picard iterations but 6,410 density CG
    iterations and less time; like ``DAMPING`` 1.0 it waits for the
    benchmark runner to stop keeping each operation's output.

    The height CG starts from the damped height, not from the
    preconditioned right-hand side ``P b`` a time step starts at: once the
    spring varies, the damped height lies within an increment of the
    answer (with every solve at 1e-10, 234 height iterations in all against
    286 from ``P b``, which wins only the first three, where the spring is
    still uniform).  The density CG starts from the previous iteration's
    undamped density, which is nearer its answer than the damped one.
    (The node-wise reaction solution of the time steps is a worse start
    here: without a ``1/tau`` term diffusion is about 30 % of this
    operator.)
    """
    if params.eta_a <= 0.0 or params.eta_i <= 0.0:
        raise ValueError("fixed point construction needs positive diffusivities")

    ops = Operators(grid)
    w = grid.weights
    p_int = PASCAL * grid.restrict(pressure)
    ratio = params.eta_a / params.eta_i

    def inactive(rho_a: np.ndarray) -> np.ndarray:
        # reconstruct the inactive density from the constant weighted sum
        rho0 = params.eta_i * ((ratio - 1.0) * integrate(grid, rho_a) + m0)
        return (rho0 - params.eta_a * rho_a) / params.eta_i

    def result_at(iterations: int) -> StationaryResult:
        return _result(ops, params, pressure, h_bar, rho_bar, inactive(rho_bar), iterations)

    tight = opts.tight().rel_tolerance
    h_bar = np.zeros(grid.num_nodes)
    rho_bar = np.full(grid.num_nodes, m0)  # |D| = 1
    rho_new = rho_bar
    iterations = 0
    residuals, floor = (np.inf, np.inf, np.inf), np.inf
    for iterations in range(1, MAX_PICARD + 1):
        inner = replace(opts, rel_tolerance=max(tight, min(1e-6, 1e-3 * max(residuals))))
        # height equation with frozen active density
        B_h = ops.stationary_height_matrix(params, rho_bar)
        h_int = cg_solve(B_h, p_int, inner, x0=grid.restrict(h_bar), precond=B_h.precond)
        h_new = grid.embed(h_int)

        # active-linker equation with frozen rate and mean-field source
        rate = ripping_rate(h_bar, params)
        source = params.k * ((ratio - 1.0) * integrate(grid, rho_bar) + m0)
        B_a = ops.density_matrix(params.eta_a, params.k * ratio + rate)
        rho_new = cg_solve(B_a, w * source, inner, x0=rho_new)

        if not (np.all(np.isfinite(h_new)) and np.all(np.isfinite(rho_new))):
            raise StationaryError(f"fixed point: non-finite increment at iteration "
                                  f"{iterations}", result_at(iterations - 1))
        h_bar = (1.0 - DAMPING) * h_bar + DAMPING * h_new
        rho_bar = (1.0 - DAMPING) * rho_bar + DAMPING * rho_new
        residuals, floor = _residuals_and_floor(
            ops, params, pressure, h_bar, rho_bar, inactive(rho_bar))
        res_h, res_a, res_i = residuals
        if res_a <= tol and res_i <= tol and res_h <= max(tol, floor):
            return result_at(iterations)

    raise StationaryError(
        f"fixed point: no convergence in {MAX_PICARD} iterations (last residuals "
        f"height {residuals[0]:.3e}, floor {floor:.3e}; rho_a {residuals[1]:.3e}, "
        f"rho_i {residuals[2]:.3e})",
        result_at(iterations),
    )


def stationary_by_marching(
    config, stop_tol: float, max_steps: int = 20000
) -> StationaryResult:
    """March the time-dependent system until ``max|h - prev_h| <= stop_tol``."""
    if stop_tol <= 0.0:
        raise ValueError("stop_tol must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    ops = Operators(build_grid(config.n))
    state = initial_state(config, ops.grid)
    pressure = build_pressure(config, ops.grid)

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
