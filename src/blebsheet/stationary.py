"""Stationary solutions: Gauss-Seidel fixed-point iteration of the reduced problem.

The fixed-point map mirrors the existence construction for the reduced
active-linker problem: freeze the active density and solve the height
equation, then solve the active-linker equation with that height's ripping
rate and the mean-field source ``(k/|D|) * ((eta_a/eta_i - 1) * int(rho_a) + m0)``.
The inactive density is reconstructed afterwards from the constant weighted
sum ``eta_a rho_a + eta_i rho_i = rho_0``.  Results carry the residuals of
the stationary equations, whose terms :func:`dynamics.stationary_terms` writes.
The time-dependent route to the same states is :func:`dynamics.simulate` run
long enough; :func:`_residuals_and_floor` judges its state by the same test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Operators, stationary_terms
from .dynamics import weighted_density_residual  # noqa: F401  re-exported
from .grid import Grid, integrate
from .linalg import SolveError, SolveOptions, cg_solve
from .model import MICROGRAM, PASCAL, ModelParams, ripping_rate

#: Weight of the new active density in each Picard update; the height is
#: taken undamped.  Undamped, n = 64 at 410 Pa takes 10 iterations, not 52;
#: 1.0 waits for the benchmark runner to stop keeping each operation's
#: output, or the faster runs read as more memory.
DAMPING = 0.5

#: Picard iterations before :func:`stationary_fixed_point` gives up.
MAX_PICARD = 500


class StationaryError(SolveError):
    """The fixed point failed to converge; carries the last iterate and its largest residual."""

    def __init__(self, message: str, result: "StationaryResult"):
        super().__init__(message, residual_norm=max(
            result.residual_height, result.residual_rho_a, result.residual_rho_i))
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
    (:func:`stationary_terms`).  The floor is :meth:`Operators.roundoff_floor`
    with the spring bound ``xi MICROGRAM max rho_a``, relative to the same
    scale as the height residual: a bound on the roundoff of the membrane
    product, below which no stop test may ask a height solve to go.
    """
    h_int = ops.grid.restrict(h)
    membrane, load, diff_a, diff_i, recon, rip = stationary_terms(
        ops, params, pressure, h_int, rho_a, rho_i)
    floor = ops.roundoff_floor(params, params.xi * MICROGRAM * float(np.max(rho_a)), h_int)
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

    Called once per solve, for the result: ``perfbench/run.py`` ends
    the last Picard iteration at its first call, so the Picard loop calls
    :func:`_residuals_and_floor` instead.
    """
    return _residuals_and_floor(ops, params, pressure, h, rho_a, rho_i)[0]


def stationary_fixed_point(
    params: ModelParams,
    pressure: np.ndarray,
    m0: float,
    grid: Grid,
    opts: SolveOptions = SolveOptions(),
    tol: float = 1e-10,
) -> StationaryResult:
    """Picard iteration of the reduced problem under ``pressure`` (Pa per node).

    Requires positive diffusivities.  Each iteration is a sweep of nonlinear
    block Gauss-Seidel (Ortega & Rheinboldt, 1970, section 7.4): the height,
    solved for the frozen active density, is taken undamped, as that solve
    is exact for the frozen density; the active density is solved with the
    ripping rate of that new height, and only its update is damped, by
    ``DAMPING``.  Where nothing rips, the first iteration is the answer.
    Converges once the iterate, with ``rho_i`` rebuilt from the weighted
    sum, meets ``tol`` in the residuals the result reports: both density
    residuals at most ``tol``, and the height residual at most ``max(tol,
    floor)``, with the roundoff floor of :func:`_residuals_and_floor`.  The
    floor is a bound: at 410 Pa it reads 2.7e-9 at n = 64 and 4.4e-8 at
    n = 128, where the solve reaches 4.5e-11 and 8.6e-10; without it
    n = 128 would never meet ``tol`` 1e-10 in height.  Non-convergence
    raises with the last iterate and its residuals after ``MAX_PICARD``
    iterations; a non-finite new height or density raises at once, with the
    last finite iterate.

    The inner solves are inexact (Eisenstat & Walker, SIAM J. Sci. Comput.
    17, 1996): each iteration's height and density CG runs at
    ``max(tight, min(1e-6, 1e-3 r))``, ``r`` the largest residual of the
    previous iteration (1e-6 on the first) and ``tight`` from
    :meth:`SolveOptions.tight`, so the last iterations solve at 1e-12.  At
    n = 64, 410 Pa that takes 52 Picard, 113 height CG and 6,485 density CG
    iterations; with the rate of the previous, damped height it took 66,
    181 and 9,274, and solves at 1e-12 throughout take 52, 215 and 15,326.

    The height CG starts from the previous height, which once the spring
    varies lies within an increment of the answer (from the time steps'
    ``P b``: 184 height iterations at n = 64); the density CG from the
    previous undamped density, nearer its answer than the damped one or the
    time steps' node-wise reaction solution (without ``1/tau``, diffusion is
    about 30 % of this operator).
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
        rho_i = inactive(rho_bar)
        res_h, res_a, res_i = _residuals(ops, params, pressure, h_bar, rho_bar, rho_i)
        return StationaryResult(
            h=h_bar,
            rho_a=rho_bar,
            rho_i=rho_i,
            residual_height=res_h,
            residual_rho_a=res_a,
            residual_rho_i=res_i,
            iterations=iterations,
            total_mass=integrate(grid, rho_bar + rho_i),
        )

    def require_finite(new: np.ndarray, iterations: int) -> None:
        if not np.all(np.isfinite(new)):
            raise StationaryError(f"fixed point: non-finite increment at iteration "
                                  f"{iterations}", result_at(iterations - 1))

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
        require_finite(h_new, iterations)

        # active-linker equation with the new height's rate and mean-field source
        rate = ripping_rate(h_new, params)
        source = params.k * ((ratio - 1.0) * integrate(grid, rho_bar) + m0)
        B_a = ops.density_matrix(params.eta_a, params.k * ratio + rate)
        rho_new = cg_solve(B_a, w * source, inner, x0=rho_new)
        require_finite(rho_new, iterations)

        h_bar = h_new
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

