"""Semi-implicit time integration of the four-field height/linker system.

One step advances, in order, the inactive density, the active density, and
the membrane height.  The fourth-order operator is handled through the
splitting variable ``w = -lap h``: the height solve eliminates ``w``
algebraically (the negative Laplacian applied twice), so a single symmetric
positive definite system in ``h`` alone is solved per step.  That height
operator is applied matrix-free, and its conjugate gradient solve is
preconditioned by the sine-transform inverse of its constant-coefficient
part.

Scheme variants
---------------
``ExplicitRipping``   ripping flux ``r(h^k) rho_a^k`` on the right-hand side.
``ImplicitRipping``   ripping applied to the unknown densities; the two
                      density equations couple and are solved as one linear
                      system (block Gauss-Seidel, contraction ~ k*tau, to
                      each block's CG tolerance; at most 80 sweeps).
``FullyImplicit``     ripping rate evaluated at ``h^{k+1}``; the coupled
                      nonlinear residual (:func:`stationary_terms` in
                      backward Euler form) is solved by Newton with Armijo
                      control, each Newton system by one GMRES solve; a
                      step whose Newton solve fails is retried as two half
                      steps.

The density solves are performed in weighted (weak) form, which keeps the
total linker mass exact up to the linear-solver tolerance.  Reaction
dominates them: at n = 64 and tau = 1e-6, ``w / tau`` alone outweighs
``eta LN`` about 300 times, and ripping rates reach about 2e8.  So the
node-wise inverse of the diffusion-free reaction system
(:func:`_reaction_start`) starts the coupled Gauss-Seidel loop and is the
density block of the Newton preconditioner, with no inner solve; CG and
GMRES resolve only the diffusion and the height coupling.  A step below
``h_star`` from rest keeps both densities exactly and solves neither.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from .grid import DiaMatrix, Grid, assemble_dirichlet, assemble_laplacian, build_grid, integrate
from .linalg import SolveError, SolveOptions, cg_solve, gmres_solve, newton_armijo
from .model import (MICROGRAM, PASCAL, ModelParams, disruption_initial, pressure_pulse,
                    ripping_rate)


class Scheme(str, enum.Enum):
    EXPLICIT_RIPPING = "ExplicitRipping"
    IMPLICIT_RIPPING = "ImplicitRipping"
    FULLY_IMPLICIT = "FullyImplicit"


@dataclass
class State:
    """Evolving fields: height on the full grid with zero boundary, densities
    on all nodes, plus the simulation clock."""

    h: np.ndarray
    rho_a: np.ndarray
    rho_i: np.ndarray
    t: float = 0.0
    step_index: int = 0


def weighted_density_residual(result_or_state, params: ModelParams, grid: Grid) -> float:
    """Deviation of ``eta_a rho_a + eta_i rho_i`` from its spatial mean.

    Zero (up to solver error) for stationary solutions; generally positive
    for mid-run time-dependent states.
    """
    weighted = params.eta_a * result_or_state.rho_a + params.eta_i * result_or_state.rho_i
    mean = integrate(grid, weighted)  # |D| = 1
    return float(np.max(np.abs(weighted - mean)))


@dataclass
class Diagnostics:
    """Per-step scalar records plus the post-run decay fit."""

    step: list = field(default_factory=list)
    t: list = field(default_factory=list)
    max_h: list = field(default_factory=list)
    max_step_diff: list = field(default_factory=list)
    total_mass: list = field(default_factory=list)
    min_rho_a: list = field(default_factory=list)
    min_rho_i: list = field(default_factory=list)
    ripping_flux: list = field(default_factory=list)
    weighted_density_spread: list = field(default_factory=list)
    decay_rate: Optional[float] = None
    decay_fit_r2: Optional[float] = None

    def record(self, state: State, prev_h: np.ndarray, params: ModelParams, grid: Grid):
        rate = ripping_rate(state.h, params)
        self.step.append(state.step_index)
        self.t.append(state.t)
        self.max_h.append(float(state.h.max()))
        self.max_step_diff.append(float(np.max(np.abs(state.h - prev_h))))
        self.total_mass.append(integrate(grid, state.rho_a + state.rho_i))
        self.min_rho_a.append(float(state.rho_a.min()))
        self.min_rho_i.append(float(state.rho_i.min()))
        self.ripping_flux.append(integrate(grid, rate * state.rho_a))
        self.weighted_density_spread.append(weighted_density_residual(state, params, grid))

    def fit_decay(self, window: tuple[int, int]) -> None:
        """Least-squares fit of log(max_step_diff) against step index."""
        steps = np.asarray(self.step, dtype=float)
        diffs = np.asarray(self.max_step_diff, dtype=float)
        sel = (steps >= window[0]) & (steps <= window[1]) & (diffs > 0.0)
        if np.count_nonzero(sel) < 3:
            return
        x = steps[sel]
        y = np.log(diffs[sel])
        design = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        self.decay_rate = float(coef[0])
        self.decay_fit_r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0


class StepError(SolveError):
    """A time step's solve failed; carries the failing step index."""

    def __init__(self, message: str, step_index: int, residual_norm: Optional[float] = None):
        super().__init__(f"step {step_index}: {message}", residual_norm=residual_norm)
        self.step_index = step_index


class HeightOperator:
    """Matrix-free membrane operator on the interior nodes, with its preconditioner.

    Applies ``diag * x + kappa A^2 x + gamma A x`` with ``diag = shift +
    scale * spring`` as ``diag * x + A (kappa A x + gamma x)``: two products
    with the 5-point ``A``, nothing assembled.  ``spring`` is given on the
    interior nodes; the linkers' spring is ``restrict(rho_a)`` with ``scale
    = xi * MICROGRAM``.  Every solve and residual of the package that holds
    the membrane operator applies it through this class, and every height
    solve passes :meth:`precond` to ``cg_solve``.  A time step's height
    solve also starts at ``precond(b)``, which is its answer while the
    spring is uniform.  Symmetric positive definite for a positive ``diag``.
    """

    def __init__(self, ops: Operators, params: ModelParams, shift: float,
                 spring: np.ndarray, scale: float = 1.0):
        self.ops = ops
        self.diag = shift + scale * spring
        self.mean_diag = shift + scale * float(np.mean(spring))
        self.kappa = params.kappa
        self.gamma = params.gamma

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        Ax = self.ops.A @ x
        return self.diag * x + self.ops.A @ (self.kappa * Ax + self.gamma * x)

    @functools.cached_property
    def _inverse_symbol(self) -> np.ndarray:
        """The preconditioner's eigenvalues; a symbol of both signs raises :class:`SolveError`.

        Such an operator is indefinite, and CG, started at ``precond(b)``,
        need never reach its own ``p.Ap <= 0`` test.
        """
        symbol = self.mean_diag + self.ops.membrane_symbol(self.kappa, self.gamma)
        low, high = float(symbol.min()), float(symbol.max())
        if low < 0.0 < high:
            raise SolveError(f"height operator indefinite: its symbol spans "
                             f"{low:.3e} to {high:.3e}")
        return 1.0 / symbol

    def precond(self, r: np.ndarray) -> np.ndarray:
        """``(mean(diag) + kappa A^2 + gamma A)^-1 r``, by two sine transforms.

        The exact inverse for a uniform spring, so preconditioned CG needs
        only as many iterations as the spring's variation demands.
        """
        S = self.ops.sine
        return (S @ ((S @ r.reshape(S.shape) @ S) * self._inverse_symbol) @ S).ravel()


class Operators:
    """Grid-bound discrete operators shared by all steps of one run.

    ``LN`` is the grid's no-flux Laplacian (:func:`assemble_laplacian`): the
    symmetric weak-form operator on all nodes, used in the density solves;
    ``LN @ x / grid.weights`` is its strong form.  ``A`` is the 5-point
    clamped (Dirichlet) negative Laplacian of the height
    (:func:`assemble_dirichlet`).  Both are built from their diagonals, as
    :class:`~blebsheet.grid.DiaMatrix` instances with the sorted offsets
    ``[-m, -1, 0, 1, m]``, ``m`` the grid-line length.  The DIA kernel adds
    each row's terms one diagonal at a time, in offset order, which is the
    canonical CSR column order, and a stored zero adds exactly nothing to a
    finite sum; so every product ``@`` here is bitwise equal to the
    canonical CSR one, at lower cost.  The membrane operator is never
    assembled: every height solve and membrane residual applies it
    matrix-free (:class:`HeightOperator`).

    ``sine`` is the orthonormal DST-I matrix ``S`` of one grid line
    (symmetric, ``S @ S = I``) and ``eig`` the eigenvalues of ``A`` on the
    interior nodes laid out as an ``(n-1, n-1)`` array: with ``R`` a
    field reshaped that way, ``A`` acts as ``S ((S R S) * eig) S``.  The
    height operator's preconditioner and :meth:`linear_heights` are built
    from them and from :meth:`membrane_symbol`.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        k = np.arange(1, grid.n)
        self.sine = np.sqrt(2.0 / grid.n) * np.sin(np.pi * np.outer(k, k) / grid.n)
        line = (2.0 * np.sin(0.5 * np.pi * k / grid.n) / grid.spacing) ** 2
        self.eig = line[:, None] + line[None, :]
        self.A = assemble_dirichlet(grid)
        self.LN = assemble_laplacian(grid)
        self._main = int(np.flatnonzero(self.LN.offsets == 0)[0])
        self._membrane_symbol: dict[tuple[float, float], np.ndarray] = {}

    def membrane_symbol(self, kappa: float, gamma: float) -> np.ndarray:
        """``eig * (kappa * eig + gamma)``, the eigenvalues of ``kappa A^2 + gamma A``.

        Built on first use for each ``(kappa, gamma)``, read-only, and the
        same array on every later call: one per run, since a run keeps its
        parameters.
        """
        if (kappa, gamma) not in self._membrane_symbol:
            symbol = self.eig * (kappa * self.eig + gamma)
            symbol.flags.writeable = False
            self._membrane_symbol[kappa, gamma] = symbol
        return self._membrane_symbol[kappa, gamma]

    def linear_heights(self, params: ModelParams, load: np.ndarray, tau: float,
                       steps: int) -> list[float]:
        """Max height after each of ``steps`` ripping-free steps of ``tau`` from rest.

        Below ``h_star`` every scheme's step is diagonal in the sine basis:
        after ``k`` steps the height is ``S (b / mu (1 - (1 + tau mu / c)^-k))
        S``, ``mu`` the symbol plus ``lam + xi MICROGRAM``, ``b = S (PASCAL load) S``.
        """
        S = self.sine
        mu = self.membrane_symbol(params.kappa, params.gamma) + params.lam + params.xi * MICROGRAM
        steady = S @ (PASCAL * self.grid.restrict(load)).reshape(S.shape) @ S / mu
        ratio = params.c / (params.c + tau * mu)
        return [max(float((S @ (steady * (1.0 - ratio**k)) @ S).max()), 0.0)
                for k in range(1, steps + 1)]

    def roundoff_floor(self, params: ModelParams, spring_max: float, h_int: np.ndarray) -> float:
        """``16 eps ||M|| sup|h|``, the roundoff floor of a strong-form membrane residual.

        ``||M|| = kappa eig_max^2 + gamma eig_max + |lam| + spring_max``
        bounds the sup norm of the membrane operator ``M = kappa A^2 + gamma
        A + lam + diag(spring)`` for a spring of at most ``spring_max``.  The
        Picard height residual stops there, and ``energy.minimize_J`` hands it
        to ``linalg.newton_armijo`` as the ``floor`` of its gradient.  It
        grows about sixteenfold per halving of the spacing.
        """
        eig_max = float(self.eig.max())
        norm = params.kappa * eig_max**2 + params.gamma * eig_max + abs(params.lam) + spring_max
        return 16.0 * np.finfo(float).eps * norm * np.max(np.abs(h_int))

    def height_matrix(self, params: ModelParams, tau: float, rho_a: np.ndarray) -> HeightOperator:
        """Height operator of a time step: shift ``c/tau + lam``."""
        return HeightOperator(self, params, params.c / tau + params.lam,
                              self.grid.restrict(rho_a), params.xi * MICROGRAM)

    def stationary_height_matrix(self, params: ModelParams, rho_a: np.ndarray) -> HeightOperator:
        """Height operator of a Picard iteration: shift ``lam``."""
        return HeightOperator(self, params, params.lam, self.grid.restrict(rho_a),
                              params.xi * MICROGRAM)

    def density_matrix(self, eta: float, diag_extra: float | np.ndarray) -> DiaMatrix:
        """Weighted form ``W diag(extra) + eta LN`` (symmetric positive definite).

        ``eta LN`` with ``W extra`` added to its main diagonal: a
        :class:`~blebsheet.grid.DiaMatrix` with ``LN``'s offsets.  Each
        entry is computed as a CSR assembly of the same sum computes it, so
        the matrix and its products are bitwise equal to that assembly's;
        it is exactly symmetric because ``LN`` is.

        A float ``diag_extra`` is a uniform reaction term, bitwise the same
        as the array ``np.full(num_nodes, diag_extra)``.  Every call builds
        a new matrix.
        """
        data = eta * self.LN.data
        data[self._main] += self.grid.weights * diag_extra
        return DiaMatrix(data, self.LN.offsets, self.LN.shape)


def _reaction_start(k_tau: float, rate_tau: np.ndarray, rho_a: np.ndarray,
                    rho_i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node-wise solution of the diffusion-free implicit reaction step.

    Solves ``(1 + rate_tau) a - k_tau i = rho_a``, ``-rate_tau a + (1 +
    k_tau) i = rho_i`` at each node.  Nonnegative for nonnegative data, and
    ``a + i = rho_a + rho_i`` at each node.  The start of the coupled loop
    of :func:`_solve_densities`, and the density block of
    :meth:`FullyImplicitJacobian.precond`, which applies it to residuals.
    """
    d = 1.0 + k_tau + rate_tau
    a = ((1.0 + k_tau) * rho_a + k_tau * rho_i) / d
    i = (rate_tau * rho_a + (1.0 + rate_tau) * rho_i) / d
    return a, i


def _solve_densities(
    ops: Operators,
    params: ModelParams,
    tau: float,
    rate: np.ndarray,
    rho_a: np.ndarray,
    rho_i: np.ndarray,
    implicit_ripping: bool,
    opts: SolveOptions,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the two densities one implicit Euler step.

    Solves the inactive density first, then the active one, each CG from
    the previous time level.  Under implicit ripping (some ``rate > 0``)
    the equations couple through the flux on the unknown active density.
    Block Gauss-Seidel then starts from :func:`_reaction_start`, contracts
    about ``k * tau`` per sweep, and stops once the active equation, like
    the inactive one, meets ``cg_solve``'s test on its own right-hand side.
    At ``tau`` >= 1e-3 it raises :class:`SolveError` after 80 sweeps,
    with the last iterate ``[rho_a | rho_i]`` and that residual.

    Every system here, coupled too, is an M-matrix (nonpositive off-diagonals,
    diagonally dominant), so nonnegative data give nonnegative densities; only
    the explicit flux ``-rate rho_a`` breaks that, once ``tau max(rate) > 1``,
    and a density below ``-1e-12 max(max rho, 1)`` then raises :class:`SolveError`.

    A quiescent state (no ``rate``, ``rho_i`` zero, ``rho_a`` uniform and
    finite) is the step's fixed point; it is returned unsolved, with the
    bits both CG solves give, except where ``eta_a tau / w`` >~ 1e3 (``tau``
    = 1 s, n >= 64): there CG iterates, moving it by up to 3e-12 of roundoff.
    """
    if not (rate.any() or rho_i.any()) and rho_a.min() == rho_a.max() and np.isfinite(rho_a[0]):
        return rho_a.copy(), np.zeros_like(rho_i)
    w = ops.grid.weights
    # mass conservation inherits the residual of these solves; run them tight
    dopts = opts.tight()
    B_i = ops.density_matrix(params.eta_i, 1.0 / tau + params.k)

    if not implicit_ripping or not np.any(rate > 0.0):
        flux = rate * rho_a
        rho_i_new = cg_solve(B_i, w * (rho_i / tau + flux), dopts, x0=rho_i)
        B_a = ops.density_matrix(params.eta_a, 1.0 / tau)
        rhs_a = w * (rho_a / tau + params.k * rho_i_new - flux)
        rho_a_new = cg_solve(B_a, rhs_a, dopts, x0=rho_a)
        low = min(rho_a_new.min(), rho_i_new.min())
        if low < -1e-12 * max(rho_a_new.max(), rho_i_new.max(), 1.0):
            raise SolveError(f"negative linker density {low:.3e}, tau max(rate) = "
                             f"{tau * rate.max():.3e}")
        return rho_a_new, rho_i_new

    B_a = ops.density_matrix(params.eta_a, 1.0 / tau + rate)
    rho_a_new, rho_i_new = _reaction_start(params.k * tau, tau * rate, rho_a, rho_i)
    rhs_a = w * (rho_a / tau + params.k * rho_i_new)
    for _ in range(80):
        rho_a_new = cg_solve(B_a, rhs_a, dopts, x0=rho_a_new)
        rho_i_new = cg_solve(B_i, w * (rho_i / tau + rate * rho_a_new), dopts, x0=rho_i_new)
        rhs_a = w * (rho_a / tau + params.k * rho_i_new)
        residual = float(np.linalg.norm(rhs_a - B_a @ rho_a_new))
        target = dopts.rel_tolerance * float(np.linalg.norm(rhs_a))
        if residual <= target:
            return rho_a_new, rho_i_new
    raise SolveError(
        f"implicit ripping coupling did not converge in 80 sweeps "
        f"(active residual {residual:.3e}, target {target:.3e})",
        np.concatenate([rho_a_new, rho_i_new]),
        residual,
    )


def step(
    state: State,
    tau: float,
    params: ModelParams,
    pressure: np.ndarray,
    grid: Grid,
    scheme: Scheme = Scheme.IMPLICIT_RIPPING,
    opts: SolveOptions = SolveOptions(),
    ops: Optional[Operators] = None,
) -> State:
    """Advance the state by one step of size ``tau``; ``state`` is not modified.

    ``pressure`` is in Pa per node; ``ops`` caches the assembled operators across steps.
    The one builder of a time step's :class:`State`: the scheme functions return
    the new ``(h_int, rho_a, rho_i)``, and the clock advances here.
    """
    if tau <= 0.0:
        raise ValueError("time step tau must be positive")
    if ops is None:
        ops = Operators(grid)
    scheme = Scheme(scheme)
    try:
        if scheme is Scheme.FULLY_IMPLICIT:
            h_int, rho_a, rho_i = _step_fully_implicit(state, tau, params, pressure, opts, ops)
        else:
            h_int, rho_a, rho_i = _step_semi_implicit(state, tau, params, pressure, opts, ops,
                                                      scheme is Scheme.IMPLICIT_RIPPING)
    except SolveError as exc:
        raise StepError(str(exc), state.step_index, exc.residual_norm) from exc
    return State(h=grid.embed(h_int), rho_a=rho_a, rho_i=rho_i, t=state.t + tau,
                 step_index=state.step_index + 1)


def _step_semi_implicit(
    state: State,
    tau: float,
    params: ModelParams,
    pressure: np.ndarray,
    opts: SolveOptions,
    ops: Operators,
    implicit_ripping: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Densities with the ripping rate of ``state.h``, then the height.

    Returns the new ``(h_int, rho_a, rho_i)``, in :func:`_split`'s layout.
    The height CG starts at ``P b``, the preconditioner applied to its
    right-hand side.  ``P`` is the exact inverse while the spring ``xi
    rho_a`` is uniform, that is at every step before ripping, so such a
    step passes CG's first stop test and runs no iteration.  After ripping
    starts, ``P b`` is still a closer start than the previous height.
    """
    grid = ops.grid
    rho_a_new, rho_i_new = _solve_densities(ops, params, tau, ripping_rate(state.h, params),
                                            state.rho_a, state.rho_i, implicit_ripping, opts)
    B_h = ops.height_matrix(params, tau, rho_a_new)
    rhs = (params.c / tau) * grid.restrict(state.h) + PASCAL * grid.restrict(pressure)
    h_new_int = cg_solve(B_h, rhs, opts, x0=B_h.precond(rhs), precond=B_h.precond)
    return h_new_int, rho_a_new, rho_i_new


# ---------------------------------------------------------------------------
# fully implicit scheme


def _split(grid: Grid, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views ``(h_int, rho_a, rho_i)`` of a fully implicit iterate ``[h_int | rho_a | rho_i]``."""
    ni, na = grid.num_interior, grid.num_nodes
    return z[:ni], z[ni : ni + na], z[ni + na :]


class FullyImplicitJacobian:
    """Block Jacobian of the tau-scaled fully implicit residual.

    Unknown layout: ``[h interior | rho_a | rho_i]``.  Supports ``J @ v`` and
    owns the Newton systems' preconditioner (:meth:`precond`); the height
    block is ``tau * height``, the time step's height operator.  Nothing
    is assembled: the tests keep the dense oracle of this matrix.
    """

    def __init__(self, ops: Operators, params: ModelParams, tau: float,
                 h_int: np.ndarray, rho_a: np.ndarray):
        grid = ops.grid
        self.ops = ops
        self.tau = tau
        self.params = params
        h_full = grid.embed(h_int)
        self.rate = ripping_rate(h_full, params)
        # subgradient of the positive part: zero at the kink
        rate_prime = np.where(h_full > params.h_star, 1.0 / params.theta, 0.0)
        self.height = ops.height_matrix(params, tau, rho_a)
        self.diag_ha = tau * params.xi * MICROGRAM * h_int  # interior h times rho_a|int
        self.diag_ah = tau * grid.restrict(rate_prime * rho_a)  # dF_a/dh on interior cols
        self.k_tau = tau * params.k
        self.diag_ia_rate = tau * self.rate

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        p, tau, LN, grid = self.params, self.tau, self.ops.LN, self.ops.grid
        dh, da, di = _split(grid, v)
        w, m = grid.weights, grid.n + 1
        out_h = tau * (self.height @ dh) + self.diag_ha * grid.restrict(da)
        out_a = da + tau * (p.eta_a * (LN @ da / w)) + self.diag_ia_rate * da - self.k_tau * di
        out_i = (1.0 + self.k_tau) * di + tau * (p.eta_i * (LN @ di / w)) - self.diag_ia_rate * da
        couple = (self.diag_ah * dh).reshape(m - 2, m - 2)  # onto the density rows' interior
        out_a.reshape(m, m)[1:-1, 1:-1] += couple
        out_i.reshape(m, m)[1:-1, 1:-1] -= couple
        return np.concatenate([out_h, out_a, out_i])

    def precond(self, r: np.ndarray) -> np.ndarray:
        """``J^-1 r`` with the density diffusion and the density rows' ``dh`` dropped.

        The densities by the node-wise reaction inverse (:func:`_reaction_start`),
        then the height by :meth:`HeightOperator.precond`; no inner solve.
        """
        b_h, b_a, b_i = _split(self.ops.grid, r)
        da, di = _reaction_start(self.k_tau, self.diag_ia_rate, b_a, b_i)
        dh = self.height.precond(b_h - self.diag_ha * self.ops.grid.restrict(da)) / self.tau
        return np.concatenate([dh, da, di])


def stationary_terms(ops: Operators, params: ModelParams, pressure: np.ndarray,
                     h_int: np.ndarray, rho_a: np.ndarray,
                     rho_i: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(membrane, load, diff_a, diff_i, recon, rip)``, the stationary equations' terms.

    The equations are ``membrane = load`` on the interior (the membrane
    operator applied to ``h_int``, and ``PASCAL * pressure``, pressure in Pa
    per node), ``diff_a - recon + rip = 0`` and ``diff_i + recon - rip = 0``,
    with ``diff = eta LN rho / weights``, ``recon = k rho_i`` and ``rip = r(h) rho_a``.
    """
    grid = ops.grid
    membrane = HeightOperator(ops, params, params.lam, grid.restrict(rho_a),
                              params.xi * MICROGRAM) @ h_int
    load = PASCAL * grid.restrict(pressure)
    diff_a = params.eta_a * (ops.LN @ rho_a / grid.weights)
    diff_i = params.eta_i * (ops.LN @ rho_i / grid.weights)
    recon = params.k * rho_i
    rip = ripping_rate(grid.embed(h_int), params) * rho_a
    return membrane, load, diff_a, diff_i, recon, rip


def _fully_implicit_residual(
    z: np.ndarray,
    ops: Operators,
    params: ModelParams,
    tau: float,
    state: State,
    pressure: np.ndarray,
) -> np.ndarray:
    """tau-scaled residual of the backward Euler system with implicit rate."""
    grid = ops.grid
    h_int, rho_a, rho_i = _split(grid, z)
    membrane, load, diff_a, diff_i, recon, rip = stationary_terms(
        ops, params, pressure, h_int, rho_a, rho_i)
    F_h = params.c * (h_int - grid.restrict(state.h)) + tau * (membrane - load)
    F_a = (rho_a - state.rho_a) + tau * (diff_a - recon + rip)
    F_i = (rho_i - state.rho_i) + tau * (diff_i + recon - rip)
    return np.concatenate([F_h, F_a, F_i])


def _newton_solve(J: FullyImplicitJacobian, rhs: np.ndarray,
                  opts: SolveOptions) -> np.ndarray:
    """Solve ``J d = rhs`` by GMRES, preconditioned by :meth:`FullyImplicitJacobian.precond`."""
    return gmres_solve(J, rhs, J.precond, opts.tight())


# a fully implicit step whose Newton solve fails is split in two, down to
# sub-steps of at least this many seconds
_MIN_SUBSTEP = 1e-9


def _step_fully_implicit(
    state: State,
    tau: float,
    params: ModelParams,
    pressure: np.ndarray,
    opts: SolveOptions,
    ops: Operators,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One backward Euler step, solved by Newton from a semi-implicit predictor.

    Returns the new ``(h_int, rho_a, rho_i)``, views of the Newton iterate.
    A failed attempt is retried as two half steps, recursively, down to
    sub-steps of ``_MIN_SUBSTEP``; a ``tau`` below twice that is never halved.
    """
    def residual(z):
        return _fully_implicit_residual(z, ops, params, tau, state, pressure)

    def jacobian(z):
        h_int, rho_a, _ = _split(ops.grid, z)
        return FullyImplicitJacobian(ops, params, tau, h_int, rho_a)

    try:
        # semi-implicit predictor: O(tau)-accurate start keeps Newton on the right
        # side of the ripping switch even at sharpness 1e-8, and selects the root
        z0 = np.concatenate(_step_semi_implicit(state, tau, params, pressure, opts, ops, True))
        z = newton_armijo(residual, jacobian, z0, opts,
                          linear_solve=lambda J, rhs: _newton_solve(J, rhs, opts))
    except SolveError:
        # near the ripping switch the system can lose its solution at this tau,
        # at a large tau GMRES can stall above its target, and the predictor's
        # own solves can fail; two half steps still count as one step of tau
        if tau / 2 < _MIN_SUBSTEP:
            raise
        h_int, rho_a, rho_i = _step_fully_implicit(state, tau / 2, params, pressure, opts, ops)
        mid = replace(state, h=ops.grid.embed(h_int), rho_a=rho_a, rho_i=rho_i)
        return _step_fully_implicit(mid, tau / 2, params, pressure, opts, ops)
    return _split(ops.grid, z)


# ---------------------------------------------------------------------------
# scenario driver


def initial_state(config, grid: Grid) -> State:
    """Initial fields of a dynamics scenario config; its load is :func:`build_pressure`'s."""
    if config.scenario == "disruption":
        rho_a0, rho_i0 = disruption_initial(
            grid,
            rho_hat=config.disruption_rho_hat,
            center=tuple(config.disruption_center),
            radius=config.disruption_radius,
            ramp=config.disruption_ramp,
        )
    else:
        rho_a0 = np.ones(grid.num_nodes)
        rho_i0 = np.zeros(grid.num_nodes)
    return State(h=np.zeros(grid.num_nodes), rho_a=rho_a0, rho_i=rho_i0)


def build_pressure(config, grid: Grid) -> np.ndarray:
    """The config's load in Pa on every node, as a ``float64`` array."""
    desc = config.pressure
    kind = desc.get("kind")
    if kind == "pulse":
        return pressure_pulse(
            grid, peak=desc["peak"], center=tuple(desc["center"]), radius=desc["radius"]
        )
    if kind == "constant":
        return np.full(grid.num_nodes, float(desc["value"]))
    if kind == "custom":
        values = np.asarray(desc["values"], dtype=float)
        if values.size != grid.num_nodes:
            raise ValueError("custom pressure length does not match the grid")
        return values
    raise ValueError(f"unknown pressure kind {kind!r}")


def march(state: State, config, ops: Operators, pressure: np.ndarray) -> Iterator[State]:
    """Yield the state after each step of ``config.tau`` under ``pressure``, without end.

    The one time loop of the package: ``simulate`` and the sweep protocol
    take from it as many steps as they need.  No step
    modifies a state it is given, so a yielded state can be kept as it is.
    """
    opts = config.solve_options()
    while True:
        state = step(state, config.tau, config.params, pressure, ops.grid,
                     config.scheme, opts, ops=ops)
        yield state


def simulate(config) -> tuple[State, Diagnostics, dict[int, State]]:
    """Run a scenario for ``final_time / tau`` steps.

    Returns the final state, the per-step diagnostics (with the decay fit
    filled in), and the snapshot states keyed by step index.  Solver failures
    propagate as :class:`StepError` with the partial diagnostics attached.
    """
    ops = Operators(build_grid(config.n))
    state = initial_state(config, ops.grid)
    pressure = build_pressure(config, ops.grid)
    n_steps = int(round(config.final_time / config.tau))
    diagnostics = Diagnostics()
    snapshots: dict[int, State] = {}

    prev_h = state.h
    try:
        for state in itertools.islice(march(state, config, ops, pressure), n_steps):
            diagnostics.record(state, prev_h, config.params, ops.grid)
            prev_h = state.h
            if state.step_index in config.snapshot_steps:
                snapshots[state.step_index] = state
    except StepError as exc:
        exc.diagnostics = diagnostics
        raise
    finally:
        diagnostics.fit_decay(config.fit_window)
    return state, diagnostics, snapshots
