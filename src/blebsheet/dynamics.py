"""Semi-implicit time integration of the four-field height/linker system.

One step advances, in order, the inactive density, the active density, and
the membrane height.  The fourth-order operator is handled through the
splitting variable ``w = -lap h``: the height solve eliminates ``w``
algebraically (the negative Laplacian applied twice) and recovers it
afterwards, so a single symmetric positive definite system is solved per
step.

Scheme variants
---------------
``ExplicitRipping``   ripping flux ``r(h^k) rho_a^k`` on the right-hand side.
``ImplicitRipping``   ripping applied to the unknown densities; the two
                      density equations couple and are solved as one linear
                      system (block Gauss-Seidel, contraction ~ k*tau).
``FullyImplicit``     ripping rate evaluated at ``h^{k+1}``; the coupled
                      nonlinear residual is solved by Newton with Armijo
                      control, with block-triangular solves for the Newton
                      systems.

The density solves are performed in weighted (weak) form, which keeps the
total linker mass exact up to the linear-solver tolerance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .grid import Grid, SparseMatrix, assemble_laplacian, integrate
from .linalg import SolveOptions, SweepLimitError, cg_solve, newton_armijo
from .model import MICROGRAM, PASCAL, ModelParams, PressureField, ripping_rate


class Scheme(str, enum.Enum):
    EXPLICIT_RIPPING = "ExplicitRipping"
    IMPLICIT_RIPPING = "ImplicitRipping"
    FULLY_IMPLICIT = "FullyImplicit"


@dataclass
class State:
    """Evolving fields: height and splitting variable on the full grid with
    zero boundary, densities on all nodes, plus the simulation clock."""

    h: np.ndarray
    w: np.ndarray
    rho_a: np.ndarray
    rho_i: np.ndarray
    t: float = 0.0
    step_index: int = 0

    def copy(self) -> "State":
        return State(
            self.h.copy(), self.w.copy(), self.rho_a.copy(), self.rho_i.copy(),
            self.t, self.step_index,
        )


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
        weighted = params.eta_a * state.rho_a + params.eta_i * state.rho_i
        mean = integrate(grid, weighted)  # |D| = 1
        self.step.append(state.step_index)
        self.t.append(state.t)
        self.max_h.append(float(state.h.max()))
        self.max_step_diff.append(float(np.max(np.abs(state.h - prev_h))))
        self.total_mass.append(integrate(grid, state.rho_a + state.rho_i))
        self.min_rho_a.append(float(state.rho_a.min()))
        self.min_rho_i.append(float(state.rho_i.min()))
        self.ripping_flux.append(integrate(grid, rate * state.rho_a))
        self.weighted_density_spread.append(float(np.max(np.abs(weighted - mean))))

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


class StepError(RuntimeError):
    """A linear or Newton solve failed; carries the failing step index."""

    def __init__(self, message: str, step_index: int):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


class Operators:
    """Grid-bound discrete operators shared by all steps of one run.

    ``A`` is the interior Dirichlet negative Laplacian, ``A2`` its square
    (13-point stencil), ``AN`` the all-node Neumann operator and ``LN`` its
    weighted symmetric form used in the density solves.

    ``sine`` is the orthonormal DST-I matrix ``S`` of one grid line
    (symmetric, ``S @ S = I``) and ``eig`` the eigenvalues of ``A`` on the
    interior nodes laid out as an ``(n-1, n-1)`` array: with ``R`` a
    field reshaped that way, ``A`` acts as ``S ((S R S) * eig) S``.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        k = np.arange(1, grid.n)
        self.sine = np.sqrt(2.0 / grid.n) * np.sin(np.pi * np.outer(k, k) / grid.n)
        line = (2.0 * np.sin(0.5 * np.pi * k / grid.n) / grid.spacing) ** 2
        self.eig = line[:, None] + line[None, :]
        self.A = assemble_laplacian(grid, "dirichlet0")
        self.A2 = SparseMatrix.from_scipy(self.A.scipy @ self.A.scipy, symmetric=True)
        self.AN = assemble_laplacian(grid, "neumann0")
        self.W = sp.diags(grid.weights).tocsr()
        self.LN = sp.csr_matrix(self.W @ self.AN.scipy)
        self.I_int = sp.identity(grid.num_interior, format="csr")
        self.I_all = sp.identity(grid.num_nodes, format="csr")

    def height_matrix(self, params: ModelParams, tau: float, rho_a: np.ndarray) -> SparseMatrix:
        """(c/tau) I + kappa A^2 + gamma A + lam I + xi diag(rho_a) on the interior."""
        spring = params.xi * MICROGRAM * self.grid.restrict(rho_a)
        mat = (
            (params.c / tau + params.lam) * self.I_int
            + params.kappa * self.A2.scipy
            + params.gamma * self.A.scipy
            + sp.diags(spring)
        )
        return SparseMatrix.from_scipy(mat, symmetric=True)

    def stationary_height_matrix(self, params: ModelParams, rho_a: np.ndarray) -> SparseMatrix:
        spring = params.xi * MICROGRAM * self.grid.restrict(rho_a)
        mat = (
            params.lam * self.I_int
            + params.kappa * self.A2.scipy
            + params.gamma * self.A.scipy
            + sp.diags(spring)
        )
        return SparseMatrix.from_scipy(mat, symmetric=True)

    def height_preconditioner(self, params: ModelParams, rho_a: np.ndarray,
                              shift: float):
        """Exact inverse of the constant-coefficient height operator.

        Returns ``r -> M r`` with ``M = (shift + mean(spring) + kappa A^2 +
        gamma A)^-1`` and ``spring = xi * rho_a`` on the
        interior, applied by two sine transforms.  It inverts a height
        matrix exactly when the spring is uniform, so preconditioned CG
        needs only as many iterations as the spring's variation demands.
        """
        spring = params.xi * MICROGRAM * float(np.mean(self.grid.restrict(rho_a)))
        inv = 1.0 / (shift + spring + self.eig * (params.kappa * self.eig + params.gamma))
        S = self.sine
        m = self.grid.n - 1

        def apply(r: np.ndarray) -> np.ndarray:
            return (S @ ((S @ r.reshape(m, m) @ S) * inv) @ S).ravel()

        return apply

    def density_matrix(self, eta: float, diag_extra: np.ndarray) -> SparseMatrix:
        """Weighted form ``W diag(extra) + eta L`` (symmetric positive definite)."""
        mat = self.W @ sp.diags(diag_extra) + eta * self.LN
        return SparseMatrix.from_scipy(mat, symmetric=True)


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

    Solves the inactive density first, then the active one.  Under implicit
    ripping the equations couple through the flux on the unknown active
    density; block Gauss-Seidel converges with contraction about ``k * tau``
    per sweep so a handful of sweeps reaches solver accuracy; after 80
    sweeps it raises :class:`SweepLimitError` with the last iterate
    ``[rho_a | rho_i]`` and the last increment of ``rho_a``.
    """
    w = ops.grid.weights
    # mass conservation inherits the residual of these solves; run them tight
    dopts = SolveOptions(
        rel_tolerance=min(opts.rel_tolerance, 1e-12),
        max_iterations=opts.max_iterations,
    )
    B_i = ops.density_matrix(params.eta_i, np.full(w.size, 1.0 / tau + params.k))

    if not implicit_ripping or not np.any(rate > 0.0):
        flux = rate * rho_a
        rho_i_new = cg_solve(B_i, w * (rho_i / tau + flux), dopts, x0=rho_i)
        B_a = ops.density_matrix(params.eta_a, np.full(w.size, 1.0 / tau))
        rhs_a = w * (rho_a / tau + params.k * rho_i_new - flux)
        rho_a_new = cg_solve(B_a, rhs_a, dopts, x0=rho_a)
        return rho_a_new, rho_i_new

    B_a = ops.density_matrix(params.eta_a, 1.0 / tau + rate)
    rho_a_new = rho_a.copy()
    rho_i_new = rho_i.copy()
    scale = max(float(np.max(np.abs(rho_a))), float(np.max(np.abs(rho_i))), 1.0)
    for _ in range(80):
        rho_a_prev = rho_a_new
        rho_a_new = cg_solve(
            B_a, w * (rho_a / tau + params.k * rho_i_new), dopts, x0=rho_a_new
        )
        rho_i_new = cg_solve(
            B_i, w * (rho_i / tau + rate * rho_a_new), dopts, x0=rho_i_new
        )
        increment = float(np.max(np.abs(rho_a_new - rho_a_prev)))
        if increment <= 1e-13 * scale:
            return rho_a_new, rho_i_new
    residual = np.concatenate([
        B_a @ rho_a_new - w * (rho_a / tau + params.k * rho_i_new),
        B_i @ rho_i_new - w * (rho_i / tau + rate * rho_a_new),
    ])
    raise SweepLimitError(
        f"implicit ripping coupling did not converge in 80 sweeps "
        f"(last increment {increment:.3e})",
        np.concatenate([rho_a_new, rho_i_new]),
        float(np.linalg.norm(residual)),
        increment,
    )


def step(
    state: State,
    tau: float,
    params: ModelParams,
    pressure: PressureField,
    grid: Grid,
    scheme: Scheme = Scheme.IMPLICIT_RIPPING,
    opts: SolveOptions = SolveOptions(),
    ops: Optional[Operators] = None,
) -> State:
    """Advance the state by one step of size ``tau``.

    ``ops`` caches the assembled operators across steps; ``simulate`` passes
    it automatically.
    """
    if tau <= 0.0:
        raise ValueError("time step tau must be positive")
    if ops is None:
        ops = Operators(grid)
    scheme = Scheme(scheme)
    try:
        if scheme is Scheme.FULLY_IMPLICIT:
            return _step_fully_implicit(state, tau, params, pressure, grid, opts, ops)
        rate = ripping_rate(state.h, params)
        rho_a_new, rho_i_new = _solve_densities(
            ops, params, tau, rate, state.rho_a, state.rho_i,
            scheme is Scheme.IMPLICIT_RIPPING, opts,
        )
        B_h = ops.height_matrix(params, tau, rho_a_new)
        h_int = grid.restrict(state.h)
        rhs = (params.c / tau) * h_int + PASCAL * grid.restrict(pressure.values)
        h_new_int = cg_solve(B_h, rhs, opts, x0=h_int)
    except RuntimeError as exc:
        raise StepError(str(exc), state.step_index) from exc

    h_new = grid.embed(h_new_int)
    w_new = grid.embed(ops.A @ h_new_int)
    return State(
        h=h_new,
        w=w_new,
        rho_a=rho_a_new,
        rho_i=rho_i_new,
        t=state.t + tau,
        step_index=state.step_index + 1,
    )


# ---------------------------------------------------------------------------
# fully implicit scheme


class FullyImplicitJacobian:
    """Block Jacobian of the tau-scaled fully implicit residual.

    Unknown layout: ``[h interior | rho_a | rho_i]``.  Supports ``J @ v`` for
    the Armijo slope and exposes the blocks for the structured linear solve.
    """

    def __init__(self, ops: Operators, params: ModelParams, tau: float,
                 h_int: np.ndarray, rho_a: np.ndarray):
        grid = ops.grid
        self.ops = ops
        self.tau = tau
        self.params = params
        self.n_int = grid.num_interior
        self.n_all = grid.num_nodes
        h_full = grid.embed(h_int)
        self.rate = ripping_rate(h_full, params)
        # subgradient of the positive part: zero at the kink
        rate_prime = np.where(h_full > params.h_star, 1.0 / params.theta, 0.0)
        self.d_rate_rho = rate_prime * rho_a  # full grid
        self.rho_a = rho_a
        self.J_hh = sp.csr_matrix(
            params.c * ops.I_int
            + tau * (
                params.kappa * ops.A2.scipy
                + params.gamma * ops.A.scipy
                + params.lam * ops.I_int
                + sp.diags(params.xi * MICROGRAM * grid.restrict(rho_a))
            )
        )
        self.diag_ha = tau * params.xi * MICROGRAM * h_int  # interior h times rho_a|int
        self.J_aa = sp.csr_matrix(
            ops.I_all + tau * (params.eta_a * ops.AN.scipy + sp.diags(self.rate))
        )
        self.J_ii = sp.csr_matrix(
            (1.0 + tau * params.k) * ops.I_all + tau * params.eta_i * ops.AN.scipy
        )
        self.diag_ah = tau * grid.restrict(self.d_rate_rho)  # dF_a/dh on interior cols
        self.k_tau = tau * params.k
        self.diag_ia_rate = tau * self.rate
        self.interior = grid.interior_indices

    def split(self, v: np.ndarray):
        ni, na = self.n_int, self.n_all
        return v[:ni], v[ni : ni + na], v[ni + na :]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        dh, da, di = self.split(v)
        da_int = da[self.interior]
        out_h = self.J_hh @ dh + self.diag_ha * da_int
        out_a = self.J_aa @ da - self.k_tau * di
        out_a[self.interior] += self.diag_ah * dh
        out_i = self.J_ii @ di - self.diag_ia_rate * da
        out_i[self.interior] -= self.diag_ah * dh
        return np.concatenate([out_h, out_a, out_i])

    def toarray(self) -> np.ndarray:
        ni, na = self.n_int, self.n_all
        J = np.zeros((ni + 2 * na, ni + 2 * na))
        J[:ni, :ni] = self.J_hh.toarray()
        ha = np.zeros((ni, na))
        ha[np.arange(ni), self.interior] = self.diag_ha
        J[:ni, ni : ni + na] = ha
        J[ni : ni + na, ni : ni + na] = self.J_aa.toarray()
        ah = np.zeros((na, ni))
        ah[self.interior, np.arange(ni)] = self.diag_ah
        J[ni : ni + na, :ni] = ah
        J[ni : ni + na, ni + na :] = -self.k_tau * np.eye(na)
        J[ni + na :, :ni] = -ah
        J[ni + na :, ni : ni + na] = -np.diag(self.diag_ia_rate)
        J[ni + na :, ni + na :] = self.J_ii.toarray()
        return J


def _fully_implicit_residual(
    z: np.ndarray,
    ops: Operators,
    params: ModelParams,
    tau: float,
    state: State,
    pressure: PressureField,
) -> np.ndarray:
    """tau-scaled residual of the backward Euler system with implicit rate."""
    grid = ops.grid
    ni = grid.num_interior
    na = grid.num_nodes
    h_int = z[:ni]
    rho_a = z[ni : ni + na]
    rho_i = z[ni + na :]
    h_full = grid.embed(h_int)
    rate = ripping_rate(h_full, params)
    flux = rate * rho_a

    F_h = (
        params.c * (h_int - grid.restrict(state.h))
        + tau * (
            params.kappa * (ops.A2 @ h_int)
            + params.gamma * (ops.A @ h_int)
            + params.lam * h_int
            + params.xi * MICROGRAM * grid.restrict(rho_a) * h_int
            - PASCAL * grid.restrict(pressure.values)
        )
    )
    F_a = (rho_a - state.rho_a) + tau * (
        params.eta_a * (ops.AN @ rho_a) - params.k * rho_i + flux
    )
    F_i = (rho_i - state.rho_i) + tau * (
        params.eta_i * (ops.AN @ rho_i) + params.k * rho_i - flux
    )
    return np.concatenate([F_h, F_a, F_i])


def _block_triangular_solve(J: FullyImplicitJacobian, rhs: np.ndarray,
                            opts: SolveOptions) -> np.ndarray:
    """Solve ``J d = rhs`` by block Gauss-Seidel sweeps with CG blocks.

    With no active ripping the system is block upper triangular and one
    sweep is exact; otherwise the sweep contraction is about ``k * tau``.
    After 60 sweeps it raises :class:`SweepLimitError` with the last sweep
    and its increment.  The density blocks are solved in weighted form to
    stay symmetric; the height block, ``tau`` times a height matrix, is
    preconditioned by the sine-transform inverse of its constant-coefficient
    part (CG does not see the factor ``tau``).
    """
    ops = J.ops
    grid = ops.grid
    w = grid.weights
    b_h, b_a, b_i = J.split(rhs)

    dopts = SolveOptions(rel_tolerance=min(opts.rel_tolerance, 1e-12),
                         max_iterations=opts.max_iterations)
    Wa = SparseMatrix.from_scipy(ops.W @ J.J_aa, symmetric=True)
    Wi = SparseMatrix.from_scipy(ops.W @ J.J_ii, symmetric=True)
    Bh = SparseMatrix.from_scipy(J.J_hh, symmetric=True)
    Mh = ops.height_preconditioner(J.params, J.rho_a, J.params.c / J.tau + J.params.lam)

    dh = np.zeros(J.n_int)
    da = np.zeros(J.n_all)
    di = np.zeros(J.n_all)
    scale = max(float(np.max(np.abs(rhs))), 1.0)
    prev = np.concatenate([dh, da, di])
    for _sweep in range(60):
        rhs_i = b_i + J.diag_ia_rate * da
        rhs_i[J.interior] += J.diag_ah * dh
        di = cg_solve(Wi, w * rhs_i, dopts, x0=di)
        rhs_a = b_a + J.k_tau * di
        rhs_a[J.interior] -= J.diag_ah * dh
        da = cg_solve(Wa, w * rhs_a, dopts, x0=da)
        dh = cg_solve(Bh, b_h - J.diag_ha * da[J.interior], dopts, x0=dh, precond=Mh)
        cur = np.concatenate([dh, da, di])
        increment = float(np.max(np.abs(cur - prev)))
        if increment <= 1e-13 * scale and _sweep > 0:
            return cur
        prev = cur
    raise SweepLimitError(
        f"block Gauss-Seidel did not converge in 60 sweeps "
        f"(last increment {increment:.3e})",
        cur,
        float(np.linalg.norm(J @ cur - rhs)),
        increment,
    )


def _step_fully_implicit(
    state: State,
    tau: float,
    params: ModelParams,
    pressure: PressureField,
    grid: Grid,
    opts: SolveOptions,
    ops: Operators,
) -> State:
    ni = grid.num_interior
    na = grid.num_nodes

    def residual(z):
        return _fully_implicit_residual(z, ops, params, tau, state, pressure)

    def jacobian(z):
        return FullyImplicitJacobian(ops, params, tau, z[:ni], z[ni : ni + na])

    def linear_solve(J, rhs):
        try:
            return _block_triangular_solve(J, rhs, opts)
        except SweepLimitError as exc:
            # where ripping switches on the sweeps can need 100-150 passes;
            # Newton only needs a descent direction, and newton_armijo
            # checks the slope along this one and line-searches it
            return exc.iterate

    # semi-implicit predictor: O(tau)-accurate start keeps Newton on the
    # right side of the ripping switch even at sharpness 1e-8
    rate = ripping_rate(state.h, params)
    rho_a_pred, rho_i_pred = _solve_densities(
        ops, params, tau, rate, state.rho_a, state.rho_i, True, opts
    )
    B_h = ops.height_matrix(params, tau, rho_a_pred)
    h_pred = cg_solve(
        B_h,
        (params.c / tau) * grid.restrict(state.h)
        + PASCAL * grid.restrict(pressure.values),
        opts,
        x0=grid.restrict(state.h),
        precond=ops.height_preconditioner(params, rho_a_pred, params.c / tau + params.lam),
    )
    z0 = np.concatenate([h_pred, rho_a_pred, rho_i_pred])
    z = newton_armijo(
        residual, jacobian, z0, opts,
        linear_solve=linear_solve,
    )
    h_int = z[:ni]
    return State(
        h=grid.embed(h_int),
        w=grid.embed(ops.A @ h_int),
        rho_a=z[ni : ni + na],
        rho_i=z[ni + na :],
        t=state.t + tau,
        step_index=state.step_index + 1,
    )


# ---------------------------------------------------------------------------
# scenario driver


def initial_state(config, grid: Grid) -> tuple[State, PressureField]:
    """Initial fields and pressure for a dynamics scenario config."""
    from .model import disruption_initial

    zeros = np.zeros(grid.num_nodes)
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
    pressure = build_pressure(config, grid)
    return State(h=zeros.copy(), w=zeros.copy(), rho_a=rho_a0, rho_i=rho_i0), pressure


def build_pressure(config, grid: Grid) -> PressureField:
    from .model import pressure_pulse

    desc = config.pressure
    kind = desc.get("kind")
    if kind == "pulse":
        return pressure_pulse(
            grid, peak=desc["peak"], center=tuple(desc["center"]), radius=desc["radius"]
        )
    if kind == "constant":
        return PressureField.constant(grid, desc["value"])
    if kind == "custom":
        values = np.asarray(desc["values"], dtype=float)
        if values.size != grid.num_nodes:
            raise ValueError("custom pressure length does not match the grid")
        return PressureField.custom(values)
    raise ValueError(f"unknown pressure kind {kind!r}")


def simulate(config) -> tuple[State, Diagnostics, dict[int, State]]:
    """Run a scenario for ``final_time / tau`` steps.

    Returns the final state, the per-step diagnostics (with the decay fit
    filled in), and the snapshot states keyed by step index.  Solver failures
    propagate as :class:`StepError` with the partial diagnostics attached.
    """
    grid = _grid_for(config)
    ops = Operators(grid)
    state, pressure = initial_state(config, grid)
    n_steps = int(round(config.final_time / config.tau))
    snapshot_steps = set(config.snapshot_steps)
    diagnostics = Diagnostics()
    snapshots: dict[int, State] = {}
    opts = config.solve_options()

    for _ in range(n_steps):
        prev_h = state.h
        try:
            state = step(state, config.tau, config.params, pressure, grid,
                         config.scheme, opts, ops=ops)
        except StepError as exc:
            diagnostics.fit_decay(config.fit_window)
            exc.diagnostics = diagnostics
            raise
        diagnostics.record(state, prev_h, config.params, grid)
        if state.step_index in snapshot_steps:
            snapshots[state.step_index] = state.copy()

    diagnostics.fit_decay(config.fit_window)
    return state, diagnostics, snapshots


def _grid_for(config) -> Grid:
    from .grid import build_grid

    return build_grid(config.n)
