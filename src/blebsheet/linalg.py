"""Conjugate-gradient solves and a damped Newton method.

Both solvers take any operator that supports ``A @ x``: a scipy CSR
matrix (a grid Laplacian or a density matrix), a matrix-free height
operator, or a Newton Jacobian.
Failures raise instead of returning silently wrong vectors, and the raised
errors carry the last iterate so callers can inspect partial progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: Sufficient-decrease constant of the Armijo line searches.
ARMIJO_C1 = 1e-4
#: Step-length factor of each backtrack of the Armijo line searches.
BACKTRACK_FACTOR = 0.5


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and iteration limits shared by the linear and Newton solvers.

    ``max_iterations`` of ``None`` means ten times the system size.
    """

    rel_tolerance: float = 1e-10
    max_iterations: Optional[int] = None
    newton_grad_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        # written so that NaN fails both checks
        if not 0.0 < self.rel_tolerance < 1.0:
            raise ValueError(f"rel_tolerance must lie in (0, 1), got {self.rel_tolerance!r}")
        if not self.newton_grad_tol > 0.0:
            raise ValueError("newton_grad_tol must be positive")


class LinearSolveError(RuntimeError):
    """A linear solve failed to reach the requested tolerance."""

    def __init__(self, message: str, iterate: np.ndarray, residual_norm: float):
        super().__init__(message)
        self.iterate = iterate
        self.residual_norm = residual_norm


class SweepLimitError(LinearSolveError):
    """A block Gauss-Seidel loop reached its sweep cap.

    ``increment`` is the sup norm of the change made by the last sweep.
    """

    def __init__(self, message: str, iterate: np.ndarray, residual_norm: float,
                 increment: float):
        super().__init__(message, iterate, residual_norm)
        self.increment = increment


class NewtonError(RuntimeError):
    """Newton iteration stalled or hit its iteration cap."""

    def __init__(self, message: str, iterate: np.ndarray, residual_norm: float):
        super().__init__(message)
        self.iterate = iterate
        self.residual_norm = residual_norm


def cg_solve(
    A,
    b: np.ndarray,
    opts: SolveOptions = SolveOptions(),
    x0: Optional[np.ndarray] = None,
    residual_history: Optional[list] = None,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Solve ``A x = b`` for symmetric positive (semi)definite ``A``.

    Stops when ``||A x - b|| <= rel_tolerance * ||b||``, and raises
    :class:`LinearSolveError` if ``||b||`` or the final residual is not
    finite.  ``x0`` warm-starts the iteration (time steppers pass the
    previous field).  If a list is given as ``residual_history`` the
    per-iteration residual norms are appended to it.

    ``precond(r)`` applies a symmetric positive definite approximation of
    ``A^-1`` (preconditioned CG).  The stop test and the history stay on
    the unpreconditioned residual ``r``, so they mean the same with and
    without it; with ``precond=None`` the iteration is plain CG.
    """
    b = np.asarray(b, dtype=float)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros_like(b)

    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    z = r if precond is None else precond(r)
    p = z.copy()
    rs = float(r @ r)
    rz = rs if precond is None else float(r @ z)
    tol = opts.rel_tolerance * nb
    max_it = opts.max_iterations if opts.max_iterations is not None else 10 * b.size

    if residual_history is not None:
        residual_history.append(np.sqrt(rs))
    it = 0
    while np.sqrt(rs) > tol:
        if it >= max_it:
            raise LinearSolveError(
                f"cg_solve: no convergence in {max_it} iterations "
                f"(residual {np.sqrt(rs):.3e}, target {tol:.3e})",
                x,
                float(np.sqrt(rs)),
            )
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise LinearSolveError(
                f"cg_solve: operator not positive definite (p.Ap = {pAp:.3e})",
                x,
                float(np.sqrt(rs)),
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rs = float(r @ r)
        if precond is None:
            z, rz_new = r, rs
        else:
            z = precond(r)
            rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        if residual_history is not None:
            residual_history.append(np.sqrt(rs))
        it += 1
    # a NaN or Inf in b or x0 makes every comparison above false
    if not (np.isfinite(nb) and np.isfinite(rs)):
        raise LinearSolveError(
            f"cg_solve: non-finite right-hand side or residual "
            f"(|b| = {nb:.3e}, residual {np.sqrt(rs):.3e})",
            x,
            float(np.sqrt(rs)),
        )
    return x


def _default_linear_solve(opts: SolveOptions) -> Callable:
    def solve(jac, rhs):
        return cg_solve(jac, rhs, opts)

    return solve


def newton_armijo(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], object],
    x0: np.ndarray,
    opts: SolveOptions = SolveOptions(),
    linear_solve: Optional[Callable] = None,
) -> np.ndarray:
    """Damped Newton iteration on ``residual(x) = 0``.

    The merit function is ``0.5 * ||residual||**2``; a step is accepted once
    it decreases the merit by at least ``ARMIJO_C1 * alpha * m'`` where
    ``m'`` is the directional derivative along the Newton direction.
    Convergence is declared at ``||residual||_inf <= newton_grad_tol``.

    ``jacobian(x)`` must return an object supporting ``J @ v``; the Newton
    systems are handed to ``linear_solve(J, rhs)`` (conjugate gradients by
    default, so pass a custom solver for nonsymmetric Jacobians).
    """
    if linear_solve is None:
        linear_solve = _default_linear_solve(opts)

    x = np.array(x0, dtype=float)
    F = np.asarray(residual(x), dtype=float)
    for _ in range(opts.newton_max_iter):
        if np.max(np.abs(F)) <= opts.newton_grad_tol:
            return x
        J = jacobian(x)
        d = linear_solve(J, -F)
        # directional derivative of the merit along d
        slope = float(F @ (J @ d))
        if slope >= 0.0:
            # inexact solve produced an ascent direction; fall back to -F
            d = -F
            slope = -float(F @ F)
        merit = 0.5 * float(F @ F)
        alpha = 1.0
        while True:
            x_trial = x + alpha * d
            F_trial = np.asarray(residual(x_trial), dtype=float)
            merit_trial = 0.5 * float(F_trial @ F_trial)
            if merit_trial <= merit + ARMIJO_C1 * alpha * slope:
                break
            alpha *= BACKTRACK_FACTOR
            if alpha < 1e-14:
                raise NewtonError(
                    "newton_armijo: line search failed (step below 1e-14)",
                    x,
                    float(np.max(np.abs(F))),
                )
        x = x_trial
        F = F_trial
    if np.max(np.abs(F)) <= opts.newton_grad_tol:
        return x
    raise NewtonError(
        f"newton_armijo: no convergence in {opts.newton_max_iter} iterations "
        f"(|residual|_inf = {np.max(np.abs(F)):.3e})",
        x,
        float(np.max(np.abs(F))),
    )
