"""Conjugate-gradient and GMRES solves and a damped Newton method.

The solvers take any operator that supports ``A @ x``: a
:class:`~blebsheet.grid.DiaMatrix` (a grid Laplacian or a density matrix),
a matrix-free height operator, or a Newton Jacobian.
Failures raise :class:`SolveError` instead of returning silently wrong
vectors, with the last iterate so callers can inspect partial progress.
``dynamics.StepError`` and ``stationary.StationaryError`` subclass it; it
and its subclasses alone map to the CLI's exit code 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

#: Sufficient-decrease constant of the Armijo line searches.
ARMIJO_C1 = 1e-4
#: Step-length factor of each backtrack of the Armijo line searches.
BACKTRACK_FACTOR = 0.5
#: Iterations per cycle of restarted GMRES.
GMRES_RESTART = 30
#: A GMRES cycle ends once orthogonalization leaves less than this share of
#: the norm of the new Krylov vector: the rest is roundoff, the Krylov space
#: is exhausted, and the cycle's answer is as exact as the arithmetic allows.
GMRES_BREAKDOWN = 1e-10
#: ``newton_armijo``'s default stop on ``|F|_inf`` and its iteration cap.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
#: ``newton_armijo`` gives up as stalled once ``|F|_inf`` has fallen by less
#: than ``STALL_FACTOR`` over the last ``STALL_WINDOW`` iterations.
STALL_WINDOW = 5
STALL_FACTOR = 2.0
#: Relative tolerance of the solves whose residual a conserved mass or an
#: outer iteration inherits (:meth:`SolveOptions.tight`).
TIGHT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SolveOptions:
    """Stop rule of the linear solves: a config's ``rel_tolerance`` and ``max_iterations``.

    ``max_iterations`` of ``None`` means ten times the system size.
    """

    rel_tolerance: float = 1e-10
    max_iterations: Optional[int] = None

    def __post_init__(self):
        # written so that NaN fails the check
        if not 0.0 < self.rel_tolerance < 1.0:
            raise ValueError(f"rel_tolerance must lie in (0, 1), got {self.rel_tolerance!r}")

    def tight(self) -> "SolveOptions":
        """These options with ``rel_tolerance`` at most ``TIGHT_TOLERANCE``.

        For the density solves of a time step, whose residual the linker
        mass inherits, the Newton systems of a fully implicit step, and the
        last Picard iterations of a stationary solve.
        """
        return replace(self, rel_tolerance=min(self.rel_tolerance, TIGHT_TOLERANCE))


class SolveError(RuntimeError):
    """A linear, Newton or outer solve failed; carries its last iterate and residual norm."""

    def __init__(self, message: str, iterate: Optional[np.ndarray] = None,
                 residual_norm: Optional[float] = None):
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
    :class:`SolveError` if ``||b||`` or the final residual is not
    finite.  ``x0`` warm-starts the iteration (time steppers pass the
    previous field).  If a list is given as ``residual_history`` the
    per-iteration residual norms are appended to it.

    ``precond(r)`` applies a symmetric positive definite approximation of
    ``A^-1`` (preconditioned CG).  The stop test and the history stay on
    the unpreconditioned residual ``r``, so they mean the same with and
    without it; with ``precond=None`` the iteration is plain CG.  ``precond``
    is applied only after the stop test has failed, so a solve calls it
    once per iteration and not at all when ``x0`` already meets the test.
    ``x``, ``r`` and ``p`` are updated in place through one work vector.
    """
    b = np.asarray(b, dtype=float)
    nb = _rhs_norm(b, "cg_solve")
    if nb == 0.0:
        return np.zeros_like(b)

    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x
    rs = float(r @ r)
    tol = opts.rel_tolerance * nb
    max_it = opts.max_iterations if opts.max_iterations is not None else 10 * b.size
    work = np.empty_like(b)

    if residual_history is not None:
        residual_history.append(np.sqrt(rs))
    it = 0
    while np.sqrt(rs) > tol:
        if it >= max_it:
            raise SolveError(
                f"cg_solve: no convergence in {max_it} iterations "
                f"(residual {np.sqrt(rs):.3e}, target {tol:.3e})",
                x,
                float(np.sqrt(rs)),
            )
        if precond is None:
            z, rz_new = r, rs
        else:
            z = precond(r)
            rz_new = float(r @ z)
        if it == 0:
            p = z.copy()
        else:  # p = z + beta p, in place
            p *= rz_new / rz
            p += z
        rz = rz_new
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolveError(
                f"cg_solve: operator not positive definite (p.Ap = {pAp:.3e})",
                x,
                float(np.sqrt(rs)),
            )
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=work)
        r -= np.multiply(alpha, Ap, out=work)
        rs = float(r @ r)
        if residual_history is not None:
            residual_history.append(np.sqrt(rs))
        it += 1
    # a NaN or Inf in x0 makes every comparison above false
    if not np.isfinite(rs):
        raise SolveError(f"cg_solve: non-finite residual {np.sqrt(rs):.3e}", x,
                         float(np.sqrt(rs)))
    return x


def _rhs_norm(b: np.ndarray, solver: str) -> float:
    """``||b||``; a non-finite norm raises :class:`SolveError`, with no numpy warning."""
    with np.errstate(over="ignore"):
        nb = float(np.linalg.norm(b))
    if not np.isfinite(nb):
        why = "a NaN or Inf entry" if not np.isfinite(b).all() else "entries whose norm overflows"
        raise SolveError(f"{solver}: non-finite right-hand side norm ({why})",
                         np.zeros_like(b), nb)
    return nb


def gmres_solve(A, b: np.ndarray, precond: Callable[[np.ndarray], np.ndarray],
                opts: SolveOptions = SolveOptions()) -> np.ndarray:
    """Solve ``A x = b`` for nonsingular, possibly nonsymmetric ``A``.

    Restarted GMRES (Saad & Schultz 1986), right-preconditioned by
    ``precond(v) ~ A^-1 v``.  The update is built from the stored
    ``precond`` outputs, as in flexible GMRES (Saad 1993), which saves one
    ``precond`` application per cycle.  Every cycle of at most
    ``GMRES_RESTART`` iterations ends on the true residual, with the stop
    test of :func:`cg_solve`.  A cycle also ends at a happy breakdown, once
    the new Krylov vector lies in the space already spanned up to
    ``GMRES_BREAKDOWN``, instead of dividing by roundoff; modified
    Gram-Schmidt runs twice, so that roundoff is all that is left.  A cycle
    that ends at a breakdown short of the target restarts from its answer,
    like any other, which is a step of iterative refinement.  Raises
    :class:`SolveError` after ``max_iterations`` iterations, on a
    non-finite ``b`` or residual, and as stalled once a cycle ends without
    lowering the true residual: the target then lies below the roundoff
    floor of ``b - A x``.
    """
    b = np.asarray(b, dtype=float)
    nb = _rhs_norm(b, "gmres_solve")
    tol = opts.rel_tolerance * nb
    max_it = opts.max_iterations if opts.max_iterations is not None else 10 * b.size
    x, r, it, prev = np.zeros_like(b), b, 0, np.inf
    while True:
        beta = float(np.linalg.norm(r))
        if not np.isfinite(beta):
            raise SolveError(f"gmres_solve: non-finite residual {beta:.3e}", x, beta)
        if beta <= tol:
            return x
        if it >= max_it or beta >= prev:
            why = f"no convergence in {max_it}" if it >= max_it else f"stalled after {it}"
            raise SolveError(f"gmres_solve: {why} iterations (residual {beta:.3e}, "
                             f"target {tol:.3e})", x, beta)
        prev = beta
        m = min(GMRES_RESTART, max_it - it)
        V, Z, H = [r / beta], [], np.zeros((m + 1, m))  # the basis grows as it is built
        g = np.zeros(m + 1)
        g[0] = beta
        for j in range(m):
            Z.append(precond(V[j]))
            v = A @ Z[j]
            v_norm = np.linalg.norm(v)
            for _ in range(2):  # modified Gram-Schmidt, twice
                for i in range(j + 1):
                    h = V[i] @ v
                    H[i, j] += h
                    v -= h * V[i]
            H[j + 1, j] = np.linalg.norm(v)
            it += 1
            if not np.isfinite(H[j + 1, j]):
                raise SolveError("gmres_solve: non-finite residual", x, beta)
            y = np.linalg.lstsq(H[: j + 2, : j + 1], g[: j + 2], rcond=None)[0]
            exhausted = H[j + 1, j] <= GMRES_BREAKDOWN * v_norm
            if exhausted or np.linalg.norm(g[: j + 2] - H[: j + 2, : j + 1] @ y) <= tol:
                break
            V.append(v / H[j + 1, j])
        x = x + np.array(Z).T @ y
        r = b - A @ x


def newton_armijo(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], object],
    x0: np.ndarray,
    *,
    linear_solve: Callable[[object, np.ndarray], np.ndarray],
    tol: Callable[[np.ndarray], float] = lambda x: NEWTON_TOL,
) -> np.ndarray:
    """Damped Newton iteration on ``residual(x) = 0``.

    The merit function is ``0.5 * ||residual||**2``; a step is accepted once
    it decreases the merit strictly and by at least ``ARMIJO_C1 * alpha * m'``
    where ``m'`` is the directional derivative along the Newton direction.
    Convergence is declared at ``||residual||_inf <= tol(x)``, within
    ``NEWTON_MAX_ITER`` iterations.

    ``jacobian(x)`` must return an object supporting ``J @ v``; the Newton
    systems are handed to ``linear_solve(J, rhs)``.  Raises
    :class:`SolveError` at once if ``residual(x0)`` or a trial step's
    residual is not finite, with the last finite iterate, and as stalled
    once ``||residual||_inf`` has fallen by less than ``STALL_FACTOR`` over
    ``STALL_WINDOW`` iterations.  A :class:`SolveError` of ``linear_solve``
    is raised again with its message, the Newton iterate and its residual
    sup norm.
    """
    x = np.array(x0, dtype=float)
    F = np.asarray(residual(x), dtype=float)
    if not np.all(np.isfinite(F)):
        raise SolveError("newton_armijo: non-finite residual at the start point", x,
                         float(np.max(np.abs(F))))
    sups = []
    for it in range(NEWTON_MAX_ITER + 1):
        sups.append(float(np.max(np.abs(F))))
        if sups[-1] <= tol(x):
            return x
        if it == NEWTON_MAX_ITER:
            raise SolveError(f"newton_armijo: no convergence in {NEWTON_MAX_ITER} "
                             f"iterations (|residual|_inf = {sups[-1]:.3e})", x, sups[-1])
        if it >= STALL_WINDOW and sups[-1] * STALL_FACTOR > sups[-1 - STALL_WINDOW]:
            raise SolveError(f"newton_armijo: stalled at |residual|_inf = {sups[-1]:.3e} "
                             f"(fell less than {STALL_FACTOR:g}x in {STALL_WINDOW} "
                             f"iterations)", x, sups[-1])
        J = jacobian(x)
        try:
            d = linear_solve(J, -F)
        except SolveError as exc:
            # the linear solve's partial answer is a direction, not an iterate
            raise SolveError(str(exc), x, sups[-1]) from exc
        # directional derivative of the merit along d
        slope = float(F @ (J @ d))
        if not slope < 0.0:
            raise SolveError(f"newton_armijo: linear solve gave no descent direction "
                             f"(slope {slope:.3e})", x, sups[-1])
        merit = 0.5 * float(F @ F)
        alpha = 1.0
        while True:
            x_trial = x + alpha * d
            F_trial = np.asarray(residual(x_trial), dtype=float)
            if not np.all(np.isfinite(F_trial)):
                raise SolveError(f"newton_armijo: non-finite residual at the trial step "
                                 f"(alpha = {alpha:.3e})", x, sups[-1])
            merit_trial = 0.5 * float(F_trial @ F_trial)
            # once ARMIJO_C1 * alpha * |slope| is below half an ulp of the
            # merit, the Armijo test alone passes a step that lowers nothing
            if merit_trial < merit and merit_trial <= merit + ARMIJO_C1 * alpha * slope:
                break
            alpha *= BACKTRACK_FACTOR
            if alpha < 1e-14:
                raise SolveError("newton_armijo: line search failed (step below 1e-14)",
                                 x, sups[-1])
        x, F = x_trial, F_trial
