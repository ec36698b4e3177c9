from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from blebsheet.dynamics import Operators
from blebsheet.grid import build_grid
from blebsheet.linalg import (
    SolveError,
    SolveOptions,
    cg_solve,
    gmres_solve,
    STALL_WINDOW,
    newton_armijo,
)

from dia_forms import as_scipy, canonical_csr


def spm(dense):
    return canonical_csr(sp.csr_matrix(np.asarray(dense, float)))


def cg(J, rhs):
    return cg_solve(J, rhs)


def identity(r):
    return r


def test_cg_identity():
    rng = np.random.default_rng(2)
    b = rng.standard_normal(12)
    x = cg_solve(spm(np.eye(12)), b)
    assert np.allclose(x, b, atol=1e-12)


def test_cg_diagonal():
    x = cg_solve(spm(np.diag([2.0, 4.0])), np.array([2.0, 4.0]))
    assert x == pytest.approx([1.0, 1.0], abs=1e-12)


def test_cg_matches_dense_oracle():
    # 1D Dirichlet Laplacian on 8 interior nodes
    n = 8
    h = 1.0 / (n + 1)
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    b = np.ones(n)
    x = cg_solve(spm(A), b)
    assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-10


def test_cg_zero_rhs():
    x = cg_solve(spm(np.eye(3)), np.zeros(3))
    assert np.array_equal(x, np.zeros(3))


def test_cg_error_monotone_in_operator_norm():
    # CG's guaranteed monotone quantity: ||x_k - x*||_A never increases
    # (the plain residual 2-norm oscillates, even on 1D Laplacians)
    g = build_grid(10)
    A = Operators(g).A
    Ad = as_scipy(A).toarray()
    b = np.ones(g.num_interior)
    x_star = np.linalg.solve(Ad, b)

    errors = []
    # rerun CG manually so each iterate is observable
    x = np.zeros_like(b)
    r = b - Ad @ x
    p = r.copy()
    rs = r @ r
    for _ in range(300):
        e = x - x_star
        errors.append(np.sqrt(e @ (Ad @ e)))
        if np.sqrt(rs) <= 1e-10 * np.linalg.norm(b):
            break
        Ap = Ad @ p
        alpha = rs / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
    errors = np.asarray(errors)
    assert np.all(np.diff(errors) <= 1e-12 * errors[0])

    history = []
    cg_solve(A, b, residual_history=history)
    assert history[-1] <= 1e-10 * np.linalg.norm(b) * 1.01
    assert history[-1] < 1e-8 * history[0]


def test_cg_nonconvergence_carries_residual():
    g = build_grid(12)
    A = Operators(g).A
    b = np.ones(g.num_interior)
    opts = SolveOptions(max_iterations=2)
    for solve in (lambda: cg_solve(A, b, opts), lambda: gmres_solve(A, b, identity, opts)):
        with pytest.raises(SolveError, match="no convergence in 2") as err:
            solve()
        assert err.value.residual_norm > 0.0
        assert err.value.iterate.shape == b.shape


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cg_nonfinite_rhs_raises(bad):
    b = np.array([1.0, bad, 2.0, 3.0])
    for precond in (None, lambda r: 0.5 * r):
        with pytest.raises(SolveError, match="non-finite"):
            cg_solve(spm(np.eye(4)), b, precond=precond)
    with pytest.raises(SolveError, match="non-finite"):
        gmres_solve(spm(np.eye(4)), b, identity)


def test_cg_nonfinite_start_raises():
    # a NaN in x0 makes every comparison of the loop false, so CG returns
    # from no iteration unless the final residual check catches it
    x0 = np.array([0.0, np.nan, 0.0, 0.0])
    with pytest.raises(SolveError, match="cg_solve: non-finite residual nan") as err:
        cg_solve(spm(np.eye(4)), np.ones(4), x0=x0)
    assert np.isnan(err.value.residual_norm)


class _OverflowsAfter:
    """The identity for its first ``products`` products, then all infinite."""

    def __init__(self, products):
        self.left = products

    def __matmul__(self, x):
        self.left -= 1
        return x.copy() if self.left >= 0 else np.full_like(x, np.inf)


def test_gmres_nonfinite_true_residual_raises():
    # the first cycle breaks down at once on the identity, and the true
    # residual of its answer takes the operator's second, infinite product
    with pytest.raises(SolveError, match="gmres_solve: non-finite residual inf") as err:
        gmres_solve(_OverflowsAfter(1), np.ones(4), identity)
    assert np.array_equal(err.value.iterate, np.ones(4))
    assert err.value.residual_norm == np.inf


def test_overflowing_rhs_raises_without_numpy_warnings():
    import warnings

    b = np.full(4, 1e300)  # finite entries whose norm overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (lambda: cg_solve(spm(np.eye(4)), b),
                      lambda: gmres_solve(spm(np.eye(4)), b, identity)):
            with pytest.raises(SolveError, match="entries whose norm overflows") as err:
                solve()
            assert err.value.residual_norm == np.inf
            assert np.array_equal(err.value.iterate, np.zeros(4))


def _reference_cg(A, b, rel_tolerance, x0, max_it, precond):
    """The textbook loop ``cg_solve`` must match bit for bit: it applies
    ``precond`` also to the first residual and after the last iteration,
    and builds new vectors at every update.  Returns the iterate after at
    most ``max_it`` iterations and the residual history."""
    x = np.array(x0, dtype=float)
    r = b - A @ x
    z = r if precond is None else precond(r)
    p = z.copy()
    rs = float(r @ r)
    rz = rs if precond is None else float(r @ z)
    tol = rel_tolerance * np.linalg.norm(b)
    history = [np.sqrt(rs)]
    it = 0
    while np.sqrt(rs) > tol and it < max_it:
        Ap = A @ p
        alpha = rz / float(p @ Ap)
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
        history.append(np.sqrt(rs))
        it += 1
    return x, history


def _spd_system(size, seed):
    # symmetric positive definite, diagonal spread over four decades
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    A = Q @ np.diag(np.logspace(0.0, 3.0, size)) @ Q.T
    d = np.sqrt(np.logspace(0.0, 4.0, size))
    A = d[:, None] * (0.5 * (A + A.T)) * d[None, :]
    return A, rng.standard_normal(size), rng.standard_normal(size)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("jacobi", [False, True])
def test_cg_iterates_bitwise_equal_the_reference_loop(seed, jacobi):
    A, b, x0 = _spd_system(24, seed)
    inv_diag = 1.0 / np.diag(A)
    calls = []

    def apply(r):
        return inv_diag * r

    def counted(r):
        calls.append(None)
        return apply(r)

    precond, reference = (counted, apply) if jacobi else (None, None)
    opts = SolveOptions(rel_tolerance=1e-10)
    history = []
    x = cg_solve(A, b, opts, x0=x0, residual_history=history, precond=precond)
    want_x, want_history = _reference_cg(A, b, 1e-10, x0, np.inf, reference)
    assert np.array_equal(x, want_x)
    assert history == want_history
    iterations = len(history) - 1
    assert iterations > 10
    assert len(calls) == (iterations if jacobi else 0)
    # every intermediate iterate, through the iteration cap's error
    for cap in range(iterations):
        calls.clear()
        with pytest.raises(SolveError, match="no convergence") as err:
            cg_solve(A, b, replace(opts, max_iterations=cap), x0=x0, precond=precond)
        assert len(calls) == (cap if jacobi else 0)
        want, _ = _reference_cg(A, b, 1e-10, x0, cap, reference)
        assert np.array_equal(err.value.iterate, want)


def test_cg_applies_no_preconditioner_to_a_converged_start():
    A, b, _ = _spd_system(24, 0)
    calls = []

    def counted(r):
        calls.append(None)
        return r / np.diag(A)

    x0 = np.linalg.solve(A, b)
    history = []
    x = cg_solve(A, b, x0=x0, residual_history=history, precond=counted)
    assert len(history) == 1 and calls == []
    assert np.array_equal(x, x0)


def _nonsymmetric_system(size, seed):
    rng = np.random.default_rng(seed)
    A = np.diag(np.linspace(1.0, 50.0, size)) + rng.standard_normal((size, size))
    assert np.abs(A - A.T).max() > 1.0
    return A, rng.standard_normal(size)


def test_gmres_matches_dense_solve_nonsymmetric():
    A, b = _nonsymmetric_system(12, 0)
    x = gmres_solve(A, b, identity)
    want = np.linalg.solve(A, b)
    assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def test_gmres_restarts_until_the_true_residual_meets_the_bound():
    # more unknowns than one cycle holds, with no preconditioning
    from blebsheet.linalg import GMRES_RESTART

    A, b = _nonsymmetric_system(3 * GMRES_RESTART, 1)
    calls = []

    def counted(r):
        calls.append(None)
        return r

    x = gmres_solve(A, b, counted, SolveOptions(rel_tolerance=1e-12))
    assert len(calls) > GMRES_RESTART
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(x - np.linalg.solve(A, b)) <= 1e-8 * np.linalg.norm(x)


def test_gmres_exact_preconditioner_takes_one_iteration():
    A, b = _nonsymmetric_system(12, 2)
    calls = []

    def exact(r):
        calls.append(None)
        return np.linalg.solve(A, r)

    x = gmres_solve(A, b, exact)
    assert len(calls) == 1
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def test_gmres_stalls_below_its_roundoff_floor():
    # the true residual cannot fall below about 1e-16 ||b||; without the
    # stall test every later cycle would run until max_iterations
    from blebsheet.linalg import GMRES_RESTART

    A, b = _nonsymmetric_system(12, 1)
    calls = []

    def counted(r):
        calls.append(None)
        return r

    with pytest.raises(SolveError, match="stalled") as err:
        gmres_solve(A, b, counted, SolveOptions(rel_tolerance=1e-17))
    assert len(calls) <= 3 * GMRES_RESTART
    assert err.value.residual_norm <= 1e-14 * np.linalg.norm(b)
    assert np.linalg.norm(b - A @ err.value.iterate) == err.value.residual_norm


class _CycleRecorder:
    """A dense matrix and an identity preconditioner that record each GMRES
    cycle's iteration count and answer.  A cycle ends on the product that
    gives its true residual, the only product not preceded by a
    preconditioner call."""

    def __init__(self, A):
        self.A, self.cycles, self.answers = A, [], []
        self._iters, self._after_precond = 0, False

    def __matmul__(self, x):
        if not self._after_precond:
            self.cycles.append(self._iters)
            self.answers.append(x.copy())
            self._iters = 0
        self._after_precond = False
        return self.A @ x

    def precond(self, r):
        self._iters += 1
        self._after_precond = True
        return r


def test_gmres_ends_its_cycle_at_a_happy_breakdown():
    # 12 iterations span the whole space; the 13th Krylov vector is roundoff,
    # so the first cycle ends there instead of dividing by roundoff.  Its
    # answer misses a target of 1e-15 ||b||, and one restart from it meets
    # the target: raising as stalled at the breakdown gave up too early.  A
    # target of 1e-17 ||b|| lies below the roundoff floor and still raises
    A, b = _nonsymmetric_system(12, 1)
    want = np.linalg.solve(A, b)
    rec = _CycleRecorder(A)
    x = gmres_solve(rec, b, rec.precond, SolveOptions(rel_tolerance=1e-15))
    assert rec.cycles[0] == 12 and len(rec.cycles) >= 2
    assert np.linalg.norm(b - A @ x) <= 1e-15 * np.linalg.norm(b)
    assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)

    rec = _CycleRecorder(A)
    with pytest.raises(SolveError, match="stalled") as err:
        gmres_solve(rec, b, rec.precond, SolveOptions(rel_tolerance=1e-17))
    assert rec.cycles[0] == 12
    assert np.linalg.norm(err.value.iterate - want) <= 1e-14 * np.linalg.norm(want)
    assert err.value.residual_norm <= 1e-14 * np.linalg.norm(b)


def test_gmres_exhausts_a_full_krylov_space_in_one_cycle():
    # 30 iterations span all 30 unknowns.  With Gram-Schmidt applied twice
    # the cycle's answer is as exact as the arithmetic allows; one pass left
    # up to 7.6e-5 of the 31st Krylov vector and continued on noise
    # directions.  Where that answer misses a target of 1e-14 ||b||, a
    # restart from it meets the target; raising as stalled at the breakdown
    # failed 45 of these 200 solves.  A target of 1e-17 ||b|| still stalls
    for seed in range(200):
        A, b = _nonsymmetric_system(30, seed)
        rec = _CycleRecorder(A)
        x = gmres_solve(rec, b, rec.precond, SolveOptions(rel_tolerance=1e-14))
        assert np.linalg.norm(b - A @ x) <= 1e-14 * np.linalg.norm(b), seed
        assert rec.cycles[0] == 30, seed
        first = rec.answers[0]
        want = np.linalg.solve(A, b)
        assert np.linalg.norm(first - want) <= 1e-12 * np.linalg.norm(want), seed
        assert np.linalg.norm(b - A @ first) <= 1e-12 * np.linalg.norm(b), seed

    with pytest.raises(SolveError, match="stalled"):
        gmres_solve(A, b, identity, SolveOptions(rel_tolerance=1e-17))


def test_gmres_zero_rhs_and_nonfinite_preconditioner():
    A, b = _nonsymmetric_system(6, 3)
    assert np.array_equal(gmres_solve(A, np.zeros(6), identity), np.zeros(6))
    with pytest.raises(SolveError, match="non-finite") as err:
        gmres_solve(A, b, lambda r: np.full_like(r, np.nan))
    assert np.array_equal(err.value.iterate, np.zeros(6))


def test_solve_options_validation():
    for tol in (-1.0, 0.0, 1.0, 2.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            SolveOptions(rel_tolerance=tol)
    with pytest.raises(ValueError):
        SolveOptions(newton_grad_tol=0.0)


def test_tight_options_lower_only_the_tolerance():
    opts = SolveOptions(max_iterations=7, newton_grad_tol=1e-8, newton_max_iter=3)
    assert opts.tight() == replace(opts, rel_tolerance=1e-12)
    tighter = SolveOptions(rel_tolerance=1e-14)
    assert tighter.tight() == tighter


def test_newton_linear_one_step():
    b = np.array([3.0, -1.0, 2.0])
    x = newton_armijo(
        residual=lambda x: x - b,
        jacobian=lambda x: spm(np.eye(3)),
        x0=np.zeros(3),
        opts=SolveOptions(newton_max_iter=1),
        linear_solve=cg,
    )
    assert np.allclose(x, b, atol=1e-12)


def _bisect_root(f, lo, hi, tol=1e-14):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_newton_cubic_matches_bisection():
    oracle = _bisect_root(lambda x: x**3 - 8.0, 0.0, 3.0)
    x = newton_armijo(
        residual=lambda x: x**3 - 8.0,
        jacobian=lambda x: np.array([[3.0 * x[0] ** 2]]),
        x0=np.array([3.0]),
        linear_solve=cg,
    )
    assert x[0] == pytest.approx(oracle, abs=1e-10)
    assert x[0] == pytest.approx(2.0, abs=1e-10)


def test_newton_zero_residual_returns_start():
    x0 = np.array([1.5, -0.5])
    x = newton_armijo(
        residual=lambda x: np.zeros_like(x),
        jacobian=lambda x: spm(np.eye(2)),
        x0=x0,
        linear_solve=cg,
    )
    assert np.array_equal(x, x0)


def test_newton_superlinear_on_cubic():
    iterates = []

    def residual(x):
        iterates.append(float(x[0]))
        return x**3 - 8.0

    newton_armijo(
        residual,
        lambda x: np.array([[3.0 * x[0] ** 2]]),
        np.array([3.0]),
        SolveOptions(newton_grad_tol=1e-13),
        linear_solve=cg,
    )
    errs = np.abs(np.unique(iterates) - 2.0)
    errs = np.sort(errs[errs > 1e-14])[::-1]
    # quadratic contraction: e_{k+1} / e_k^2 stays bounded
    ratios = [errs[i + 1] / errs[i] ** 2 for i in range(len(errs) - 1)]
    assert max(ratios) < 10.0


def test_newton_line_search_failure():
    # two residuals no step lowers, each searched down to the 1e-14 floor: a
    # Jacobian of the wrong sign promises descent along a direction in which
    # |F| grows, and F = 1 does not move at all.  Below half an ulp of the
    # merit the Armijo test alone passes such a step; F = 1 then ended as
    # stalled after five iterations and 216 residual evaluations
    for F, sign in ((lambda x: x + 1.0, -1.0), (lambda x: np.ones(1), 1.0)):
        evaluations = []

        def residual(x):
            evaluations.append(None)
            return F(x)

        with pytest.raises(SolveError, match=r"line search failed \(step below 1e-14\)") as err:
            newton_armijo(residual, lambda x: sign * np.eye(1), np.zeros(1),
                          linear_solve=lambda J, rhs: np.linalg.solve(J, rhs))
        assert len(evaluations) == 1 + 47  # the start, then steps 1, 1/2, ..., 2**-46
        assert np.array_equal(err.value.iterate, np.zeros(1))
        assert err.value.residual_norm == 1.0


def test_newton_stops_at_the_callers_floor():
    # a residual that no step takes below 1e-6 once the iterate is within
    # 2e-6 of the root: without a floor the line search fails there, with a
    # floor of 1e-6 sup|x|, zero at the start, Newton stops after its one step
    q = 1e-6

    def residual(x):
        return np.where(np.abs(x - 1.0) >= 2.0 * q, x - 1.0, q)

    def run(**floor):
        return newton_armijo(residual, lambda x: np.eye(2), np.zeros(2),
                             linear_solve=lambda J, rhs: np.linalg.solve(J, rhs), **floor)

    with pytest.raises(SolveError, match="line search failed") as err:
        run()
    assert np.array_equal(err.value.iterate, np.ones(2))
    assert err.value.residual_norm == q
    assert np.array_equal(run(floor=lambda x: q * np.max(np.abs(x))), np.ones(2))


def test_newton_linear_solve_failure_carries_the_newton_iterate():
    # the failed solve's partial answer is a direction: the error names the
    # Newton iterate and its residual, with the solve's message and cause
    def failing(J, rhs):
        raise SolveError("cg_solve: no convergence in 1 iterations", np.full(2, 7.0), 3.0)

    with pytest.raises(SolveError, match="cg_solve: no convergence in 1 ") as err:
        newton_armijo(lambda x: x - np.array([1.0, -4.0]), lambda x: np.eye(2),
                      np.zeros(2), linear_solve=failing)
    assert np.array_equal(err.value.iterate, np.zeros(2))
    assert err.value.residual_norm == 4.0
    assert err.value.__cause__.residual_norm == 3.0


def test_newton_iteration_cap():
    with pytest.raises(SolveError, match="no convergence in 2") as err:
        newton_armijo(
            residual=lambda x: x**3 - 8.0,
            jacobian=lambda x: np.array([[3.0 * x[0] ** 2]]),
            x0=np.array([50.0]),
            opts=SolveOptions(newton_max_iter=2),
            linear_solve=cg,
        )
    assert err.value.residual_norm > 0.0


def test_newton_nonfinite_start_raises_at_once():
    # a solve that passes NaN through would otherwise send the line search
    # down to its 1e-14 floor
    evaluations = []

    def residual(x):
        evaluations.append(None)
        return x + np.nan

    with pytest.raises(SolveError, match="non-finite residual at the start point"):
        newton_armijo(residual, lambda x: np.eye(2), np.zeros(2),
                      linear_solve=lambda J, rhs: np.linalg.solve(J, rhs))
    assert len(evaluations) == 1


def test_newton_nonfinite_trial_residual_raises_at_once():
    # the full step lands where the residual is NaN; the NaN merit would fail
    # the Armijo test down to the 1e-14 floor and read as a failed line search
    evaluations = []

    def residual(x):
        evaluations.append(None)
        return x - 1.0 if x[0] < 0.5 else x + np.nan

    with pytest.raises(SolveError, match="non-finite residual at the trial step") as err:
        newton_armijo(residual, lambda x: np.eye(2), np.zeros(2),
                      linear_solve=lambda J, rhs: np.linalg.solve(J, rhs))
    assert len(evaluations) == 2
    assert np.array_equal(err.value.iterate, np.zeros(2))
    assert err.value.residual_norm == 1.0


def test_newton_rejects_an_ascent_direction():
    evaluations = []

    def residual(x):
        evaluations.append(None)
        return x - 1.0

    with pytest.raises(SolveError, match="no descent direction"):
        newton_armijo(residual, lambda x: np.eye(2), np.zeros(2),
                      linear_solve=lambda J, rhs: -rhs)
    assert len(evaluations) == 1


def test_newton_raises_once_the_residual_stalls():
    # a tenth of the Newton step cuts |F| by 0.9 per iteration: 1.69x in five
    jacobians = []

    def jacobian(x):
        jacobians.append(None)
        return np.eye(1)

    with pytest.raises(SolveError, match="stalled") as err:
        newton_armijo(lambda x: x - 1.0, jacobian, np.zeros(1),
                      linear_solve=lambda J, rhs: 0.1 * np.linalg.solve(J, rhs))
    assert len(jacobians) == STALL_WINDOW
    assert err.value.residual_norm == pytest.approx(0.9**STALL_WINDOW)


def test_newton_requires_a_linear_solve():
    with pytest.raises(TypeError):
        newton_armijo(lambda x: x, lambda x: np.eye(1), np.zeros(1))
