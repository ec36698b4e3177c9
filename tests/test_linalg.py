import numpy as np
import pytest
import scipy.sparse as sp

from blebsheet.grid import SparseMatrix, assemble_laplacian, build_grid
from blebsheet.linalg import (
    LinearSolveError,
    NewtonError,
    SolveOptions,
    cg_solve,
    newton_armijo,
)


def spm(dense):
    return SparseMatrix.from_scipy(sp.csr_matrix(np.asarray(dense, float)))


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
    A = assemble_laplacian(g, "dirichlet0")
    Ad = A.toarray()
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
    A = assemble_laplacian(g, "dirichlet0")
    b = np.ones(g.num_interior)
    with pytest.raises(LinearSolveError) as err:
        cg_solve(A, b, SolveOptions(max_iterations=2))
    assert err.value.residual_norm > 0.0
    assert err.value.iterate.shape == b.shape


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cg_nonfinite_rhs_raises(bad):
    b = np.array([1.0, bad, 2.0, 3.0])
    for precond in (None, lambda r: 0.5 * r):
        with pytest.raises(LinearSolveError, match="non-finite"):
            cg_solve(spm(np.eye(4)), b, precond=precond)


def test_solve_options_validation():
    for tol in (-1.0, 0.0, 1.0, 2.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            SolveOptions(rel_tolerance=tol)
    with pytest.raises(ValueError):
        SolveOptions(newton_grad_tol=0.0)


def test_newton_linear_one_step():
    b = np.array([3.0, -1.0, 2.0])
    x = newton_armijo(
        residual=lambda x: x - b,
        jacobian=lambda x: spm(np.eye(3)),
        x0=np.zeros(3),
        opts=SolveOptions(newton_max_iter=1),
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
    )
    assert x[0] == pytest.approx(oracle, abs=1e-10)
    assert x[0] == pytest.approx(2.0, abs=1e-10)


def test_newton_zero_residual_returns_start():
    x0 = np.array([1.5, -0.5])
    x = newton_armijo(
        residual=lambda x: np.zeros_like(x),
        jacobian=lambda x: spm(np.eye(2)),
        x0=x0,
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
    )
    errs = np.abs(np.unique(iterates) - 2.0)
    errs = np.sort(errs[errs > 1e-14])[::-1]
    # quadratic contraction: e_{k+1} / e_k^2 stays bounded
    ratios = [errs[i + 1] / errs[i] ** 2 for i in range(len(errs) - 1)]
    assert max(ratios) < 10.0


def test_newton_line_search_failure():
    with pytest.raises(NewtonError):
        newton_armijo(
            residual=lambda x: np.array([1.0]),  # no root anywhere
            jacobian=lambda x: np.array([[1.0]]),
            x0=np.array([0.0]),
        )


def test_newton_iteration_cap():
    with pytest.raises(NewtonError) as err:
        newton_armijo(
            residual=lambda x: x**3 - 8.0,
            jacobian=lambda x: np.array([[3.0 * x[0] ** 2]]),
            x0=np.array([50.0]),
            opts=SolveOptions(newton_max_iter=2),
        )
    assert err.value.residual_norm > 0.0
