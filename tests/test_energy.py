import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from blebsheet.dynamics import Operators
from blebsheet.energy import (
    density_primitive,
    eval_J_theta,
    euler_lagrange_residual_J0,
    gamma_ladder,
    minimize_J,
)
from blebsheet.grid import build_grid
from blebsheet.linalg import SolveError, SolveOptions
from blebsheet.model import (
    PASCAL,
    ModelParams,
    g_theta,
    pressure_pulse,
)

from dia_forms import as_scipy

PARAMS = ModelParams()
LADDER = (1e-2, 1e-3, 1e-4, 1e-5)


def bump(grid, amplitude=0.8):
    return amplitude * np.sin(np.pi * grid.node_x) * np.sin(np.pi * grid.node_y)


def adaptive_simpson(f, a, b, tol=1e-13, depth=40):
    def simpson(a, b):
        c = 0.5 * (a + b)
        return (b - a) / 6.0 * (f(a) + 4.0 * f(c) + f(b))

    def recurse(a, b, whole, tol, depth):
        c = 0.5 * (a + b)
        left = simpson(a, c)
        right = simpson(c, b)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, c, left, tol / 2.0, depth - 1) + recurse(
            c, b, right, tol / 2.0, depth - 1
        )

    return recurse(a, b, simpson(a, b), tol, depth)


def test_zero_field_zero_energy():
    grid = build_grid(8)
    p = pressure_pulse(grid, peak=100.0)
    zero = np.zeros(grid.num_nodes)
    assert eval_J_theta(zero, 1e-3, 1.0, PARAMS, p, grid) == 0.0
    assert eval_J_theta(zero, 0.0, 1.0, PARAMS, p, grid) == 0.0


def test_functionals_agree_below_critical_height():
    grid = build_grid(10)
    p = pressure_pulse(grid, peak=100.0)
    h = bump(grid, amplitude=0.4)  # everywhere below h* = 0.5
    for theta in LADDER:
        assert eval_J_theta(h, theta, 1.3, PARAMS, p, grid) == pytest.approx(
            eval_J_theta(h, 0.0, 1.3, PARAMS, p, grid), rel=1e-14
        )


def test_sharp_functional_is_the_limit_below_minus_h_star():
    grid = build_grid(8)
    p = np.zeros(grid.num_nodes)
    h = -bump(grid)  # dips below -h_star, where J_0 keeps the full spring
    assert h.min() < -PARAMS.h_star
    J_0 = eval_J_theta(h, 0.0, 1.0, PARAMS, p, grid)
    J_sharp = eval_J_theta(h, 1e-8, 1.0, PARAMS, p, grid)
    assert abs(J_sharp - J_0) <= 1e-9 * abs(J_0)


def test_sharp_gradient_matches_finite_differences_below_minus_h_star():
    from blebsheet.energy import _gradient

    grid = build_grid(8)
    ops = Operators(grid)
    p = np.zeros(grid.num_nodes)
    h_int = grid.restrict(-bump(grid))
    j = int(np.argmin(h_int))
    grad = _gradient(0.0, 1.0, PARAMS, p, grid, ops, h_int)
    eps = 1e-4  # J_0 is quadratic near h = -0.8, so only roundoff remains
    e = np.zeros(grid.num_interior)
    e[j] = eps
    J_plus = eval_J_theta(grid.embed(h_int + e), 0.0, 1.0, PARAMS, p, grid, ops)
    J_minus = eval_J_theta(grid.embed(h_int - e), 0.0, 1.0, PARAMS, p, grid, ops)
    fd = (J_plus - J_minus) / (2.0 * eps)
    # _gradient is the strong form, dJ/dh over the node weight
    assert fd == pytest.approx(grid.spacing**2 * grad[j], rel=1e-8)


def test_density_primitive_matches_quadrature():
    rho0 = 1.7
    H = 0.8
    for theta in (1e-2, 1e-4):
        closed = density_primitive(H, theta, rho0, PARAMS)
        quad = adaptive_simpson(
            lambda s: s * g_theta(s, rho0, PARAMS.with_(theta=theta)), 0.0, H
        )
        assert closed == pytest.approx(quad, rel=1e-10)


def test_density_primitive_negative_height_branch():
    rho0 = 2.0
    assert density_primitive(-0.3, 1e-3, rho0, PARAMS) == pytest.approx(
        0.5 * rho0 * 0.09, rel=1e-14
    )
    # theta = 0 is the sharp limit rho0/2 min(H, h_star)^2: the spring stays
    # on below -h_star and is cut off above h_star
    H = np.array([-0.9, -0.3, 0.0, PARAMS.h_star, 0.8])
    sharp = 0.5 * rho0 * np.minimum(H, PARAMS.h_star) ** 2
    assert np.array_equal(density_primitive(H, 0.0, rho0, PARAMS), sharp)


def test_density_primitive_needs_positive_k_above_the_sharp_limit():
    params = PARAMS.with_(k=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H in (0.3, 0.8):
            with pytest.raises(ValueError, match="positive reconnection rate k"):
                density_primitive(H, 1e-3, 1.0, params)
        # the sharp limit does not involve k
        assert density_primitive(0.8, 0.0, 2.0, params) == PARAMS.h_star**2


def test_gap_decreases_along_ladder():
    grid = build_grid(16)
    p = pressure_pulse(grid, peak=100.0)
    h = bump(grid)  # max 0.8, supercritical region nonempty
    gaps = [
        abs(eval_J_theta(h, t, 1.0, PARAMS, p, grid)
            - eval_J_theta(h, 0.0, 1.0, PARAMS, p, grid))
        for t in LADDER
    ]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_gamma_probe_linear_bound():
    # |J_theta - J_0| <= rho0 * k * theta * C(h_test), with C given by the
    # closed-form bracket at the sharpest ladder rung
    grid = build_grid(16)
    p = pressure_pulse(grid, peak=100.0)
    h = bump(grid)
    rho0 = 1.0
    k = PARAMS.k
    excess = np.maximum(h - PARAMS.h_star, 0.0)
    ktheta_min = k * min(LADDER)
    bracket = excess + PARAMS.h_star * np.log1p(excess / ktheta_min)
    C = float(grid.weights @ bracket)
    for theta in LADDER:
        gap = abs(
            eval_J_theta(h, theta, rho0, PARAMS, p, grid)
            - eval_J_theta(h, 0.0, rho0, PARAMS, p, grid)
        )
        assert gap <= rho0 * k * theta * C * (1.0 + 1e-12)


def test_minimize_zero_pressure_returns_zero():
    grid = build_grid(8)
    p = np.zeros(grid.num_nodes)
    report = minimize_J(1e-3, 1.0, PARAMS, p, grid)
    assert report.energy == 0.0
    assert np.max(np.abs(report.minimizer)) == 0.0
    assert report.gradient_sup_norm <= 1e-10


def test_minimizer_solves_reduced_equation():
    # critical points satisfy the no-diffusion stationary height equation;
    # strong-form certification at 1e-8 needs the coarse grid (fourth-order
    # roundoff grows like n^4)
    grid = build_grid(8)
    p = pressure_pulse(grid, peak=100.0)
    theta = 1e-3
    rho0 = 1.0
    report = minimize_J(theta, rho0, PARAMS, p, grid)
    ops = Operators(grid)
    h_int = grid.restrict(report.minimizer)
    lap = ops.A @ h_int
    residual = (
        PARAMS.kappa * (ops.A @ lap)
        + PARAMS.gamma * lap
        + grid.restrict(g_theta(report.minimizer, rho0, PARAMS.with_(theta=theta)))
        * h_int
        - PASCAL * grid.restrict(p)
    )
    assert np.max(np.abs(residual)) <= 1e-8


def test_minimizer_distance_decreases_along_ladder():
    grid = build_grid(8)
    p = pressure_pulse(grid, peak=150.0)
    rows = gamma_ladder(LADDER, 1.0, PARAMS, p, grid, bump(grid))
    dists = [r["minimizer_distance"] for r in rows]
    assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    assert all(r["gap"] > 0 for r in rows)


def test_sharp_limit_minimizer_satisfies_euler_lagrange():
    grid = build_grid(8)
    p = pressure_pulse(grid, peak=150.0)
    report = minimize_J(0.0, 1.0, PARAMS, p, grid)
    res = euler_lagrange_residual_J0(report.minimizer, 1.0, PARAMS, p, grid)
    assert np.max(np.abs(res)) <= 1e-8
    assert np.max(report.minimizer) > PARAMS.h_star  # genuinely supercritical


def test_euler_lagrange_zero_case_and_heaviside():
    grid = build_grid(8)
    zero_p = np.zeros(grid.num_nodes)
    zero = np.zeros(grid.num_nodes)
    assert np.max(np.abs(euler_lagrange_residual_J0(zero, 1.0, PARAMS, zero_p, grid))) == 0.0

    # above the critical height the spring term is switched off: H(1 - h/h*) = 0
    ops = Operators(grid)

    def elastic_only(h_int):
        lap = ops.A @ h_int
        return PARAMS.kappa * (ops.A @ lap) + PARAMS.gamma * lap

    def assert_spring_off(h):
        res = euler_lagrange_residual_J0(h, 1.0, PARAMS, zero_p, grid, ops)
        # the switched-off spring adds exactly nothing to the rho0 = 0 residual
        no_spring = euler_lagrange_residual_J0(h, 0.0, PARAMS, zero_p, grid, ops)
        assert np.array_equal(res, no_spring)
        elastic = elastic_only(grid.restrict(h))
        assert np.max(np.abs(grid.restrict(res) - elastic)) <= 1e-13 * np.max(np.abs(elastic))

    h = np.full(grid.num_nodes, 0.7)
    h[grid.boundary_mask] = 0.0
    assert_spring_off(h)

    # exactly at the critical height the convention H(0) = 0 also drops it
    h_at = np.full(grid.num_nodes, PARAMS.h_star)
    h_at[grid.boundary_mask] = 0.0
    assert_spring_off(h_at)


def test_gradient_matches_finite_differences():
    from blebsheet.energy import _gradient

    rng = np.random.default_rng(5)
    grid = build_grid(8)
    ops = Operators(grid)
    p = pressure_pulse(grid, peak=50.0)
    params = PARAMS.with_(theta=1e-2)
    rho0 = 1.0
    eps = 1e-6
    for _ in range(10):
        h_int = rng.uniform(0.0, 1.0, grid.num_interior)
        h_int[np.abs(h_int - params.h_star) < 0.05] += 0.1
        grad = _gradient(params.theta, rho0, params, p, grid, ops, h_int)
        picks = rng.choice(grid.num_interior, size=6, replace=False)
        for j in picks:
            e = np.zeros(grid.num_interior)
            e[j] = eps
            J_plus = eval_J_theta(grid.embed(h_int + e), params.theta, rho0, params, p, grid, ops)
            J_minus = eval_J_theta(grid.embed(h_int - e), params.theta, rho0, params, p, grid, ops)
            fd = (J_plus - J_minus) / (2.0 * eps)
            assert fd == pytest.approx(grid.spacing**2 * grad[j], rel=1e-5, abs=1e-12)


def _random_heights(rng, grid, params):
    h_int = rng.uniform(0.0, 1.0, grid.num_interior)
    h_int[np.abs(h_int - params.h_star) < 0.05] += 0.1  # keep clear of the kink
    return h_int


@pytest.mark.parametrize("theta", [1e-2, 0.0])
def test_hessian_matches_assembled_matrix(theta):
    from blebsheet.energy import _hessian
    from blebsheet.model import g_theta_prime

    rng = np.random.default_rng(9)
    grid = build_grid(8)
    ops = Operators(grid)
    h_int = _random_heights(rng, grid, PARAMS)
    if theta > 0.0:
        p_theta = PARAMS.with_(theta=theta)
        h = grid.embed(h_int)
        spring = grid.restrict(g_theta(h, 1.0, p_theta) + h * g_theta_prime(h, 1.0, p_theta))
    else:
        spring = (h_int < PARAMS.h_star).astype(float)
    A = as_scipy(ops.A)
    ref = grid.spacing**2 * (
        PARAMS.kappa * (A @ A) + PARAMS.gamma * A
        + sp.diags(PARAMS.lam + spring)
    )
    H = _hessian(theta, 1.0, PARAMS, grid, ops, h_int)
    for _ in range(5):
        x = rng.standard_normal(grid.num_interior)
        expected = ref @ x
        # _hessian is the unweighted operator
        Hx = grid.spacing**2 * (H @ x)
        assert np.max(np.abs(Hx - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_hessian_matches_finite_differences_of_gradient():
    from blebsheet.energy import _gradient, _hessian

    rng = np.random.default_rng(10)
    grid = build_grid(8)
    ops = Operators(grid)
    p = pressure_pulse(grid, peak=50.0)
    theta = 1e-2
    eps = 1e-6
    for _ in range(5):
        h_int = _random_heights(rng, grid, PARAMS)
        v = rng.standard_normal(grid.num_interior)
        H = _hessian(theta, 1.0, PARAMS, grid, ops, h_int)
        g_plus = _gradient(theta, 1.0, PARAMS, p, grid, ops, h_int + eps * v)
        g_minus = _gradient(theta, 1.0, PARAMS, p, grid, ops, h_int - eps * v)
        fd = (g_plus - g_minus) / (2.0 * eps)
        Hv = H @ v
        assert np.max(np.abs(fd - Hv)) <= 1e-6 * np.max(np.abs(Hv))


def _record_hessian_iterates(monkeypatch):
    """The iterate of every ``energy._hessian`` call, in order.

    ``newton_armijo`` builds one Hessian per Newton step, at the accepted
    iterate it steps from, so the list holds every iterate but the last.
    """
    import blebsheet.energy as energy

    hessian = energy._hessian
    iterates = []

    def recorded(*args):
        iterates.append(args[-1].copy())
        return hessian(*args)

    monkeypatch.setattr(energy, "_hessian", recorded)
    return iterates


def test_energy_descent_along_newton_iterates(monkeypatch):
    grid = build_grid(8)
    p = pressure_pulse(grid, peak=150.0)
    iterates = _record_hessian_iterates(monkeypatch)
    report = minimize_J(1e-4, 1.0, PARAMS, p, grid)
    history = [eval_J_theta(grid.embed(h), 1e-4, 1.0, PARAMS, p, grid) for h in iterates]
    history.append(report.energy)
    assert len(history) >= 2
    # nonincreasing up to the roundoff floor of the energy evaluation
    floor = 1e-10 * max(1.0, max(abs(e) for e in history))
    assert all(e2 <= e1 + floor for e1, e2 in zip(history, history[1:]))


def test_monotone_pointwise_convergence_of_g():
    rng = np.random.default_rng(9)
    xs = rng.uniform(0.0, 2.0, 100)
    thetas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    rho0 = 1.4
    prev = None
    for theta in thetas:
        vals = g_theta(xs, rho0, PARAMS.with_(theta=theta))
        if prev is not None:
            assert np.all(vals <= prev + 1e-15)
        prev = vals
    below = xs <= PARAMS.h_star
    assert np.allclose(prev[below], rho0)
    above = xs > PARAMS.h_star + 1e-2
    assert np.all(prev[above] < 0.15 * rho0)


def test_eval_rejects_bad_theta():
    grid = build_grid(4)
    p = np.zeros(grid.num_nodes)
    zero = np.zeros(grid.num_nodes)
    with pytest.raises(ValueError):
        eval_J_theta(zero, -1e-3, 1.0, PARAMS, p, grid)
    with pytest.raises(ValueError):
        minimize_J(-1.0, 1.0, PARAMS, p, grid)


def test_minimize_J_cap_raises_newton_error():
    grid = build_grid(8)
    # supercritical, so one Newton step does not reach the minimizer
    p = pressure_pulse(grid, peak=400.0)
    opts = SolveOptions(newton_max_iter=1, newton_grad_tol=1e-30)
    with pytest.raises(SolveError, match="no convergence in 1 iterations") as err:
        minimize_J(1e-3, 1.0, PARAMS, p, grid, opts=opts)
    assert err.value.iterate.shape == (grid.num_nodes,)
    assert err.value.residual_norm > 1e-30


def test_minimize_J_hessian_solve_failure_carries_the_newton_iterate():
    # one CG iteration solves the first Newton system, where the spring is
    # uniform and the preconditioner exact, but not the second; the error
    # names the Newton iterate and its gradient, not CG's partial direction
    grid = build_grid(8)
    p = pressure_pulse(grid, peak=400.0)
    with pytest.raises(SolveError, match="newton_armijo: no convergence in 1 ") as capped:
        minimize_J(0.0, 1.0, PARAMS, p, grid, opts=SolveOptions(newton_max_iter=1))
    assert np.max(capped.value.iterate) > PARAMS.h_star
    with pytest.raises(SolveError, match="cg_solve: no convergence in 1 ") as err:
        minimize_J(0.0, 1.0, PARAMS, p, grid, opts=SolveOptions(max_iterations=1))
    assert np.array_equal(err.value.iterate, capped.value.iterate)
    assert err.value.residual_norm == capped.value.residual_norm


def test_hessian_solves_take_few_iterations(monkeypatch):
    # plain CG took 625-2,089 iterations per Newton step here
    import blebsheet.energy as energy
    from blebsheet.linalg import cg_solve

    iterations = []

    def counted(A, b, *args, **kwargs):
        history = []
        x = cg_solve(A, b, *args, residual_history=history, **kwargs)
        iterations.append(len(history) - 1)
        return x

    monkeypatch.setattr(energy, "cg_solve", counted)
    newton_steps = _record_hessian_iterates(monkeypatch)
    grid = build_grid(64)
    p = pressure_pulse(grid, peak=400.0)
    ops = Operators(grid)
    for theta in (0.0, 1e-2):
        iterations.clear()
        newton_steps.clear()
        minimize_J(theta, 1.0, PARAMS, p, grid, ops=ops)
        assert len(iterations) == len(newton_steps) >= 1
        assert max(iterations) <= 10


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("theta", [0.0, 1e-2])
def test_minimize_J_stops_at_the_grid_roundoff_floor(n, theta, monkeypatch):
    # the default tolerance of 1e-10 lies below the gradient's roundoff floor
    # from n = 16 at this load, where the absolute test ran into the cap
    grid = build_grid(n)
    p = pressure_pulse(grid, peak=400.0)
    newton_steps = _record_hessian_iterates(monkeypatch)
    report = minimize_J(theta, 1.0, PARAMS, p, grid)
    assert len(newton_steps) <= 5
    assert report.gradient_sup_norm > SolveOptions().newton_grad_tol
    # it is still small against the load's share of the gradient
    load = grid.spacing**2 * PASCAL * np.max(np.abs(p))
    assert report.gradient_sup_norm <= 1e-10 * load


def test_minimize_J_tolerance_below_the_floor_converges(monkeypatch):
    # a quadratic problem (below h_star) is solved by one Newton step; a
    # tolerance far below roundoff then stops at the floor, not at the cap
    grid = build_grid(8)
    p = pressure_pulse(grid, peak=50.0)
    opts = SolveOptions(newton_max_iter=5, newton_grad_tol=1e-30)
    newton_steps = _record_hessian_iterates(monkeypatch)
    report = minimize_J(1e-3, 1.0, PARAMS, p, grid, opts=opts)
    assert report.minimizer.max() < PARAMS.h_star
    assert len(newton_steps) == 1


def test_minimize_J_rejects_an_ascent_direction(monkeypatch):
    import blebsheet.energy as energy

    monkeypatch.setattr(energy, "cg_solve", lambda A, b, *args, **kwargs: -b)
    grid = build_grid(8)
    p = pressure_pulse(grid, peak=50.0)
    with pytest.raises(SolveError, match="no descent direction") as err:
        minimize_J(1e-3, 1.0, PARAMS, p, grid)
    assert err.value.iterate.shape == (grid.num_nodes,)


def test_minimize_J_line_search_failure(monkeypatch):
    # a gradient that doubles at every trial point: the merit rises along
    # every direction from the start, and the line search halves the Newton
    # step below 1e-14 and gives up
    import blebsheet.energy as energy

    grid = build_grid(8)
    p = pressure_pulse(grid, peak=400.0)
    start = energy._gradient(1e-3, 1.0, PARAMS, p, grid, Operators(grid),
                             np.zeros(grid.num_interior))
    gradients = iter(itertools.chain([start], itertools.repeat(2.0 * start)))
    monkeypatch.setattr(energy, "_gradient", lambda *args: next(gradients))
    with pytest.raises(SolveError, match="newton_armijo: line search failed") as err:
        minimize_J(1e-3, 1.0, PARAMS, p, grid)
    assert np.array_equal(err.value.iterate, np.zeros(grid.num_nodes))
    assert err.value.residual_norm == np.max(np.abs(start)) > 0.0


def test_minimize_J_backtracks_an_overlong_direction(monkeypatch):
    # a Hessian stand-in that applies H / 4 makes every direction four Newton
    # steps long; the line search halves it twice, to the Newton step itself.
    # The gradient is evaluated at the start, at every trial point of the two
    # Newton steps, and once more for the report.  The line search runs on
    # the gradient, so the energy's descent along the iterates is checked
    import blebsheet.energy as energy

    hessian, gradient = energy._hessian, energy._gradient

    class Quarter:
        def __init__(self, H):
            self.H = H

        def __matmul__(self, x):
            return 0.25 * (self.H @ x)

        def precond(self, r):
            return 4.0 * self.H.precond(r)

    def run():
        calls = []

        def evaluated(*args):
            calls.append(None)
            return gradient(*args)

        monkeypatch.setattr(energy, "_gradient", evaluated)
        iterates = _record_hessian_iterates(monkeypatch)
        report = minimize_J(0.0, 1.0, PARAMS, p, grid)
        history = [eval_J_theta(grid.embed(h), 0.0, 1.0, PARAMS, p, grid) for h in iterates]
        return report, len(calls), history + [report.energy]

    grid = build_grid(8)
    p = pressure_pulse(grid, peak=400.0)
    plain, plain_calls, _ = run()
    monkeypatch.setattr(energy, "_hessian", lambda *args: Quarter(hessian(*args)))
    long, long_calls, history = run()
    assert (plain_calls, long_calls) == (4, 8)
    assert np.array_equal(long.minimizer, plain.minimizer)
    assert len(history) == 3
    # nonincreasing up to the roundoff floor of the energy evaluation
    floor = 1e-10 * max(1.0, max(abs(e) for e in history))
    assert all(e2 <= e1 + floor for e1, e2 in zip(history, history[1:]))
