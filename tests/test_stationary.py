import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from blebsheet.config import parse_config_dict
from blebsheet.dynamics import Operators, build_pressure, simulate, stationary_terms
from blebsheet.energy import _gradient, minimize_J
from blebsheet.grid import assemble_laplacian, build_grid, integrate
from blebsheet.model import (
    MICROGRAM,
    PASCAL,
    ModelParams,
    pressure_pulse,
    ripping_rate,
)
from blebsheet.stationary import (
    PICARD_TOL,
    StationaryError,
    _residuals,
    _residuals_and_floor,
    stationary_fixed_point,
    weighted_density_residual,
)

from dia_forms import as_scipy, canonical_csr


def _relative_sup(residual, *terms):
    return np.max(np.abs(residual)) / max(np.max(np.abs(t)) for t in terms)


def marched(n, pressure, tau, steps, scheme="ImplicitRipping"):
    """The state after ``steps`` steps of ``simulate`` from rest under ``pressure`` (a
    config pressure), with the fixed point's residuals and height floor at it."""
    cfg = parse_config_dict({"scenario": "stationary_state", "n": n, "tau": tau,
                             "final_time": steps * tau, "pressure": pressure,
                             "scheme": scheme})
    state, _, _ = simulate(cfg)
    assert state.step_index == steps
    ops = Operators(build_grid(n))
    residuals, floor = _residuals_and_floor(ops, cfg.params, build_pressure(cfg, ops.grid),
                                            state.h, state.rho_a, state.rho_i)
    return state, residuals, floor


def meets_fixed_point_test(residuals, floor):
    """The test :func:`stationary_fixed_point` stops on, at ``PICARD_TOL``."""
    res_h, res_a, res_i = residuals
    return res_a <= PICARD_TOL and res_i <= PICARD_TOL and res_h <= max(PICARD_TOL, floor)


def two_routes(n, peak, tau, steps, scheme="ImplicitRipping"):
    """The fixed point under a default pulse of ``peak`` Pa against ``marched``.

    Returns whether they agree (sup-norm height gap at most 1e-9, the same
    ripped nodes ``h > h_star``, and the marched state meets the fixed
    point's stop test) and a line that reports it.
    """
    params, grid = ModelParams(), build_grid(n)
    fp = stationary_fixed_point(params, pressure_pulse(grid, peak=peak), m0=1.0, grid=grid)
    march, residuals, floor = marched(n, {"kind": "pulse", "peak": peak}, tau, steps, scheme)
    gap = float(np.max(np.abs(fp.h - march.h)))
    ripped = fp.h > params.h_star
    same_ripped = np.array_equal(ripped, march.h > params.h_star)
    ok = gap <= 1e-9 and same_ripped and meets_fixed_point_test(residuals, floor)
    line = (f"{peak:.0f} Pa: gap {gap:.1e}, {int(ripped.sum())} ripped"
            f"{'' if same_ripped else ' (sets differ)'}, march residuals "
            + "/".join(f"{r:.1e}" for r in residuals) + f" (height floor {floor:.1e})")
    return ok, line


def test_stationary_terms_match_assembled_reference():
    rng = np.random.default_rng(17)
    grid = build_grid(8)
    ops = Operators(grid)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=400.0)
    h = grid.embed(rng.uniform(0.0, 1.2, grid.num_interior))
    rho_a = rng.uniform(0.1, 2.0, grid.num_nodes)
    rho_i = rng.uniform(0.0, 1.0, grid.num_nodes)
    terms = stationary_terms(ops, params, pressure, grid.restrict(h), rho_a, rho_i)

    # the strong-form stationary equations with assembled scipy matrices
    A = as_scipy(ops.A)
    neumann = sp.diags(1.0 / grid.weights) @ canonical_csr(assemble_laplacian(grid))
    h_int = grid.restrict(h)
    membrane = (params.kappa * ((A @ A) @ h_int) + params.gamma * (A @ h_int)
                + params.lam * h_int + params.xi * MICROGRAM * grid.restrict(rho_a) * h_int)
    load = PASCAL * grid.restrict(pressure)
    diff_a = params.eta_a * (neumann @ rho_a)
    diff_i = params.eta_i * (neumann @ rho_i)
    recon = params.k * rho_i
    rip = ripping_rate(h, params) * rho_a
    for got, ref in zip(terms, (membrane, load, diff_a, diff_i, recon, rip), strict=True):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    expected = (
        _relative_sup(membrane - load, membrane, load),
        _relative_sup(diff_a - recon + rip, diff_a, recon, rip, params.k * rho_a),
        _relative_sup(diff_i + recon - rip, diff_i, recon, rip, params.k * rho_a),
    )
    got = _residuals(ops, params, pressure, h, rho_a, rho_i)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("peak", [100.0, 400.0])
def test_residuals_small_at_converged_fixed_point(peak, monkeypatch):
    # the residuals Picard stops on are the ones it reports
    import blebsheet.stationary as st

    monkeypatch.setattr(st, "PICARD_TOL", 1e-11)
    grid = build_grid(8)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=peak)
    result = stationary_fixed_point(params, pressure, m0=1.0, grid=grid)
    residuals = _residuals(Operators(grid), params, pressure,
                           result.h, result.rho_a, result.rho_i)
    assert residuals == (result.residual_height, result.residual_rho_a,
                         result.residual_rho_i)
    assert max(residuals) < 1e-9


def _height_floor(grid, params, pressure, result):
    # 16 eps ||M|| sup|h| over the larger side of the height equation, with
    # ||M|| = kappa eig_max^2 + gamma eig_max + |lam| + xi MICROGRAM max rho_a
    # and eig_max the largest eigenvalue of the clamped 5-point Laplacian
    eig_max = 2.0 * (2.0 * np.sin(0.5 * np.pi * (grid.n - 1) / grid.n) / grid.spacing) ** 2
    norm = (params.kappa * eig_max**2 + params.gamma * eig_max + abs(params.lam)
            + params.xi * MICROGRAM * np.max(result.rho_a))
    membrane, load = stationary_terms(Operators(grid), params, pressure,
                                      grid.restrict(result.h), result.rho_a, result.rho_i)[:2]
    scale = max(np.max(np.abs(membrane)), np.max(np.abs(load)))
    return 16.0 * np.finfo(float).eps * norm * np.max(np.abs(result.h)) / scale


# Picard iterations at most, per (n, peak): the measured count plus up to 3, and
# fewer than a map that damps the height too and takes the previous height's
# ripping rate needs (trailing comments)
PICARD_ITERATIONS = {
    (8, 50.0): 1, (8, 250.0): 54, (8, 410.0): 52, (8, 1000.0): 51,          # 34, 62, 55, 52
    (16, 50.0): 1, (16, 250.0): 75, (16, 410.0): 54, (16, 1000.0): 51,      # 34, 100, 61, 52
    (32, 50.0): 1, (32, 250.0): 69, (32, 410.0): 55, (32, 1000.0): 53,      # 34, 98, 66, 54
    (64, 410.0): 55,                                                        # 66
}


@pytest.mark.parametrize("n, peak", list(PICARD_ITERATIONS))
def test_fixed_point_residuals_meet_tol(n, peak):
    # Picard stops on the residuals it reports; when it stopped on its
    # increment, ripping states returned density residuals up to 1.1e-8 here
    # (n = 32, 1000 Pa) against the tol of 1e-10
    grid = build_grid(n)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=peak)
    tol = 1e-10
    result = stationary_fixed_point(params, pressure, m0=1.0, grid=grid)
    assert result.iterations <= PICARD_ITERATIONS[n, peak]
    assert result.residual_rho_a <= tol
    assert result.residual_rho_i <= tol
    assert result.residual_height <= max(tol, _height_floor(grid, params, pressure, result))
    if np.max(result.h) < params.h_star:
        # nothing rips: the densities stay uniform, and the one height solve
        # is the uniform-spring one, which the preconditioner inverts exactly
        A = as_scipy(Operators(grid).A)
        spring = params.lam + params.xi * MICROGRAM  # rho_a = m0 = 1
        M = params.kappa * (A @ A) + params.gamma * A + spring * sp.identity(A.shape[0])
        h_ref = spsolve(M.tocsc(), PASCAL * grid.restrict(pressure))
        h = grid.restrict(result.h)
        assert np.max(np.abs(h - h_ref)) <= 1e-10 * np.max(np.abs(h_ref))


def test_last_picard_iteration_solves_tight(monkeypatch):
    # inner solves run at max(1e-12, min(1e-6, 1e-3 * last residual)): loose
    # at the start, as tight as the time steps' density solves at the end
    import blebsheet.stationary as st
    from blebsheet.linalg import cg_solve

    grid = build_grid(32)
    tolerances = []

    def recorded(A, b, opts, *args, **kwargs):
        tolerances.append((b.size, opts.rel_tolerance))
        return cg_solve(A, b, opts, *args, **kwargs)

    monkeypatch.setattr(st, "cg_solve", recorded)
    pressure = pressure_pulse(grid, peak=410.0)
    result = stationary_fixed_point(ModelParams(), pressure, m0=1.0, grid=grid)
    assert len(tolerances) == 2 * result.iterations
    assert tolerances[:2] == [(grid.num_interior, 1e-6), (grid.num_nodes, 1e-6)]
    assert tolerances[-2:] == [(grid.num_interior, 1e-12), (grid.num_nodes, 1e-12)]


def test_zero_pressure_fixed_point():
    grid = build_grid(8)
    params = ModelParams()
    result = stationary_fixed_point(
        params, np.zeros(grid.num_nodes), m0=1.0, grid=grid
    )
    assert np.max(np.abs(result.h)) == 0.0
    assert result.rho_a == pytest.approx(np.ones(grid.num_nodes), abs=1e-10)
    assert np.max(np.abs(result.rho_i)) <= 1e-10
    assert weighted_density_residual(result, params, grid) <= 1e-12
    assert result.total_mass == pytest.approx(1.0, abs=1e-10)


def test_fixed_point_matches_marching_subcritical():
    params = ModelParams()
    grid = build_grid(24)
    pressure = pressure_pulse(grid, peak=100.0)
    fp = stationary_fixed_point(params, pressure, m0=1.0, grid=grid)

    # below h_star nothing rips: the densities stay at rest and the height
    # relaxes at the rate c / tau sets, within 1e-11 of the fixed point here
    march, residuals, floor = marched(24, {"kind": "pulse", "peak": 100.0},
                                      tau=1e-6, steps=200)

    assert np.max(np.abs(fp.h - march.h)) <= 1e-9
    assert meets_fixed_point_test(residuals, floor)
    assert weighted_density_residual(fp, params, grid) <= 1e-6
    assert weighted_density_residual(march, params, grid) <= 1e-6
    assert fp.residual_height <= 1e-9
    assert fp.total_mass == pytest.approx(integrate(grid, march.rho_a + march.rho_i),
                                          rel=1e-8)


def test_fully_implicit_march_reaches_the_fixed_point():
    # the second route through the Newton scheme: 40 FullyImplicit steps of
    # 1e-4 from rest land on the ripping fixed point (height gap 3.4e-13;
    # march residuals 4.4e-13 / 4.2e-12 / 3.3e-12 under a 1.0e-11 height floor)
    ok, line = two_routes(16, 410.0, tau=1e-4, steps=40, scheme="FullyImplicit")
    assert ok, line


def test_fixed_point_mass_consistency():
    grid = build_grid(16)
    params = ModelParams()
    result = stationary_fixed_point(
        params, pressure_pulse(grid, peak=60.0), m0=1.0, grid=grid
    )
    assert result.total_mass == pytest.approx(1.0, rel=1e-8)


def test_fixed_point_unequal_diffusivities():
    # eta_a < eta_i exercises the reconstruction branch of the auxiliary pair
    grid = build_grid(12)
    params = ModelParams(eta_a=0.1, eta_i=0.2)
    result = stationary_fixed_point(
        params, pressure_pulse(grid, peak=60.0), m0=1.0, grid=grid
    )
    weighted = params.eta_a * result.rho_a + params.eta_i * result.rho_i
    assert np.ptp(weighted) <= 1e-8
    assert result.total_mass == pytest.approx(1.0, rel=1e-8)
    assert result.residual_rho_a <= 1e-8
    assert result.residual_rho_i <= 1e-8
    assert np.min(result.rho_a) >= -1e-10
    assert np.min(result.rho_i) >= -1e-10


@pytest.mark.parametrize("n", [16, 32])
def test_no_diffusion_limit_is_a_critical_point_of_J_theta(n):
    # with eta_a = eta_i = eta -> 0 the fixed point's rho_a tends to g_theta(h,
    # m0), so its height to a critical point of J_theta at the dynamics'
    # spring, xi MICROGRAM m0: the gradient over the peak load falls tenfold
    # per decade of eta (9.99-10.00 at n = 16, 9.97-10.00 at n = 32)
    grid = build_grid(n)
    ops = Operators(grid)
    pressure = pressure_pulse(grid, peak=410.0)
    rho0 = ModelParams().xi * MICROGRAM
    peak = PASCAL * np.max(pressure)

    def limit_gap(params):
        h = stationary_fixed_point(params, pressure, 1.0, grid).h
        return np.max(np.abs(_gradient(params.theta, rho0, params, pressure, grid, ops,
                                       grid.restrict(h)))) / peak

    gaps = [limit_gap(ModelParams(eta_a=eta, eta_i=eta)) for eta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(9.0 <= a / b <= 11.0 for a, b in zip(gaps, gaps[1:]))
    # and minimize_J, which shares no solver with the fixed point, finds that
    # critical point at theta 1e-4 (6.0e-10 apart at eta 1e-6)
    params = ModelParams(theta=1e-4, eta_a=1e-6, eta_i=1e-6)
    h = stationary_fixed_point(params, pressure, 1.0, grid).h
    minimizer = minimize_J(1e-4, rho0, params, pressure, grid, ops=ops).minimizer
    assert np.max(np.abs(h - minimizer)) <= 1e-8 * np.max(np.abs(minimizer))


def test_above_critical_reaches_ripping_height():
    grid = build_grid(16)
    params = ModelParams()
    result = stationary_fixed_point(
        params, pressure_pulse(grid, peak=400.0), m0=1.0, grid=grid
    )
    assert np.max(result.h) > params.h_star
    # disconnected zone: active density collapses where overstretched
    stretched = result.h > params.h_star + 1e-3
    assert np.max(result.rho_a[stretched]) < 0.1


def test_weighted_residual_negative_control_mid_run():
    # the weighted identity is a stationary-only statement; a mid-run
    # disruption state (inhomogeneous total density) violates it clearly
    cfg = parse_config_dict({"scenario": "disruption", "n": 16, "final_time": 1e-5})
    state, _, _ = simulate(cfg)
    params = cfg.params
    grid = build_grid(16)
    assert weighted_density_residual(state, params, grid) > 0.1


def test_marching_zero_pressure_converges_immediately():
    # the rest state is the stationary state without load: one step stays there
    state, residuals, floor = marched(8, {"kind": "constant", "value": 0.0},
                                      tau=1e-6, steps=1)
    assert np.max(np.abs(state.h)) == 0.0
    assert residuals == (0.0, 0.0, 0.0)
    assert meets_fixed_point_test(residuals, floor)


def test_fixed_point_validation():
    grid = build_grid(8)
    pressure = np.zeros(grid.num_nodes)
    with pytest.raises(ValueError, match="positive diffusivities"):
        stationary_fixed_point(ModelParams(eta_a=0.0), pressure, 1.0, grid)


def test_picard_height_solves_take_few_iterations(monkeypatch):
    # the sine-transform preconditioner leaves only the spring's variation
    # to CG; plain CG needs about 850 iterations per solve here
    import blebsheet.stationary as st
    from blebsheet.linalg import cg_solve

    grid = build_grid(64)
    iterations = []

    def counted(A, b, *args, **kwargs):
        history = []
        x = cg_solve(A, b, *args, residual_history=history, **kwargs)
        if b.size == grid.num_interior:
            iterations.append(len(history) - 1)
        return x

    monkeypatch.setattr(st, "cg_solve", counted)
    pressure = pressure_pulse(grid, peak=410.0, center=(0.5, 0.5), radius=0.4)
    result = stationary_fixed_point(ModelParams(), pressure, m0=1.0, grid=grid)
    assert len(iterations) == result.iterations
    assert max(iterations) <= 20


def test_picard_density_iterations_capped(monkeypatch):
    # each Picard density CG starts at the previous undamped solution; from
    # the damped iterate these 52 iterations took 4,571 CG iterations
    import blebsheet.stationary as st
    from blebsheet.linalg import cg_solve

    grid = build_grid(32)
    iterations = []

    def counted(A, b, *args, **kwargs):
        history = []
        x = cg_solve(A, b, *args, residual_history=history, **kwargs)
        if b.size == grid.num_nodes:
            iterations.append(len(history) - 1)
        return x

    monkeypatch.setattr(st, "cg_solve", counted)
    pressure = pressure_pulse(grid, peak=410.0, center=(0.5, 0.5), radius=0.4)
    result = stationary_fixed_point(ModelParams(), pressure, m0=1.0, grid=grid)
    assert len(iterations) == result.iterations
    assert sum(iterations) <= 4000


@pytest.mark.parametrize("solve", ["height", "density"])
def test_fixed_point_nonfinite_increment_raises_with_last_finite_iterate(monkeypatch, solve):
    # a height or density solve that hands back NaN would otherwise run all
    # MAX_PICARD iterations, or, for the height, reach the density CG through
    # its ripping rate and raise there without the last finite iterate
    import blebsheet.stationary as st
    from blebsheet.linalg import cg_solve

    grid = build_grid(8)
    size = grid.num_interior if solve == "height" else grid.num_nodes
    poisoned_solves = []

    def poisoned(A, b, *args, **kwargs):
        x = cg_solve(A, b, *args, **kwargs)
        if b.size == size:
            poisoned_solves.append(None)
            if len(poisoned_solves) == 3:
                return np.full_like(x, np.nan)
        return x

    monkeypatch.setattr(st, "cg_solve", poisoned)
    pressure = pressure_pulse(grid, peak=410.0)
    with pytest.raises(StationaryError, match="non-finite increment at iteration 3") as err:
        stationary_fixed_point(ModelParams(), pressure, m0=1.0, grid=grid)
    assert len(poisoned_solves) == 3
    result = err.value.result
    assert result.iterations == 2
    for name in ("h", "rho_a", "rho_i"):
        assert np.all(np.isfinite(getattr(result, name))), name
    assert np.isfinite(result.residual_height)


def test_fixed_point_non_convergence_raises_with_last_iterate(monkeypatch):
    import blebsheet.stationary as st

    monkeypatch.setattr(st, "MAX_PICARD", 3)
    grid = build_grid(8)
    with pytest.raises(StationaryError, match="no convergence in 3 iterations") as err:
        stationary_fixed_point(ModelParams(), pressure_pulse(grid, peak=400.0), m0=1.0,
                               grid=grid)
    assert "floor" in str(err.value)
    result = err.value.result
    assert result.iterations == 3
    assert max(result.residual_height, result.residual_rho_a, result.residual_rho_i) > 1e-10
    assert err.value.residual_norm == max(
        result.residual_height, result.residual_rho_a, result.residual_rho_i)
