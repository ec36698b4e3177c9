import numpy as np
import pytest

from blebsheet.config import parse_config_dict
from blebsheet.dynamics import simulate
from blebsheet.grid import build_grid
from blebsheet.model import ModelParams, PressureField, pressure_pulse
from blebsheet.stationary import (
    StationaryError,
    stationary_by_marching,
    stationary_fixed_point,
    weighted_density_residual,
)


def test_zero_pressure_fixed_point():
    grid = build_grid(8)
    params = ModelParams()
    result = stationary_fixed_point(
        params, PressureField.constant(grid, 0.0), m0=1.0, grid=grid
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

    cfg = parse_config_dict({
        "scenario": "stationary_state",
        "n": 24,
        "final_time": 1e-3,  # generous step budget; marching stops on tolerance
    })
    march = stationary_by_marching(cfg, stop_tol=1e-12)

    assert np.max(np.abs(fp.h - march.h)) <= 1e-6
    assert weighted_density_residual(fp, params, grid) <= 1e-6
    assert weighted_density_residual(march, params, grid) <= 1e-6
    # frozen-coefficient height equation residual (relative sup norm)
    assert fp.residual_height <= 1e-9
    assert fp.total_mass == pytest.approx(march.total_mass, rel=1e-8)


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
    cfg = parse_config_dict({
        "scenario": "stationary_state",
        "n": 8,
        "pressure": {"kind": "constant", "value": 0.0},
    })
    result = stationary_by_marching(cfg, stop_tol=1e-10)
    assert result.iterations == 1
    assert np.max(np.abs(result.h)) == 0.0


def test_marching_step_cap_failure():
    cfg = parse_config_dict({"scenario": "stationary_state", "n": 8})
    with pytest.raises(StationaryError) as err:
        stationary_by_marching(cfg, stop_tol=1e-14, max_steps=3)
    assert err.value.result is not None
    assert err.value.result.iterations == 3


def test_fixed_point_validation():
    grid = build_grid(8)
    pressure = PressureField.constant(grid, 0.0)
    with pytest.raises(ValueError):
        stationary_fixed_point(ModelParams(eta_a=0.0), pressure, 1.0, grid)
    cfg = parse_config_dict({"scenario": "stationary_state", "n": 8})
    with pytest.raises(ValueError):
        stationary_by_marching(cfg, stop_tol=0.0)
    for max_steps in (0, -1):
        with pytest.raises(ValueError):
            stationary_by_marching(cfg, stop_tol=1e-10, max_steps=max_steps)


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
    # the damped iterate these 60 iterations took 7,630 CG iterations
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
    assert sum(iterations) <= 7000


def test_fixed_point_nonfinite_increment_raises_with_last_finite_iterate(monkeypatch):
    # a density solve that hands back NaN would otherwise run all 500
    # iterations and report plain non-convergence
    import blebsheet.stationary as st
    from blebsheet.linalg import cg_solve

    grid = build_grid(8)
    density_solves = []

    def poisoned(A, b, *args, **kwargs):
        x = cg_solve(A, b, *args, **kwargs)
        if b.size == grid.num_nodes:
            density_solves.append(None)
            if len(density_solves) == 3:
                return np.full_like(x, np.nan)
        return x

    monkeypatch.setattr(st, "cg_solve", poisoned)
    pressure = pressure_pulse(grid, peak=410.0)
    with pytest.raises(StationaryError, match="non-finite increment at iteration 3") as err:
        stationary_fixed_point(ModelParams(), pressure, m0=1.0, grid=grid)
    assert len(density_solves) == 3
    result = err.value.result
    assert result.iterations == 2
    for name in ("h", "rho_a", "rho_i"):
        assert np.all(np.isfinite(getattr(result, name))), name
    assert np.isfinite(result.residual_height)
