import itertools
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from blebsheet.config import parse_config_dict
from blebsheet.dynamics import (
    Diagnostics,
    FullyImplicitJacobian,
    HeightOperator,
    Operators,
    Scheme,
    State,
    StepError,
    _fully_implicit_residual,
    _newton_solve,
    _reaction_start,
    _solve_densities,
    build_pressure,
    initial_state,
    march,
    simulate,
    step,
)
from blebsheet.grid import DiaMatrix, assemble_laplacian, build_grid, integrate
from blebsheet.linalg import SolveError, SolveOptions, cg_solve
from blebsheet.model import (
    MICROGRAM,
    PASCAL,
    ModelParams,
    pressure_pulse,
    ripping_rate,
)

from dia_forms import as_scipy, canonical_csr

ALL_SCHEMES = [Scheme.EXPLICIT_RIPPING, Scheme.IMPLICIT_RIPPING, Scheme.FULLY_IMPLICIT]


def fresh_state(grid, rho_a=1.0, rho_i=0.0):
    return State(
        h=np.zeros(grid.num_nodes),
        rho_a=np.full(grid.num_nodes, float(rho_a)),
        rho_i=np.full(grid.num_nodes, float(rho_i)),
    )


def dense_jacobian(J):
    """``J`` (a :class:`FullyImplicitJacobian`) assembled densely: the test oracle."""
    ni, na = J.ops.grid.num_interior, J.ops.grid.num_nodes
    p, tau = J.params, J.tau
    # column k of the embedding: interior node k in the full-grid layout
    embed = np.stack([J.ops.grid.embed(e) for e in np.eye(ni)], axis=1)
    A = as_scipy(J.ops.A).toarray()
    neumann = as_scipy(J.ops.LN).toarray() / J.ops.grid.weights[:, None]
    M = np.zeros((ni + 2 * na, ni + 2 * na))
    M[:ni, :ni] = tau * (np.diag(J.height.diag) + p.kappa * (A @ A) + p.gamma * A)
    M[:ni, ni : ni + na] = J.diag_ha[:, None] * embed.T
    M[ni : ni + na, ni : ni + na] = np.eye(na) + tau * (p.eta_a * neumann + np.diag(J.rate))
    ah = embed * J.diag_ah
    M[ni : ni + na, :ni] = ah
    M[ni : ni + na, ni + na :] = -J.k_tau * np.eye(na)
    M[ni + na :, :ni] = -ah
    M[ni + na :, ni : ni + na] = -np.diag(J.diag_ia_rate)
    M[ni + na :, ni + na :] = (1.0 + J.k_tau) * np.eye(na) + tau * p.eta_i * neumann
    return M


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_zero_forcing_fixed_point(scheme):
    grid = build_grid(6)
    params = ModelParams()
    state = fresh_state(grid, rho_a=2.0)
    pressure = np.zeros(grid.num_nodes)
    new = step(state, 1e-6, params, pressure, grid, scheme)
    assert np.max(np.abs(new.h)) == 0.0
    assert np.max(np.abs(new.rho_a - 2.0)) == 0.0
    assert np.max(np.abs(new.rho_i)) == 0.0


@pytest.mark.parametrize("scheme", [Scheme.IMPLICIT_RIPPING, Scheme.FULLY_IMPLICIT])
def test_mass_conserved_per_step_with_active_ripping(scheme):
    grid = build_grid(8)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=400.0)
    state = fresh_state(grid)
    ops = Operators(grid)
    for _ in range(8):
        prev_mass = integrate(grid, state.rho_a + state.rho_i)
        state = step(state, 1e-6, params, pressure, grid, scheme, ops=ops)
        mass = integrate(grid, state.rho_a + state.rho_i)
        assert abs(mass - prev_mass) <= 1e-10 * prev_mass
    assert integrate(grid, ripping_flux_field(state, params)) > 0.0


def ripping_flux_field(state, params):
    from blebsheet.model import ripping_rate

    return ripping_rate(state.h, params) * state.rho_a


def test_explicit_ripping_mass_with_soft_switch():
    # explicit flux needs tau * rate << 1; use a soft switch
    grid = build_grid(8)
    params = ModelParams(theta=0.05, k=100.0)
    pressure = pressure_pulse(grid, peak=400.0)
    state = fresh_state(grid)
    ops = Operators(grid)
    for _ in range(20):
        state = step(state, 1e-6, params, pressure, grid, Scheme.EXPLICIT_RIPPING, ops=ops)
    mass = integrate(grid, state.rho_a + state.rho_i)
    assert mass == pytest.approx(1.0, rel=1e-10)


def test_single_interior_node_matches_scalar_update():
    # n=2: the height solve collapses to one scalar equation
    grid = build_grid(2)
    params = ModelParams()
    tau = 1e-6
    peak_pa = 7.0
    pressure = np.full(grid.num_nodes, peak_pa)
    state = fresh_state(grid, rho_a=1.5)
    new = step(state, tau, params, pressure, grid, Scheme.IMPLICIT_RIPPING)
    denom = (
        params.c / tau
        + params.kappa * 16.0**2
        + params.gamma * 16.0
        + params.xi * MICROGRAM * 1.5
    )
    expected = (params.c / tau * 0.0 + PASCAL * peak_pa) / denom
    (center,) = grid.restrict(new.h)
    assert center == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_splitting_fidelity(scheme):
    grid = build_grid(8)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=50.0)
    state = fresh_state(grid)
    ops = Operators(grid)
    for _ in range(5):
        state = step(state, 1e-6, params, pressure, grid, scheme, ops=ops)
        assert np.all(state.h[grid.boundary_mask] == 0.0)


def test_block_form_equivalence_oracle():
    # solving (h, w) as a coupled block system must agree with the
    # eliminated single solve used by step()
    grid = build_grid(4)
    params = ModelParams()
    tau = 1e-6
    pressure = pressure_pulse(grid, peak=40.0)
    state = fresh_state(grid, rho_a=1.2)
    new = step(state, tau, params, pressure, grid, Scheme.IMPLICIT_RIPPING)

    ops = Operators(grid)
    N = grid.num_interior
    A = as_scipy(ops.A).toarray()
    I = np.eye(N)
    spring = params.xi * MICROGRAM * 1.2
    # rows: height equation with w kept, then the splitting constraint
    top = np.hstack([(params.c / tau + params.lam + spring) * I, params.kappa * A + params.gamma * I])
    bottom = np.hstack([-A, I])
    block = np.vstack([top, bottom])
    rhs = np.concatenate([
        params.c / tau * grid.restrict(state.h) + PASCAL * grid.restrict(pressure),
        np.zeros(N),
    ])
    sol = np.linalg.solve(block, rhs)
    assert np.max(np.abs(grid.restrict(new.h) - sol[:N])) <= 1e-10 * max(1.0, np.abs(sol[:N]).max())
    w = ops.A @ grid.restrict(new.h)
    assert np.max(np.abs(w - sol[N:])) <= 1e-8 * max(1.0, np.abs(sol[N:]).max())


def test_zero_pressure_simulation_all_quiet():
    cfg = parse_config_dict({
        "scenario": "stationary_state",
        "n": 6,
        "final_time": 5e-6,
        "pressure": {"kind": "constant", "value": 0.0},
    })
    state, diag, _ = simulate(cfg)
    assert max(diag.max_h) == 0.0
    assert max(diag.max_step_diff) == 0.0
    assert np.ptp(diag.total_mass) == 0.0
    assert max(diag.ripping_flux) == 0.0


def _final_height(scheme, tau, n_steps, params, grid, pressure, ops):
    state = fresh_state(grid)
    for _ in range(n_steps):
        state = step(state, tau, params, pressure, grid, scheme, ops=ops)
    return state.h


def test_scheme_consistency_first_order_in_tau():
    # explicit and fully implicit ripping differ at O(tau) when the switch
    # is active but soft enough for the explicit variant to stay stable
    grid = build_grid(8)
    params = ModelParams(theta=0.05, k=100.0)
    pressure = pressure_pulse(grid, peak=400.0)
    ops = Operators(grid)
    T = 3.2e-5

    def gap(tau):
        n_steps = int(round(T / tau))
        h_exp = _final_height(Scheme.EXPLICIT_RIPPING, tau, n_steps, params, grid, pressure, ops)
        h_ful = _final_height(Scheme.FULLY_IMPLICIT, tau, n_steps, params, grid, pressure, ops)
        return np.max(np.abs(h_exp - h_ful))

    ratio = gap(1e-6) / gap(5e-7)
    assert 1.7 <= ratio <= 2.3


def test_height_bounded_by_linear_static_gain():
    # subcritical run never overshoots the stationary linear response by 5%
    grid = build_grid(16)
    params = ModelParams()
    peak = 30.0
    pressure = pressure_pulse(grid, peak=peak)
    ops = Operators(grid)

    gain_matrix = ops.stationary_height_matrix(params, np.ones(grid.num_nodes))
    unit = pressure_pulse(grid, peak=1.0)
    h_gain = cg_solve(gain_matrix, PASCAL * grid.restrict(unit), SolveOptions())
    bound = peak * float(h_gain.max()) * 1.05

    state = fresh_state(grid)
    for _ in range(100):
        state = step(state, 1e-6, params, pressure, grid, Scheme.IMPLICIT_RIPPING, ops=ops)
        assert state.h.max() <= bound


def test_fully_implicit_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    grid = build_grid(4)
    ops = Operators(grid)
    params = ModelParams(theta=0.1)
    tau = 1e-6
    pressure = np.full(grid.num_nodes, 3.0)
    state = State(
        h=grid.embed(rng.uniform(0.0, 1.0, grid.num_interior)),
        rho_a=rng.uniform(0.1, 2.0, grid.num_nodes),
        rho_i=rng.uniform(0.0, 1.0, grid.num_nodes),
    )
    h = rng.uniform(0.0, 1.2, grid.num_interior)
    h[np.abs(h - params.h_star) < 0.05] += 0.1  # keep clear of the switch kink
    rho_a = rng.uniform(0.1, 2.0, grid.num_nodes)
    rho_i = rng.uniform(0.0, 1.0, grid.num_nodes)
    z = np.concatenate([h, rho_a, rho_i])

    J = dense_jacobian(FullyImplicitJacobian(ops, params, tau, h, rho_a))

    def F(zz):
        return _fully_implicit_residual(zz, ops, params, tau, state, pressure)

    eps = 1e-7
    J_fd = np.empty_like(J)
    for j in range(z.size):
        e = np.zeros_like(z)
        e[j] = eps
        J_fd[:, j] = (F(z + e) - F(z - e)) / (2.0 * eps)
    rel = np.abs(J - J_fd).max() / np.abs(J).max()
    assert rel <= 1e-5

    # matvec agrees with the dense assembly
    v = rng.standard_normal(z.size)
    Jobj = FullyImplicitJacobian(ops, params, tau, h, rho_a)
    assert np.allclose(Jobj @ v, J @ v, rtol=1e-12, atol=1e-12)


def test_fully_implicit_residual_matches_assembled_reference():
    from blebsheet.model import ripping_rate

    rng = np.random.default_rng(13)
    grid = build_grid(8)
    ops = Operators(grid)
    params = ModelParams()
    tau = 1e-6
    pressure = pressure_pulse(grid, peak=400.0)
    state = State(
        h=grid.embed(rng.uniform(0.0, 1.0, grid.num_interior)),
        rho_a=rng.uniform(0.1, 2.0, grid.num_nodes),
        rho_i=rng.uniform(0.0, 1.0, grid.num_nodes),
    )
    h = rng.uniform(0.0, 1.2, grid.num_interior)
    rho_a = rng.uniform(0.1, 2.0, grid.num_nodes)
    rho_i = rng.uniform(0.0, 1.0, grid.num_nodes)
    F = _fully_implicit_residual(np.concatenate([h, rho_a, rho_i]), ops, params, tau,
                                 state, pressure)

    A = as_scipy(ops.A)
    neumann = sp.diags(1.0 / grid.weights) @ canonical_csr(assemble_laplacian(grid))
    flux = ripping_rate(grid.embed(h), params) * rho_a
    ref_h = params.c * (h - grid.restrict(state.h)) + tau * (
        params.kappa * ((A @ A) @ h) + params.gamma * (A @ h) + params.lam * h
        + params.xi * MICROGRAM * grid.restrict(rho_a) * h
        - PASCAL * grid.restrict(pressure)
    )
    ref_a = rho_a - state.rho_a + tau * (params.eta_a * (neumann @ rho_a) - params.k * rho_i + flux)
    ref_i = rho_i - state.rho_i + tau * (params.eta_i * (neumann @ rho_i) + params.k * rho_i - flux)
    ni, na = grid.num_interior, grid.num_nodes
    for got, ref in ((F[:ni], ref_h), (F[ni : ni + na], ref_a), (F[ni + na :], ref_i)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fully_implicit_lands_on_the_predictor_root():
    # near the ripping switch the backward Euler system has more than one
    # root: Newton from the semi-implicit predictor ends here, and Newton
    # from the previous state ends at max_h 1.406461348, 2.8e-4 away
    cfg = parse_config_dict({
        "scenario": "stationary_state", "n": 16, "scheme": "FullyImplicit",
        "final_time": 2e-5, "pressure": {"kind": "pulse", "peak": 400.0},
    })
    _, diag, _ = simulate(cfg)
    assert diag.max_h[-1] == pytest.approx(1.4068620870454505, rel=1e-8)


def test_fully_implicit_sweep_takes_supercritical_peaks():
    # at n = 8 the 350 and 450 Pa runs lose their Newton solution at full
    # tau (the steps from index 6 and 9) and finish only through step halving
    from blebsheet.cli import sweep_point

    cfg = parse_config_dict({"scenario": "pressure_sweep", "n": 8, "scheme": "FullyImplicit"})
    values = [sweep_point(peak, cfg) for peak in (300.0, 350.0, 400.0, 450.0, 500.0)]
    assert values[0] > cfg.params.h_star
    assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def test_halved_fully_implicit_step_counts_as_one(monkeypatch):
    import blebsheet.dynamics as dyn

    solves = []
    newton_armijo = dyn.newton_armijo

    def counted(*args, **kwargs):
        solves.append(None)
        return newton_armijo(*args, **kwargs)

    monkeypatch.setattr(dyn, "newton_armijo", counted)
    grid = build_grid(8)
    ops = Operators(grid)
    pressure = pressure_pulse(grid, peak=350.0)
    tau = 1e-6
    state = fresh_state(grid)
    for k in range(7):
        prev = state
        state = step(state, tau, ModelParams(), pressure, grid, Scheme.FULLY_IMPLICIT, ops=ops)
        assert state.step_index == k + 1
        assert state.t == prev.t + tau
    # the step from index 6 fails at tau and is taken as two halves
    assert len(solves) == 7 + 2


def test_failed_fully_implicit_attempt_stops_at_its_stall(monkeypatch):
    # the full-tau attempt at step 6 sat at |F|_inf ~ 0.12 for about 45
    # Newton systems before halving, 72 systems for the whole point
    import blebsheet.dynamics as dyn
    from blebsheet.cli import sweep_point

    systems = []
    newton_solve = dyn._newton_solve

    def counted(*args):
        systems.append(None)
        return newton_solve(*args)

    monkeypatch.setattr(dyn, "_newton_solve", counted)
    cfg = parse_config_dict({"scenario": "pressure_sweep", "n": 8, "scheme": "FullyImplicit"})
    assert sweep_point(350.0, cfg) > cfg.params.h_star
    assert len(systems) <= 30


def test_fully_implicit_halving_stops_at_fixed_depth(monkeypatch):
    import blebsheet.dynamics as dyn

    solves = []

    def stalled(residual, jacobian, x0, *args, **kwargs):
        solves.append(None)
        raise SolveError("stalled", x0, 1.0)

    monkeypatch.setattr(dyn, "newton_armijo", stalled)
    grid = build_grid(4)
    state = fresh_state(grid)
    state.step_index = 7
    with pytest.raises(StepError) as info:
        step(state, 1e-6, ModelParams(), pressure_pulse(grid, peak=400.0), grid,
             Scheme.FULLY_IMPLICIT)
    assert info.value.step_index == 7
    assert info.value.residual_norm == 1.0  # the failed solve's
    # the first half of every level fails in turn, down to the last level,
    # whose half would be shorter than the floor: 1e-6 / 2**9 ~ 1.95e-9 s
    assert 1e-6 / 2**10 < dyn._MIN_SUBSTEP <= 1e-6 / 2**9
    assert len(solves) == 10


def test_fully_implicit_step_halves_on_predictor_failure(monkeypatch):
    # the semi-implicit predictor's own solves can fail at a large tau; the
    # step is halved as for a failed Newton solve
    import blebsheet.dynamics as dyn

    predictions = []
    predict = dyn._step_semi_implicit

    def first_fails(*args):
        predictions.append(None)
        if len(predictions) == 1:
            raise SolveError("predictor failed", np.zeros(1), 1.0)
        return predict(*args)

    monkeypatch.setattr(dyn, "_step_semi_implicit", first_fails)
    grid = build_grid(8)
    state = fresh_state(grid)
    state.step_index = 7
    out = step(state, 1e-6, ModelParams(), pressure_pulse(grid, peak=400.0), grid,
               Scheme.FULLY_IMPLICIT)
    assert len(predictions) == 3  # the failed one, then one per half step
    assert out.step_index == 8
    assert out.t == 1e-6
    assert np.all(np.isfinite(out.h)) and out.h.max() > 0.0


def test_step_failure_carries_step_index():
    # with a uniform spring and no ripping the height solve starts at its
    # answer; after four steps of a 400 Pa pulse the ripping switches on
    # and a budget of two iterations is too small
    grid = build_grid(8)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=400.0)
    ops = Operators(grid)
    state = fresh_state(grid)
    for _ in range(4):
        state = step(state, 1e-6, params, pressure, grid, Scheme.IMPLICIT_RIPPING, ops=ops)
    state.step_index = 7
    with pytest.raises(StepError) as err:
        step(state, 1e-6, params, pressure, grid, Scheme.IMPLICIT_RIPPING,
             SolveOptions(max_iterations=2), ops=ops)
    assert err.value.step_index == 7
    assert "step 7" in str(err.value)
    assert err.value.residual_norm == err.value.__cause__.residual_norm > 0.0


def test_invalid_tau_rejected():
    grid = build_grid(4)
    with pytest.raises(ValueError):
        step(fresh_state(grid), 0.0, ModelParams(), np.zeros(grid.num_nodes), grid)


def test_diagnostics_fit_recovers_synthetic_decay():
    diag = Diagnostics()
    rate = -0.05
    for k in range(1, 120):
        diag.step.append(k)
        diag.max_step_diff.append(np.exp(rate * k + 0.3))
    diag.fit_decay((10, 100))
    assert diag.decay_rate == pytest.approx(rate, rel=1e-9)
    assert diag.decay_fit_r2 == pytest.approx(1.0, abs=1e-12)


def test_disruption_bleb_forms_above_hole():
    cfg = parse_config_dict({
        "scenario": "disruption", "n": 16, "final_time": 5e-5, "snapshot_steps": [50],
    })
    _, _, snaps = simulate(cfg)
    grid = build_grid(16)
    h50 = snaps[50].h
    peak_node = int(np.argmax(h50))
    dist = np.hypot(grid.node_x[peak_node] - 0.5, grid.node_y[peak_node] - 0.5)
    assert dist < 0.4


def test_explicit_ripping_supercritical_loses_positivity():
    # the unstabilized variant's explicit flux turns rho_a negative once tau
    # max(rate) > 1: the step that does so raises, and every state recorded
    # before it keeps both densities nonnegative and the mass
    cfg = parse_config_dict({
        "scenario": "stationary_state", "n": 8, "final_time": 3e-5,
        "scheme": "ExplicitRipping",
        "pressure": {"kind": "pulse", "peak": 400.0, "center": [0.5, 0.5], "radius": 0.4},
    })
    with pytest.raises(StepError, match="step 5: negative linker density -") as err:
        simulate(cfg)
    assert float(str(err.value).rsplit("= ", 1)[1]) > 1.0  # tau max(rate), 7.6 here
    diag = err.value.diagnostics
    assert len(diag.step) == 5
    assert min(diag.min_rho_a) >= 0.0 and min(diag.min_rho_i) >= 0.0
    assert diag.total_mass[-1] == pytest.approx(diag.total_mass[0], rel=1e-10)


# What each scheme does with five steps of tau at n = 16 under a 400 Pa pulse:
# None completes, a string is part of the StepError raised at step 1.  Faster
# or tighter density and Newton solves are expected to flip rows of this table.
TAU_SCHEME_OUTCOMES = {
    ("ExplicitRipping", 1e-5): "negative linker density",
    ("ExplicitRipping", 1e-4): "negative linker density",
    ("ExplicitRipping", 1e-3): "negative linker density",
    ("ImplicitRipping", 1e-5): None,
    ("ImplicitRipping", 1e-4): None,
    ("ImplicitRipping", 1e-3): "80 sweeps",
    ("FullyImplicit", 1e-5): None,
    ("FullyImplicit", 1e-4): None,
    ("FullyImplicit", 1e-3): None,
}


@pytest.mark.parametrize(("scheme", "tau"), list(TAU_SCHEME_OUTCOMES),
                         ids=[f"{s}-{t:g}" for s, t in TAU_SCHEME_OUTCOMES])
def test_tau_scheme_matrix(scheme, tau):
    cfg = parse_config_dict({
        "scenario": "stationary_state", "n": 16, "scheme": scheme, "tau": tau,
        "final_time": 5 * tau, "pressure": {"kind": "pulse", "peak": 400.0},
    })
    expected_error = TAU_SCHEME_OUTCOMES[scheme, tau]
    if expected_error is not None:
        with pytest.raises(StepError, match=expected_error) as err:
            simulate(cfg)
        assert err.value.step_index == 1
        return
    grid = build_grid(cfg.n)
    state0 = initial_state(cfg, grid)
    mass0 = integrate(grid, state0.rho_a + state0.rho_i)
    _, diag, _ = simulate(cfg)
    assert len(diag.step) == 5
    assert abs(diag.total_mass[-1] - mass0) <= 1e-10 * mass0


def test_build_pressure_returns_the_load_in_pa_per_node():
    grid = build_grid(8)
    values = [float(i) for i in range(grid.num_nodes)]
    cases = [
        ({"kind": "pulse", "peak": 250.0, "center": [0.3, 0.6], "radius": 0.3},
         pressure_pulse(grid, peak=250.0, center=(0.3, 0.6), radius=0.3)),
        ({"kind": "constant", "value": 5.0}, np.full(grid.num_nodes, 5.0)),
        ({"kind": "custom", "values": values}, np.array(values)),
    ]
    for desc, expected in cases:
        cfg = parse_config_dict({"scenario": "stationary_state", "n": 8, "pressure": desc})
        pressure = build_pressure(cfg, grid)
        assert type(pressure) is np.ndarray, desc["kind"]
        assert pressure.dtype == np.float64 and pressure.shape == (grid.num_nodes,)
        assert np.array_equal(pressure, expected), desc["kind"]


def test_build_pressure_rejects_a_custom_pressure_of_another_grid():
    cfg = parse_config_dict({"scenario": "stationary_state", "n": 8,
                             "pressure": {"kind": "custom", "values": [0.0] * 81}})
    with pytest.raises(ValueError, match="does not match the grid"):
        build_pressure(cfg, build_grid(4))


def test_build_pressure_rejects_an_unknown_kind():
    # parse_config admits no other kind; a config built by hand can carry one
    cfg = replace(parse_config_dict({"scenario": "stationary_state", "n": 4}),
                  pressure={"kind": "gust"})
    with pytest.raises(ValueError, match="unknown pressure kind 'gust'"):
        build_pressure(cfg, build_grid(4))


def test_step_failure_flushes_partial_diagnostics():
    # a tiny iteration budget starves the solves once ripping switches on
    # (step 4 at this peak); before that, no solve needs more than one iteration
    cfg = parse_config_dict({
        "scenario": "stationary_state", "n": 8, "final_time": 1e-5,
        "max_iterations": 2,
        "pressure": {"kind": "pulse", "peak": 400.0, "center": [0.5, 0.5], "radius": 0.4},
    })
    with pytest.raises(StepError) as err:
        simulate(cfg)
    assert err.value.diagnostics is not None
    assert len(err.value.diagnostics.step) < 10


def test_simulate_records_snapshots_and_fit():
    cfg = parse_config_dict({
        "scenario": "stationary_state",
        "n": 8,
        "final_time": 4e-5,
        "snapshot_steps": [1, 2, 40],
        "fit_window": [5, 40],
    })
    state, diag, snaps = simulate(cfg)
    assert sorted(snaps) == [1, 2, 40]
    assert snaps[40].step_index == 40
    assert len(diag.step) == 40
    assert diag.decay_rate is not None and diag.decay_rate < 0.0
    assert diag.decay_fit_r2 > 0.9
    # a kept snapshot is the state of that step, not a view of a later one
    two, _, _ = simulate(parse_config_dict({**cfg.to_dict(), "final_time": 2e-6}))
    for name in ("h", "rho_a", "rho_i"):
        assert np.array_equal(getattr(snaps[2], name), getattr(two, name))
    assert (snaps[2].t, snaps[2].step_index) == (two.t, two.step_index)
    assert not np.array_equal(snaps[2].h, state.h)


def assembled_height_matrix(ops, params, shift, rho_a):
    """``shift I + kappa A@A + gamma A + diag(spring)``, assembled from ``ops.A``."""
    A = as_scipy(ops.A)
    spring = params.xi * MICROGRAM * ops.grid.restrict(rho_a)
    return sp.csr_matrix(
        shift * sp.identity(A.shape[0]) + params.kappa * (A @ A) + params.gamma * A
        + sp.diags(spring)
    )


def height_system(n, kind, rho_a):
    """A height matrix and its sine-transform preconditioner.

    ``stationary`` is the Picard height matrix (no ``c/tau``); ``J_hh`` the
    height block of the fully implicit Jacobian at ``tau = 1e-6``.
    """
    grid = build_grid(n)
    ops = Operators(grid)
    params = ModelParams()
    if kind == "stationary":
        mat = assembled_height_matrix(ops, params, params.lam, rho_a)
        return mat, ops.stationary_height_matrix(params, rho_a).precond
    tau = 1e-6
    shift = params.c / tau + params.lam
    mat = tau * assembled_height_matrix(ops, params, shift, rho_a)
    # the Jacobian's height block is this matrix, applied and densified
    h_int = np.linspace(0.0, 1.0, grid.num_interior)
    J = FullyImplicitJacobian(ops, params, tau, h_int, rho_a)
    ni = grid.num_interior
    assert np.allclose(dense_jacobian(J)[:ni, :ni], mat.toarray(), rtol=1e-13, atol=0.0)
    x = np.random.default_rng(n).standard_normal(ni)
    v = np.concatenate([x, np.zeros(2 * grid.num_nodes)])
    assert np.allclose((J @ v)[:ni], mat @ x, rtol=1e-12, atol=1e-12 * np.abs(mat @ x).max())
    # J_hh is tau times a height matrix; CG is blind to that factor
    return mat, J.height.precond


@pytest.mark.parametrize("kind", ["stationary", "J_hh"])
@pytest.mark.parametrize("n", [8, 16])
def test_preconditioned_cg_matches_direct_solve(n, kind):
    rng = np.random.default_rng(n)
    rho_a = rng.uniform(0.2, 2.0, (n + 1) ** 2)
    mat, precond = height_system(n, kind, rho_a)
    b = rng.standard_normal(mat.shape[0])
    direct = spla.spsolve(mat.tocsc(), b)
    opts = SolveOptions(rel_tolerance=1e-13)
    plain = cg_solve(mat, b, opts)
    history = []
    pcg = cg_solve(mat, b, opts, residual_history=history, precond=precond)
    scale = np.linalg.norm(direct)
    assert np.linalg.norm(pcg - direct) <= 1e-9 * scale
    assert np.linalg.norm(pcg - plain) <= 1e-9 * scale
    # the stop test is on the unpreconditioned residual
    assert np.linalg.norm(b - mat @ pcg) <= 1.01e-13 * np.linalg.norm(b)
    assert history[-1] <= 1e-13 * np.linalg.norm(b)


@pytest.mark.parametrize("kind", ["stationary", "J_hh"])
def test_preconditioned_cg_exact_for_uniform_spring(kind):
    n = 16
    mat, precond = height_system(n, kind, np.full((n + 1) ** 2, 1.3))
    b = np.random.default_rng(3).standard_normal(mat.shape[0])
    history = []
    cg_solve(mat, b, residual_history=history, precond=precond)
    assert len(history) - 1 <= 2


def test_height_preconditioner_agrees_across_blas_thread_counts(tmp_path):
    # the sine transforms are BLAS matrix products, whose blocking depends
    # on the thread count: outputs agree to roundoff across thread counts,
    # and are byte-identical only for one BLAS build and one thread count
    import subprocess
    import sys
    from pathlib import Path

    import blebsheet

    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import numpy as np\n"
        "from blebsheet.dynamics import Operators\n"
        "from blebsheet.grid import build_grid\n"
        "from blebsheet.model import ModelParams\n"
        "ops = Operators(build_grid(128))\n"
        "H = ops.height_matrix(ModelParams(), 1e-6, np.ones(ops.grid.num_nodes))\n"
        "r = np.random.default_rng(0).standard_normal(ops.grid.num_interior)\n"
        "np.save(sys.argv[2], H.precond(r))\n"
    )
    src = str(Path(blebsheet.__file__).resolve().parent.parent)
    products = []
    for threads in ("1", "2"):
        path = tmp_path / f"precond_{threads}.npy"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", code, src, str(path)], env=env,
                       capture_output=True, timeout=120, check=True)
        products.append(np.load(path))
    one, two = products
    assert np.linalg.norm(one - two) <= 1e-13 * np.linalg.norm(one)


@pytest.mark.parametrize("kind", ["stationary", "J_hh"])
def test_height_preconditioner_symmetric_positive(kind):
    n = 8
    rng = np.random.default_rng(5)
    _, precond = height_system(n, kind, rng.uniform(0.0, 3.0, (n + 1) ** 2))
    for _ in range(20):
        x, y = rng.standard_normal((2, (n - 1) ** 2))
        Mx, My = precond(x), precond(y)
        assert abs(x @ My - Mx @ y) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(My)
        assert x @ Mx > 0.0


@pytest.mark.parametrize("kind", ["step", "stationary"])
@pytest.mark.parametrize("n", [4, 8, 16])
def test_height_operator_matches_assembled_matrix(n, kind):
    rng = np.random.default_rng(100 + n)
    grid = build_grid(n)
    ops = Operators(grid)
    params = ModelParams()
    rho_a = rng.uniform(0.2, 2.0, grid.num_nodes)
    if kind == "step":
        tau = 1e-6
        B = ops.height_matrix(params, tau, rho_a)
        shift = params.c / tau + params.lam
    else:
        B = ops.stationary_height_matrix(params, rho_a)
        shift = params.lam
    mat = assembled_height_matrix(ops, params, shift, rho_a)
    for _ in range(5):
        x = rng.standard_normal(grid.num_interior)
        expected = mat @ x
        assert np.linalg.norm(B @ x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_height_operator_symmetric():
    n = 16
    rng = np.random.default_rng(7)
    grid = build_grid(n)
    ops = Operators(grid)
    spring = grid.restrict(rng.uniform(0.0, 3.0, grid.num_nodes))
    B = HeightOperator(ops, ModelParams(), 3.0, spring)
    for _ in range(20):
        x, y = rng.standard_normal((2, grid.num_interior))
        By = B @ y
        assert abs(x @ By - (B @ x) @ y) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(By)


def _pulse_run(n, n_steps, peak=400.0, ops=None):
    ops = Operators(build_grid(n)) if ops is None else ops
    grid = ops.grid
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=peak, center=(0.5, 0.5), radius=0.4)
    state = fresh_state(grid)
    for _ in range(n_steps):
        state = step(state, 1e-6, params, pressure, grid, Scheme.IMPLICIT_RIPPING, ops=ops)
    return state


def test_preconditioned_step_matches_plain_cg(monkeypatch):
    # ripping starts within these steps, so the spring is no longer uniform
    import blebsheet.dynamics as dyn

    pcg = _pulse_run(16, 8)
    assert pcg.h.max() > ModelParams().h_star
    assert np.ptp(pcg.rho_a) > 1e-3

    # plain CG: no preconditioner, and each height solve starts from the
    # previous height instead of the preconditioned right-hand side
    grid = build_grid(16)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=400.0, center=(0.5, 0.5), radius=0.4)
    ops = Operators(grid)
    plain = fresh_state(grid)

    def plain_cg(A, b, opts, x0=None, precond=None, **kwargs):
        if isinstance(A, HeightOperator):
            x0 = grid.restrict(plain.h)
        return cg_solve(A, b, opts, x0=x0, **kwargs)

    monkeypatch.setattr(dyn, "cg_solve", plain_cg)
    for _ in range(8):
        plain = step(plain, 1e-6, params, pressure, grid, Scheme.IMPLICIT_RIPPING, ops=ops)
    for name in ("h", "rho_a", "rho_i"):
        a, b = getattr(pcg, name), getattr(plain, name)
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))


def test_step_height_solves_take_few_iterations(monkeypatch):
    # plain CG needs about 620 iterations per height solve here; started at
    # P b, the five solves before ripping take none and the five after 3 to 4
    import blebsheet.dynamics as dyn

    n = 64
    iterations = []

    def counted(A, b, *args, **kwargs):
        history = []
        x = cg_solve(A, b, *args, residual_history=history, **kwargs)
        if b.size == (n - 1) ** 2:
            iterations.append(len(history) - 1)
        return x

    monkeypatch.setattr(dyn, "cg_solve", counted)
    state = _pulse_run(n, 10, peak=410.0)
    assert state.h.max() > ModelParams().h_star
    assert len(iterations) == 10
    assert max(iterations) <= 5
    assert sum(iterations) <= 20


@pytest.mark.parametrize(("n", "scheme"), [*((16, s) for s in ALL_SCHEMES),
                                          (64, Scheme.IMPLICIT_RIPPING)])
def test_height_solves_before_ripping_take_no_iteration(monkeypatch, n, scheme):
    # before ripping the spring xi rho_a is uniform, so the preconditioner is
    # the height operator's inverse and each solve starts at its answer
    import blebsheet.dynamics as dyn

    histories = []

    def counted(A, b, *args, **kwargs):
        history = []
        x = cg_solve(A, b, *args, residual_history=history, **kwargs)
        if isinstance(A, HeightOperator):
            histories.append(history)
        return x

    monkeypatch.setattr(dyn, "cg_solve", counted)
    grid = build_grid(n)
    ops = Operators(grid)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=410.0, center=(0.5, 0.5), radius=0.4)
    state = fresh_state(grid)
    calm_steps = 0
    while state.h.max() <= params.h_star and calm_steps < 20:
        histories.clear()
        state = step(state, 1e-6, params, pressure, grid, scheme, ops=ops)
        assert histories and all(len(history) == 1 for history in histories)
        calm_steps += 1
    assert 3 <= calm_steps < 20
    # the first ripping step's spring varies: its height solve iterates.
    # ExplicitRipping's flux turns rho_a negative there (tau max(rate) = 3.6
    # at n = 16), so that step raises before its height solve
    histories.clear()
    if scheme is Scheme.EXPLICIT_RIPPING:
        with pytest.raises(StepError, match="negative linker density"):
            step(state, 1e-6, params, pressure, grid, scheme, ops=ops)
        assert not histories
        return
    step(state, 1e-6, params, pressure, grid, scheme, ops=ops)
    assert max(len(history) for history in histories) > 1


def test_a_run_builds_one_membrane_symbol():
    # the symbol depends on kappa and gamma only: every height operator of
    # the run adds its own mean diagonal to the same array
    params = ModelParams()
    ops = Operators(build_grid(16))
    state = _pulse_run(16, 100, ops=ops)
    assert state.h.max() > params.h_star
    assert np.ptp(state.rho_a) > 1e-3
    assert len(ops._membrane_symbol) == 1
    symbol = ops.membrane_symbol(params.kappa, params.gamma)
    assert not symbol.flags.writeable
    B = ops.height_matrix(params, 1e-6, state.rho_a)
    eig = ops.eig
    assert np.array_equal(B._inverse_symbol,
                          1.0 / (B.mean_diag + eig * (params.kappa * eig + params.gamma)))
    assert len(ops._membrane_symbol) == 1


def _marched_heights(config, ops, pressure, steps):
    """Max heights of a marched run, after checking that it never rips."""
    states = list(itertools.islice(march(initial_state(config, ops.grid), config, ops, pressure),
                                   steps))
    for state in states:
        assert state.h.max() <= config.params.h_star
        assert np.all(state.rho_a == 1.0) and np.all(state.rho_i == 0.0)
    return [float(state.h.max()) for state in states]


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("n", [8, 16, 32])
def test_linear_heights_match_marched_sub_critical_runs(scheme, n):
    # below h_star every scheme solves the same linear step, which the sine
    # basis diagonalizes; the peak keeps each run at half of h_star
    ops = Operators(build_grid(n))
    for (center, radius), tau, c in itertools.product(
            [((0.5, 0.5), 0.4), ((0.3, 0.6), 0.3)], [1e-6, 2.5e-7], [1.0, 0.0]):
        config = parse_config_dict({"scenario": "pressure_sweep", "n": n, "tau": tau,
                                    "scheme": scheme.value, "params": {"c": c}})
        steps = round(1e-5 / tau)
        unit = ops.linear_heights(config.params, pressure_pulse(ops.grid, 1.0, center, radius),
                                  tau, steps)
        pressure = pressure_pulse(ops.grid, 0.5 * config.params.h_star / max(unit), center,
                                  radius)
        closed = ops.linear_heights(config.params, pressure, tau, steps)
        assert closed == pytest.approx(_marched_heights(config, ops, pressure, steps),
                                       rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("center, radius", [((0.5, 0.5), 0.4), ((0.3, 0.6), 0.3)])
def test_linear_heights_with_a_negative_membrane_mode(scheme, center, radius):
    # at gamma = -1e5 every mode of kappa A^2 + gamma A + xi is negative at
    # n = 8, and 1 + tau mu / c < 0: the height alternates in sign and grows
    ops = Operators(build_grid(8))
    config = parse_config_dict({"scenario": "pressure_sweep", "n": 8, "scheme": scheme.value,
                                "params": {"gamma": -1e5}})
    assert ops.membrane_symbol(config.params.kappa, config.params.gamma).max() < 0.0
    unit = ops.linear_heights(config.params, pressure_pulse(ops.grid, 1.0, center, radius),
                              config.tau, 10)
    assert 0.0 in unit
    pressure = pressure_pulse(ops.grid, 0.5 * config.params.h_star / max(unit), center, radius)
    closed = ops.linear_heights(config.params, pressure, config.tau, 10)
    assert closed == pytest.approx(_marched_heights(config, ops, pressure, 10),
                                   rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scheme", [Scheme.EXPLICIT_RIPPING, Scheme.IMPLICIT_RIPPING])
def test_an_indefinite_height_operator_raises_on_the_first_step(scheme):
    # at gamma = -1e5 and tau = 2.5e-7 the step symbol c / tau + lam + xi + mu
    # takes both signs at n = 8; CG, started at the preconditioner's answer,
    # would pass its first stop test and never test p.Ap, so the height would
    # grow unseen (at tau = 1e-6 every mode is negative and the run still
    # marches: test_linear_heights_with_a_negative_membrane_mode)
    ops = Operators(build_grid(8))
    config = parse_config_dict({"scenario": "pressure_sweep", "n": 8, "scheme": scheme.value,
                                "tau": 2.5e-7, "params": {"gamma": -1e5}})
    states = march(initial_state(config, ops.grid), config, ops, pressure_pulse(ops.grid, 1.0))
    with pytest.raises(StepError, match=r"indefinite: its symbol spans -2\.089e\+07 to "
                                        r"2\.189e\+06") as err:
        next(states)
    assert err.value.step_index == 0


def test_every_height_solve_is_preconditioned(monkeypatch):
    import blebsheet.dynamics as dyn
    import blebsheet.energy as energy
    import blebsheet.stationary as stationary

    height_solves = []

    def recorded(A, b, *args, **kwargs):
        if isinstance(A, HeightOperator):
            height_solves.append(kwargs.get("precond"))
        return cg_solve(A, b, *args, **kwargs)

    for module in (dyn, energy, stationary):
        monkeypatch.setattr(module, "cg_solve", recorded)
    n = 16
    grid = build_grid(n)
    ops = Operators(grid)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=400.0)
    runs = [
        lambda scheme=scheme: step(fresh_state(grid), 1e-6, params, pressure, grid, scheme,
                                   ops=ops)
        for scheme in Scheme
    ]
    runs.append(lambda: stationary.stationary_fixed_point(params, pressure, 1.0, grid))
    runs.append(lambda: energy.minimize_J(1e-2, 1.0, params, pressure, grid, ops=ops))
    for run in runs:
        height_solves.clear()
        run()
        assert height_solves
        assert all(precond is not None for precond in height_solves)


def _count_density_iterations(monkeypatch, module):
    """Per density CG call of ``module``, its iteration count."""
    iterations = []

    def counted(A, b, *args, **kwargs):
        history = []
        x = cg_solve(A, b, *args, residual_history=history, **kwargs)
        if not isinstance(A, HeightOperator):
            iterations.append(len(history) - 1)
        return x

    monkeypatch.setattr(module, "cg_solve", counted)
    return iterations


def test_diffusion_free_coupled_solve_starts_at_its_answer(monkeypatch):
    # without diffusion the node-wise reaction solution is the coupled
    # solution, so the first sweep's two CG solves take no iteration
    import blebsheet.dynamics as dyn

    iterations = _count_density_iterations(monkeypatch, dyn)
    grid = build_grid(16)
    rng = np.random.default_rng(16)
    rho_a = rng.uniform(0.5, 1.5, grid.num_nodes)
    rho_i = rng.uniform(0.0, 0.5, grid.num_nodes)
    dist = np.hypot(grid.node_x - 0.5, grid.node_y - 0.5)
    rate = np.where(dist < 0.3, 1e8 * (1.0 - dist / 0.3), 0.0)
    params = ModelParams(eta_a=0.0, eta_i=0.0)
    got_a, got_i = _solve_densities(Operators(grid), params, 1e-6, rate, rho_a, rho_i, True,
                                    SolveOptions())
    assert iterations == [0, 0]
    want_a, want_i = _reaction_start(params.k * 1e-6, 1e-6 * rate, rho_a, rho_i)
    assert np.array_equal(got_a, want_a) and np.array_equal(got_i, want_i)


_rates = st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e9))
_densities = st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e6))


@given(k_tau=_rates, rate_tau=_rates, rho_a=_densities, rho_i=_densities)
def test_reaction_start_nonnegative_and_conserving(k_tau, rate_tau, rho_a, rho_i):
    a, i = _reaction_start(k_tau, np.array([rate_tau]), np.array([rho_a]), np.array([rho_i]))
    assert a[0] >= 0.0 and i[0] >= 0.0
    total = rho_a + rho_i
    assert abs((a[0] + i[0]) - total) <= 4.0 * np.finfo(float).eps * total


@pytest.mark.parametrize(("implicit_ripping", "max_budget"), [(True, 1e3), (False, 1.0)])
def test_density_step_from_nonnegative_data_stays_nonnegative(implicit_ripping, max_budget):
    # every system of the step is an M-matrix, so nonnegative right-hand sides
    # give nonnegative densities. Under implicit ripping that holds at any
    # rate, coupled (some rate > 0) or not (budget 0), and the coupled branch
    # has no sign check of its own; under explicit ripping the flux leaves
    # W rho_a (1 / tau - rate) + k W rho_i_new on the active right-hand side,
    # nonnegative while tau max(rate) <= 1
    params = ModelParams()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(min_value=8, max_value=16), seed=st.integers(0, 2**32 - 1),
           tau=st.sampled_from([1e-6, 1e-5]),
           budget=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=max_budget))
    def nonnegative(n, seed, tau, budget):
        # each density is zero on about a third of the nodes; the heights are
        # random about h_star, scaled so that tau max(rate) is budget
        grid = build_grid(n)
        rng = np.random.default_rng(seed)
        shape = (2, grid.num_nodes)
        rho_a, rho_i = rng.uniform(0.0, 2.0, shape) * (rng.random(shape) < 0.7)
        u = rng.uniform(-1.0, 1.0, grid.num_nodes)
        u[rng.integers(grid.num_nodes)] = 1.0
        rate = ripping_rate(params.h_star + budget * params.theta / tau * u, params)
        got = np.concatenate(_solve_densities(Operators(grid), params, tau, rate, rho_a, rho_i,
                                              implicit_ripping, SolveOptions()))
        assert got.min() >= -1e-12 * max(got.max(), 1.0)

    nonnegative()


def test_explicit_ripping_density_step_beyond_its_bound_raises():
    # tau rate = 2 at one node of uniform rho_a: its active right-hand side
    # is W (1 - 2) / tau plus a reconnection 50 times smaller
    params = ModelParams()
    grid = build_grid(8)
    h = np.zeros(grid.num_nodes)
    h[grid.num_nodes // 2] = params.h_star + 2.0 * params.theta / 1e-6
    message = r"negative linker density -.*, tau max\(rate\) = 2.000e\+00"
    with pytest.raises(SolveError, match=message):
        _solve_densities(Operators(grid), params, 1e-6, ripping_rate(h, params),
                         np.ones(grid.num_nodes), np.zeros(grid.num_nodes), False, SolveOptions())


def test_ripping_steps_density_iterations_capped(monkeypatch):
    # every coupled solve starts at the node-wise reaction solution; from
    # the previous time level these 20 steps took 3,446 iterations
    import blebsheet.dynamics as dyn

    iterations = _count_density_iterations(monkeypatch, dyn)
    state = _pulse_run(64, 20, peak=410.0)
    assert state.h.max() > ModelParams().h_star
    assert sum(iterations) <= 2400


def test_density_gauss_seidel_cap_raises():
    # k tau and rate tau of 1e6 make the sweep contraction about 1 - 2e-6
    grid = build_grid(4)
    ops = Operators(grid)
    rng = np.random.default_rng(0)
    rho_a = rng.uniform(1.0, 2.0, grid.num_nodes)
    rho_i = rng.uniform(0.0, 1.0, grid.num_nodes)
    rate = np.full(grid.num_nodes, 1e6)
    with pytest.raises(SolveError, match="80 sweeps") as err:
        _solve_densities(ops, ModelParams(k=1e6), 1.0, rate, rho_a, rho_i, True,
                         SolveOptions())
    assert err.value.iterate.shape == (2 * grid.num_nodes,)
    _assert_active_residual_above_target(err.value, grid, ModelParams(k=1e6), 1.0, rate, rho_a)


def _density_blocks(grid, params, tau, rate):
    """``B_a`` and ``B_i`` of the coupled density step, from the plain assembly."""
    w = grid.weights
    L = canonical_csr(assemble_laplacian(grid))
    B_a = sp.diags(w * (1.0 / tau + rate)) + params.eta_a * L
    B_i = sp.diags(w * (1.0 / tau + params.k)) + params.eta_i * L
    return B_a, B_i


def _assert_active_residual_above_target(exc, grid, params, tau, rate, rho_a):
    """``exc`` reports the active equation's residual, above 1e-12 of its right-hand side."""
    a, i = np.split(exc.iterate, 2)
    B_a, _ = _density_blocks(grid, params, tau, rate)
    rhs_a = grid.weights * (rho_a / tau + params.k * i)
    assert exc.residual_norm == pytest.approx(np.linalg.norm(B_a @ a - rhs_a), rel=1e-6)
    assert exc.residual_norm > 1e-12 * np.linalg.norm(rhs_a)


def _coupled_density_case(grid):
    """Random densities and a ripping disc of rate up to 1e8, as in the spsolve oracle."""
    rng = np.random.default_rng(grid.n)
    rho_a = rng.uniform(0.5, 1.5, grid.num_nodes)
    rho_i = rng.uniform(0.0, 0.5, grid.num_nodes)
    dist = np.hypot(grid.node_x - 0.5, grid.node_y - 0.5)
    rate = np.where(dist < 0.3, 1e8 * (1.0 - dist / 0.3), 0.0)
    return rho_a, rho_i, rate


@pytest.mark.parametrize("tau", [1e-6, 1e-5, 1e-4, 3e-4])
def test_coupled_density_solve_meets_each_block_tolerance(tau):
    # a stop on the increment of rho_a leaves the active equation unconverged
    # at tau >= 1e-4: coupled residuals of 1.1e-11 at 1e-4 and 4.9e-11 at 3e-4
    grid = build_grid(16)
    params = ModelParams(k=1e4)
    rho_a, rho_i, rate = _coupled_density_case(grid)
    a, i = _solve_densities(Operators(grid), params, tau, rate, rho_a, rho_i, True,
                            SolveOptions())

    w = grid.weights
    B_a, B_i = _density_blocks(grid, params, tau, rate)
    rhs_a = w * (rho_a / tau + params.k * i)
    rhs_i = w * (rho_i / tau + rate * a)
    assert np.linalg.norm(B_a @ a - rhs_a) <= 1e-12 * np.linalg.norm(rhs_a)
    assert np.linalg.norm(B_i @ i - rhs_i) <= 1e-12 * np.linalg.norm(rhs_i)
    coupled = sp.bmat([[B_a, -params.k * sp.diags(w)], [-sp.diags(w * rate), B_i]])
    rhs = np.concatenate([w * rho_a / tau, w * rho_i / tau])
    residual = coupled @ np.concatenate([a, i]) - rhs
    assert np.linalg.norm(residual) <= 5e-12 * np.linalg.norm(rhs)


def test_coupled_density_solve_raises_at_large_tau():
    # at tau = 1e-3 the sweeps contract too slowly for the 80-sweep cap
    grid = build_grid(16)
    rho_a, rho_i, rate = _coupled_density_case(grid)
    params = ModelParams(k=1e4)
    with pytest.raises(SolveError, match="80 sweeps") as err:
        _solve_densities(Operators(grid), params, 1e-3, rate, rho_a, rho_i, True,
                         SolveOptions())
    _assert_active_residual_above_target(err.value, grid, params, 1e-3, rate, rho_a)


# ---------------------------------------------------------------------------
# fully implicit Newton systems


def _count_preconditioner_calls(monkeypatch):
    import blebsheet.dynamics as dyn

    calls = []
    gmres_solve = dyn.gmres_solve

    def counted(A, b, precond, opts):
        calls.append(0)

        def counted_precond(r):
            calls[-1] += 1
            return precond(r)

        return gmres_solve(A, b, counted_precond, opts)

    monkeypatch.setattr(dyn, "gmres_solve", counted)
    return calls


@pytest.mark.parametrize("n", [8, 16])
def test_newton_solve_matches_dense_solve(n):
    state = _pulse_run(n, 8)
    grid = build_grid(n)
    params = ModelParams()
    J = FullyImplicitJacobian(Operators(grid), params, 1e-6, grid.restrict(state.h), state.rho_a)
    assert np.count_nonzero(J.rate) > 1 and np.count_nonzero(J.diag_ah) > 1
    rhs = np.random.default_rng(n).standard_normal(grid.num_interior + 2 * grid.num_nodes)
    got = _newton_solve(J, rhs, SolveOptions())
    want = np.linalg.solve(dense_jacobian(J), rhs)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    assert np.linalg.norm(J @ got - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_newton_solve_meets_bound_where_gauss_seidel_capped(monkeypatch):
    # at n = 8 and 400 Pa the first Newton systems of the steps from index
    # 3 and 6 took 105 and 141 block Gauss-Seidel sweeps, against a cap of 60
    import blebsheet.dynamics as dyn

    calls = _count_preconditioner_calls(monkeypatch)
    systems = []
    newton_solve = dyn._newton_solve

    def recorded(J, rhs, opts):
        d = newton_solve(J, rhs, opts)
        systems.append((state.step_index, calls[-1], J, rhs, d))
        return d

    monkeypatch.setattr(dyn, "_newton_solve", recorded)
    grid = build_grid(8)
    ops = Operators(grid)
    pressure = pressure_pulse(grid, peak=400.0)
    state = fresh_state(grid)
    for _ in range(7):
        state = step(state, 1e-6, ModelParams(), pressure, grid, Scheme.FULLY_IMPLICIT, ops=ops)
    capped = [s for s in systems if s[0] in (3, 6)]
    assert {s[0] for s in capped} == {3, 6}
    for index, iterations, J, rhs, d in capped:
        assert np.count_nonzero(J.rate) > 0
        assert 1 < iterations <= 10, index
        assert np.linalg.norm(J @ d - rhs) <= 1e-12 * np.linalg.norm(rhs), index


def test_non_ripping_newton_system_takes_few_iterations(monkeypatch):
    # nothing rips, so the preconditioner misses only the density diffusion
    calls = _count_preconditioner_calls(monkeypatch)
    grid = build_grid(8)
    rng = np.random.default_rng(3)
    h_int = rng.uniform(0.0, 0.4, grid.num_interior)  # below h_star
    rho_a = rng.uniform(0.5, 1.5, grid.num_nodes)
    J = FullyImplicitJacobian(Operators(grid), ModelParams(), 1e-6, h_int, rho_a)
    assert not np.any(J.rate) and not np.any(J.diag_ah)
    rhs = rng.standard_normal(grid.num_interior + 2 * grid.num_nodes)
    d = _newton_solve(J, rhs, SolveOptions())
    assert len(calls) == 1 and calls[0] <= 10
    assert np.linalg.norm(J @ d - rhs) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("n", [8, 32, 64])
def test_newton_gmres_iterations_do_not_grow_with_the_grid(monkeypatch, n):
    # 5 to 6 iterations here; at most 7 over whole runs at n = 8 to 64
    import blebsheet.dynamics as dyn

    state = _pulse_run(n, 10, peak=410.0)
    grid = build_grid(n)
    calls = _count_preconditioner_calls(monkeypatch)
    rates = []
    newton_solve = dyn._newton_solve

    def recorded(J, rhs, opts):
        rates.append(np.count_nonzero(J.rate))
        return newton_solve(J, rhs, opts)

    monkeypatch.setattr(dyn, "_newton_solve", recorded)
    step(state, 1e-6, ModelParams(), pressure_pulse(grid, peak=410.0), grid,
         Scheme.FULLY_IMPLICIT, ops=Operators(grid))
    assert len(calls) == len(rates) and min(rates) > 1
    assert max(calls) <= 10


def test_ripping_newton_solve_makes_no_cg_call(monkeypatch):
    # the preconditioner is node-wise plus sine transforms: no inner solve
    import blebsheet.dynamics as dyn

    state = _pulse_run(16, 8)
    grid = build_grid(16)
    inner = []
    monkeypatch.setattr(dyn, "cg_solve", lambda *args, **kwargs: inner.append("cg_solve"))
    monkeypatch.setattr(Operators, "density_matrix",
                        lambda *args: inner.append("density_matrix"))
    ops = Operators(grid)
    J = FullyImplicitJacobian(ops, ModelParams(), 1e-6, grid.restrict(state.h), state.rho_a)
    assert np.count_nonzero(J.rate) > 1
    rhs = np.random.default_rng(16).standard_normal(grid.num_interior + 2 * grid.num_nodes)
    d = _newton_solve(J, rhs, SolveOptions())
    assert inner == []
    assert np.linalg.norm(J @ d - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_fully_implicit_step_halves_on_gmres_stall(monkeypatch):
    # at tau = 1e-5 the 1e-12 target of the first Newton system lies below
    # GMRES's roundoff floor; the stall is caught and the step is halved
    import blebsheet.dynamics as dyn

    stalls = []
    gmres_solve = dyn.gmres_solve

    def recorded(*args):
        try:
            return gmres_solve(*args)
        except SolveError as exc:
            stalls.append(str(exc))
            raise

    monkeypatch.setattr(dyn, "gmres_solve", recorded)
    cfg = parse_config_dict({
        "scenario": "stationary_state", "n": 32, "scheme": "FullyImplicit", "tau": 1e-5,
        "final_time": 5e-5, "pressure": {"kind": "pulse", "peak": 400.0},
    })
    state, diag, _ = simulate(cfg)
    assert stalls and all("stalled" in message for message in stalls)
    assert state.step_index == 5
    assert diag.total_mass[-1] == pytest.approx(diag.total_mass[0], rel=1e-12)


# ---------------------------------------------------------------------------
# density matrices


@pytest.mark.parametrize("n", [4, 8, 16, 64])
@pytest.mark.parametrize("spread", [False, True])
def test_density_matrix_matches_sparse_sum(n, spread):
    grid = build_grid(n)
    ops = Operators(grid)
    if spread:
        # 1/tau + rate under ripping: 1e6 off the bleb, up to 1e8 on it
        rng = np.random.default_rng(n)
        extra = rng.permutation(np.logspace(0.0, 8.0, grid.num_nodes))
    else:
        extra = np.full(grid.num_nodes, 1e6 + 1e4)
    got = ops.density_matrix(0.2, extra)
    assert type(got) is DiaMatrix and np.array_equal(got.offsets, ops.LN.offsets)
    LN = canonical_csr(assemble_laplacian(grid))
    want = canonical_csr(sp.diags(grid.weights * extra) + 0.2 * LN)
    got = as_scipy(got).tocsr()
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_diagonal_storage_products_equal_csr_products(n):
    # scipy's DIA product sums each row one diagonal at a time in offset
    # order, the canonical CSR column order, so every term is added as the
    # CSR product adds it: the results are bitwise equal, not merely close
    grid = build_grid(n)
    ops = Operators(grid)
    # ops.A in CSR form is the canonical 5-point stencil (test_grid pins it)
    A = as_scipy(ops.A).tocsr()
    LN = canonical_csr(assemble_laplacian(grid))
    rng = np.random.default_rng(n)
    for name, M, want in (("A", ops.A, A), ("LN", ops.LN, LN)):
        assert np.all(np.diff(M.offsets) > 0), name
        for _ in range(3):
            x = rng.standard_normal(M.shape[1]) * 10.0 ** rng.integers(-8, 8)
            assert np.array_equal(M @ x, want @ x), name
    extra = rng.permutation(np.logspace(0.0, 8.0, grid.num_nodes))
    B = ops.density_matrix(0.2, extra)
    B_csr = canonical_csr(sp.diags(grid.weights * extra) + 0.2 * LN)
    assert np.all(np.diff(B.offsets) > 0)
    for _ in range(3):
        x = rng.standard_normal(grid.num_nodes)
        assert np.array_equal(B @ x, B_csr @ x)


def _signed_zero_vectors(rng, size):
    """Random vectors with +0.0 and -0.0 entries, the last one a strided view."""
    for _ in range(3):
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8)
        x[rng.random(size) < 0.3] = 0.0
        x[rng.random(size) < 0.3] = -0.0
        yield x
    wide = rng.standard_normal(2 * size)
    wide[::4] = -0.0
    yield wide[::2]


@pytest.mark.parametrize("n", [2, 8, 12, 64])
def test_dia_matrix_product_equals_scipy_dia_product(n):
    # DiaMatrix calls scipy's private DIA kernel directly; its product must
    # stay bitwise scipy's public one, including the sign of a zero
    grid = build_grid(n)
    ops = Operators(grid)
    params = ModelParams()
    rate = ripping_rate(2.0 * params.h_star * np.hypot(grid.node_x, grid.node_y), params)
    assert np.any(rate > 0.0)
    B = ops.density_matrix(0.2, 1e6 + rate)
    rng = np.random.default_rng(n)
    for name, M in (("A", ops.A), ("LN", ops.LN), ("B", B)):
        want = sp.dia_matrix((M.data, M.offsets), shape=M.shape)
        for x in _signed_zero_vectors(rng, M.shape[1]):
            got = M @ x
            assert got.dtype == np.float64 and got.shape == (M.shape[0],), name
            assert np.array_equal(got, want @ x), name
            assert np.array_equal(np.signbit(got), np.signbit(want @ x)), name


def test_dia_matrix_refuses_what_its_kernel_cannot_read():
    ops = Operators(build_grid(4))
    n = ops.LN.shape[1]
    for x in (np.ones(n - 1), np.ones((n, 1)), np.ones(n, dtype=np.float32)):
        with pytest.raises(ValueError, match="float64 vector of length"):
            ops.LN @ x


def test_operators_hold_no_scipy_matrix():
    ops = Operators(build_grid(8))
    ops.density_matrix(0.2, 1e6)
    ops.density_matrix(0.2, np.full(ops.grid.num_nodes, 1e6))
    assert not any(sp.issparse(value) for value in vars(ops).values())
    assert type(ops.A) is DiaMatrix and type(ops.LN) is DiaMatrix


@pytest.mark.parametrize("n", [*range(2, 41), 64, 128])
def test_weighted_neumann_operator_exactly_symmetric(n):
    # density_matrix is symmetric only because LN is; nothing re-symmetrizes
    LN = as_scipy(Operators(build_grid(n)).LN)
    assert (LN - LN.T).count_nonzero() == 0


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_weighted_neumann_operator_stores_every_diagonal(n):
    # density_matrix adds the reaction term to the offset-0 row of LN.data
    LN = Operators(build_grid(n)).LN
    main = LN.data[LN.offsets.tolist().index(0)]
    assert main.shape == (LN.shape[0],)
    assert np.array_equal(main, as_scipy(LN).diagonal())
    assert np.all(main > 0.0)


def test_density_matrix_leaves_operator_unchanged():
    grid = build_grid(8)
    ops = Operators(grid)
    before = ops.LN.data.copy()
    first = ops.density_matrix(0.2, np.full(grid.num_nodes, 1e6))
    kept = first.data.copy()
    second = ops.density_matrix(0.2, np.linspace(1.0, 1e8, grid.num_nodes))
    assert np.array_equal(ops.LN.data, before)
    assert np.array_equal(first.data, kept)
    assert not np.shares_memory(first.data, second.data)
    assert not np.shares_memory(first.data, ops.LN.data)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_uniform_density_matrix_equals_its_array(n):
    # a uniform float is bitwise the array it stands for, and every call
    # builds a fresh, writable matrix
    grid = build_grid(n)
    ops = Operators(grid)
    B = ops.density_matrix(0.2, 1e6 + 1e4)
    full = ops.density_matrix(0.2, np.full(grid.num_nodes, 1e6 + 1e4))
    assert np.array_equal(full.data, B.data)
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = rng.standard_normal(grid.num_nodes) * 10.0 ** rng.integers(-8, 8)
        assert np.array_equal(B @ x, full @ x)
    again = ops.density_matrix(0.2, 1e6 + 1e4)
    assert again is not B and not np.shares_memory(again.data, B.data)
    assert np.array_equal(again.data, B.data)
    assert B.data.flags.writeable and again.data.flags.writeable


def _direct_density_step(ops, params, tau, state):
    """The two density CG solves of a ripping-free step, as ``_solve_densities`` makes them."""
    w, dopts = ops.grid.weights, SolveOptions().tight()
    flux = ripping_rate(state.h, params) * state.rho_a
    B_i = ops.density_matrix(params.eta_i, 1.0 / tau + params.k)
    rho_i = cg_solve(B_i, w * (state.rho_i / tau + flux), dopts, x0=state.rho_i)
    B_a = ops.density_matrix(params.eta_a, 1.0 / tau)
    rhs_a = w * (state.rho_a / tau + params.k * rho_i - flux)
    return cg_solve(B_a, rhs_a, dopts, x0=state.rho_a), rho_i


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("n", [8, 12, 16, 64])
@pytest.mark.parametrize("tau", [2.5e-7, 1e-6, 1e-4])
@pytest.mark.parametrize("rho_a", [1.0, 10.0, 0.37])
def test_quiescent_step_solves_no_density(monkeypatch, scheme, n, tau, rho_a):
    # a sub-critical step from uniform rho_a and no rho_i keeps both exactly:
    # it runs no density CG, and returns the bits the two CG solves return
    import blebsheet.dynamics as dyn

    iterations = _count_density_iterations(monkeypatch, dyn)
    grid = build_grid(n)
    ops = Operators(grid)
    params = ModelParams()
    state = fresh_state(grid, rho_a=rho_a)
    new = step(state, tau, params, pressure_pulse(grid, peak=100.0), grid, scheme, ops=ops)
    assert iterations == []
    assert new.h.max() > 0.0
    want_a, want_i = _direct_density_step(ops, params, tau, state)
    assert new.rho_a.tobytes() == want_a.tobytes()
    assert new.rho_i.tobytes() == want_i.tobytes()
    assert new.rho_a is not state.rho_a


# density CG iterations of steps 6-10 of the benchmark's pulse from rest
# (410 Pa, centre (0.5, 0.5), radius 0.4, ImplicitRipping, tau 1e-6), as
# measured; a step may take at most 10 % more
RIPPING_DENSITY_ITERATIONS = {16: (18, 23, 25, 31, 32), 64: (40, 63, 83, 94, 102)}


@pytest.mark.parametrize("n", list(RIPPING_DENSITY_ITERATIONS))
def test_ripping_step_density_solve_budget(monkeypatch, n):
    # steps 1-5 stay below h_star and solve no density; ripping starts at
    # step 6, and from there each step's density CG work is bounded
    import blebsheet.dynamics as dyn

    iterations = _count_density_iterations(monkeypatch, dyn)
    grid = build_grid(n)
    ops = Operators(grid)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=410.0, center=(0.5, 0.5), radius=0.4)
    state = fresh_state(grid)
    per_step = []
    for _ in range(10):
        iterations.clear()
        state = step(state, 1e-6, params, pressure, grid, Scheme.IMPLICIT_RIPPING, ops=ops)
        per_step.append(sum(iterations) if iterations else None)
    assert per_step[:5] == [None] * 5, per_step
    for got, measured in zip(per_step[5:], RIPPING_DENSITY_ITERATIONS[n], strict=True):
        assert got is not None and got <= 1.1 * measured, per_step


@pytest.mark.parametrize("implicit_ripping", [False, True])
@pytest.mark.parametrize("field, value", [("rate", 1.0), ("rho_i", 1e-12),
                                          ("rho_a", np.nextafter(1.0, 2.0))])
def test_state_off_rest_solves_its_densities(monkeypatch, field, value, implicit_ripping):
    # one node off the quiescent state: a rate, a trace of rho_i, or rho_a
    # one ulp off uniform, takes the CG path
    import blebsheet.dynamics as dyn

    iterations = _count_density_iterations(monkeypatch, dyn)
    grid = build_grid(8)
    fields = {"rate": np.zeros(grid.num_nodes), "rho_a": np.ones(grid.num_nodes),
              "rho_i": np.zeros(grid.num_nodes)}
    fields[field][5] = value
    _solve_densities(Operators(grid), ModelParams(), 1e-6, fields["rate"], fields["rho_a"],
                     fields["rho_i"], implicit_ripping, SolveOptions())
    assert len(iterations) >= 2


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_uniform_density_raises(value):
    # NaN is never uniform (NaN != NaN), and a uniform inf is not finite:
    # both reach CG, which raises on the non-finite right-hand side
    grid = build_grid(8)
    with pytest.raises(SolveError), np.errstate(invalid="ignore"):
        _solve_densities(Operators(grid), ModelParams(), 1e-6, np.zeros(grid.num_nodes),
                         np.full(grid.num_nodes, value), np.zeros(grid.num_nodes), True,
                         SolveOptions())


@pytest.mark.parametrize("n", [8, 16])
def test_coupled_density_solve_matches_direct_solve(n):
    # independent oracle for the implicit-ripping density step: the coupled
    # system [[B_a, -k W], [-W diag(rate), B_i]] solved by sparse LU, with
    # the weighted Neumann operator taken from the plain assembly
    grid = build_grid(n)
    ops = Operators(grid)
    params = ModelParams()
    tau = 1e-6
    rng = np.random.default_rng(n)
    rho_a = rng.uniform(0.5, 1.5, grid.num_nodes)
    rho_i = rng.uniform(0.0, 0.5, grid.num_nodes)
    dist = np.hypot(grid.node_x - 0.5, grid.node_y - 0.5)
    rate = np.where(dist < 0.3, 1e8 * (1.0 - dist / 0.3), 0.0)
    assert rate.max() >= 0.9e8 and np.count_nonzero(rate) > 1

    got_a, got_i = _solve_densities(ops, params, tau, rate, rho_a, rho_i, True,
                                    SolveOptions())

    w = grid.weights
    W = sp.diags(w)
    L = canonical_csr(assemble_laplacian(grid))
    B_a = sp.diags(w * (1.0 / tau + rate)) + params.eta_a * L
    B_i = sp.diags(w * (1.0 / tau + params.k)) + params.eta_i * L
    coupled = sp.bmat([[B_a, -params.k * W], [-W @ sp.diags(rate), B_i]], format="csc")
    want = spla.spsolve(coupled, np.concatenate([w * rho_a / tau, w * rho_i / tau]))
    got = np.concatenate([got_a, got_i])
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    mass0 = w @ (rho_a + rho_i)
    assert abs(w @ (got_a + got_i) - mass0) <= 1e-12 * mass0
