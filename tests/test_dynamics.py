import numpy as np
import pytest
import scipy.sparse.linalg as spla

from blebsheet.config import parse_config_dict
from blebsheet.dynamics import (
    Diagnostics,
    FullyImplicitJacobian,
    Operators,
    Scheme,
    State,
    StepError,
    _block_triangular_solve,
    _fully_implicit_residual,
    _solve_densities,
    simulate,
    step,
)
from blebsheet.grid import build_grid, integrate
from blebsheet.linalg import LinearSolveError, SolveOptions, SweepLimitError, cg_solve
from blebsheet.model import (
    MICROGRAM,
    PASCAL,
    ModelParams,
    PressureField,
    pressure_pulse,
)

ALL_SCHEMES = [Scheme.EXPLICIT_RIPPING, Scheme.IMPLICIT_RIPPING, Scheme.FULLY_IMPLICIT]


def fresh_state(grid, rho_a=1.0, rho_i=0.0):
    zeros = np.zeros(grid.num_nodes)
    return State(
        h=zeros.copy(),
        w=zeros.copy(),
        rho_a=np.full(grid.num_nodes, float(rho_a)),
        rho_i=np.full(grid.num_nodes, float(rho_i)),
    )


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_zero_forcing_fixed_point(scheme):
    grid = build_grid(6)
    params = ModelParams()
    state = fresh_state(grid, rho_a=2.0)
    pressure = PressureField.constant(grid, 0.0)
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
    pressure = PressureField.constant(grid, peak_pa)
    state = fresh_state(grid, rho_a=1.5)
    new = step(state, tau, params, pressure, grid, Scheme.IMPLICIT_RIPPING)
    denom = (
        params.c / tau
        + params.kappa * 16.0**2
        + params.gamma * 16.0
        + params.xi * MICROGRAM * 1.5
    )
    expected = (params.c / tau * 0.0 + PASCAL * peak_pa) / denom
    center = grid.interior_indices[0]
    assert new.h[center] == pytest.approx(expected, rel=1e-12)
    assert new.w[center] == pytest.approx(16.0 * expected, rel=1e-12)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_splitting_fidelity(scheme):
    grid = build_grid(8)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=50.0)
    state = fresh_state(grid)
    ops = Operators(grid)
    for _ in range(5):
        state = step(state, 1e-6, params, pressure, grid, scheme, ops=ops)
        gap = np.abs(grid.restrict(state.w) - (ops.A @ grid.restrict(state.h)))
        assert np.max(gap) <= 1e-9
        assert np.all(state.w[grid.boundary_mask] == 0.0)
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
    A = ops.A.toarray()
    I = np.eye(N)
    spring = params.xi * MICROGRAM * 1.2
    # rows: height equation with w kept, then the splitting constraint
    top = np.hstack([(params.c / tau + params.lam + spring) * I, params.kappa * A + params.gamma * I])
    bottom = np.hstack([-A, I])
    block = np.vstack([top, bottom])
    rhs = np.concatenate([
        params.c / tau * grid.restrict(state.h) + PASCAL * grid.restrict(pressure.values),
        np.zeros(N),
    ])
    sol = np.linalg.solve(block, rhs)
    assert np.max(np.abs(grid.restrict(new.h) - sol[:N])) <= 1e-10 * max(1.0, np.abs(sol[:N]).max())
    assert np.max(np.abs(grid.restrict(new.w) - sol[N:])) <= 1e-8 * max(1.0, np.abs(sol[N:]).max())


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
    h_gain = cg_solve(gain_matrix, PASCAL * grid.restrict(unit.values), SolveOptions())
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
    pressure = PressureField.constant(grid, 3.0)
    state = State(
        h=grid.embed(rng.uniform(0.0, 1.0, grid.num_interior)),
        w=np.zeros(grid.num_nodes),
        rho_a=rng.uniform(0.1, 2.0, grid.num_nodes),
        rho_i=rng.uniform(0.0, 1.0, grid.num_nodes),
    )
    h = rng.uniform(0.0, 1.2, grid.num_interior)
    h[np.abs(h - params.h_star) < 0.05] += 0.1  # keep clear of the switch kink
    rho_a = rng.uniform(0.1, 2.0, grid.num_nodes)
    rho_i = rng.uniform(0.0, 1.0, grid.num_nodes)
    z = np.concatenate([h, rho_a, rho_i])

    J = FullyImplicitJacobian(ops, params, tau, h, rho_a).toarray()

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


def test_step_failure_carries_step_index():
    grid = build_grid(8)
    params = ModelParams()
    pressure = pressure_pulse(grid, peak=100.0)
    state = fresh_state(grid)
    state.step_index = 7
    with pytest.raises(StepError) as err:
        step(state, 1e-6, params, pressure, grid, Scheme.IMPLICIT_RIPPING,
             SolveOptions(max_iterations=2))
    assert err.value.step_index == 7
    assert "step 7" in str(err.value)


def test_invalid_tau_rejected():
    grid = build_grid(4)
    with pytest.raises(ValueError):
        step(fresh_state(grid), 0.0, ModelParams(), PressureField.constant(grid, 0.0), grid)


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
    # the unstabilized variant survives but its densities go negative; this
    # is monitored, never asserted as a guarantee
    cfg = parse_config_dict({
        "scenario": "stationary_state", "n": 8, "final_time": 3e-5,
        "scheme": "ExplicitRipping",
        "pressure": {"kind": "pulse", "peak": 400.0, "center": [0.5, 0.5], "radius": 0.4},
    })
    _, diag, _ = simulate(cfg)
    assert min(diag.min_rho_a) < -0.1
    assert diag.total_mass[-1] == pytest.approx(diag.total_mass[0], rel=1e-10)


def test_step_failure_flushes_partial_diagnostics():
    # a tiny iteration budget starves the height solve on the first step
    cfg = parse_config_dict({
        "scenario": "stationary_state", "n": 8, "final_time": 1e-5,
        "max_iterations": 2,
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


def height_system(n, kind, rho_a):
    """A height matrix and its sine-transform preconditioner.

    ``stationary`` is the Picard height matrix (no ``c/tau``); ``J_hh`` the
    height block of the fully implicit Jacobian at ``tau = 1e-6``.
    """
    grid = build_grid(n)
    ops = Operators(grid)
    params = ModelParams()
    if kind == "stationary":
        mat = ops.stationary_height_matrix(params, rho_a).scipy
        return mat, ops.height_preconditioner(params, rho_a, params.lam)
    tau = 1e-6
    h_int = np.linspace(0.0, 1.0, grid.num_interior)
    mat = FullyImplicitJacobian(ops, params, tau, h_int, rho_a).J_hh
    # J_hh is tau times a height matrix; CG is blind to that factor
    return mat, ops.height_preconditioner(params, rho_a, params.c / tau + params.lam)


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


def test_density_gauss_seidel_cap_raises():
    # k tau and rate tau of 1e6 make the sweep contraction about 1 - 2e-6
    grid = build_grid(4)
    ops = Operators(grid)
    rng = np.random.default_rng(0)
    rho_a = rng.uniform(1.0, 2.0, grid.num_nodes)
    rho_i = rng.uniform(0.0, 1.0, grid.num_nodes)
    rate = np.full(grid.num_nodes, 1e6)
    with pytest.raises(SweepLimitError, match="80 sweeps") as err:
        _solve_densities(ops, ModelParams(k=1e6), 1.0, rate, rho_a, rho_i, True,
                         SolveOptions())
    assert isinstance(err.value, LinearSolveError)
    assert err.value.iterate.shape == (2 * grid.num_nodes,)
    assert err.value.increment > 1e-13 * 2.0
    assert err.value.residual_norm > 0.0


def test_block_gauss_seidel_cap_raises():
    grid = build_grid(4)
    ops = Operators(grid)
    rng = np.random.default_rng(0)
    rho_a = rng.uniform(1.0, 2.0, grid.num_nodes)
    h_int = np.full(grid.num_interior, 1.0)  # above h_star: ripping everywhere
    J = FullyImplicitJacobian(ops, ModelParams(k=1e6, theta=1e-6), 1.0, h_int, rho_a)
    rhs = rng.standard_normal(grid.num_interior + 2 * grid.num_nodes)
    with pytest.raises(SweepLimitError, match="60 sweeps") as err:
        _block_triangular_solve(J, rhs, SolveOptions())
    assert err.value.iterate.shape == rhs.shape
    assert err.value.increment > 1e-13 * np.abs(rhs).max()
    assert err.value.residual_norm == pytest.approx(
        np.linalg.norm(J @ err.value.iterate - rhs))
