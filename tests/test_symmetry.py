"""Metamorphic tests: symmetry and superposition.

The unit square, its uniform grid and the model are invariant under the 8
symmetries of the square, so a load turned or mirrored by one of them must
give the turned or mirrored answer; below ``h_star`` the model is linear, so
the response to a sum of loads is the sum of the responses.  Every scheme
conserves the linker mass.  A layout error that every version of
the code shares (the node ordering, an interior embedding, a transposed
block) breaks this, where comparing outputs between versions cannot see it.
Fields are compared on the full grid, reshaped to ``(n + 1, n + 1)`` with
the x index first, as :func:`blebsheet.grid.build_grid` lays them out.
"""

import itertools

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import blebsheet.energy as energy
from blebsheet.config import parse_config_dict
from blebsheet.dynamics import (Operators, Scheme, State, StepError, build_pressure,
                                initial_state, march, simulate)
from blebsheet.energy import eval_J_theta, minimize_J
from blebsheet.grid import build_grid, integrate
from blebsheet.model import ModelParams, pressure_pulse
from blebsheet.stationary import stationary_fixed_point

PARAMS = ModelParams()

_centres = st.floats(min_value=0.2, max_value=0.8)
_radii = st.floats(min_value=0.15, max_value=0.45)


def symmetries(field, n):
    """``field`` mapped by each of the 8 symmetries of the square, identity first."""
    square = field.reshape(n + 1, n + 1)
    return [np.rot90(base, k).ravel() for base in (square, square.T) for k in range(4)]


def relative_difference(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(min_value=8, max_value=24), cx=_centres, cy=_centres, radius=_radii,
       peak=st.floats(min_value=50.0, max_value=1000.0),
       theta=st.sampled_from([0.0, 1e-2, 1e-4]))
def test_minimize_J_commutes_with_the_symmetries_of_the_square(n, cx, cy, radius, peak, theta):
    grid = build_grid(n)
    ops = Operators(grid)
    pressure = pressure_pulse(grid, peak=peak, center=(cx, cy), radius=radius)
    # Newton's line search runs on the gradient; check that J still descends
    # from J(0) = 0 along the iterates (one Hessian is built at each)
    iterates = []
    hessian = energy._hessian
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(energy, "_hessian", lambda *args: iterates.append(args[-1]) or hessian(*args))
        base = minimize_J(theta, 1.0, PARAMS, pressure, grid, ops=ops)
    history = [eval_J_theta(grid.embed(h), theta, 1.0, PARAMS, pressure, grid, ops)
               for h in iterates] + [base.energy]
    floor = 1e-10 * max(abs(e) for e in history)
    assert history[0] == 0.0 and base.energy < 0.0
    assert all(e2 <= e1 + floor for e1, e2 in zip(history, history[1:]))
    minimizer = base.minimizer
    for load, expected in zip(symmetries(pressure, n), symmetries(minimizer, n)):
        report = minimize_J(theta, 1.0, PARAMS, load, grid, ops=ops)
        assert relative_difference(report.minimizer, expected) <= 1e-13


@settings(max_examples=8, deadline=None, derandomize=True)
@given(n=st.integers(min_value=8, max_value=16), cx=_centres, cy=_centres, radius=_radii,
       peak=st.floats(min_value=200.0, max_value=600.0))
def test_simulate_commutes_with_the_symmetries_of_the_square(n, cx, cy, radius, peak):
    # 20 ImplicitRipping steps from uniform densities; from about 300 Pa the
    # height passes h_star and the linkers rip.  The height is compared: the
    # densities are solved to a relative residual of 1e-12, and their turned
    # runs differ by up to 1.1e-12 (active) and 2.2e-11 (inactive) of the
    # linker density, and both shrink about tenfold at a tenth of it.
    # A density layout error still shows in the height, through the spring
    def run(load):
        config = parse_config_dict({
            "scenario": "stationary_state", "n": n, "scheme": "ImplicitRipping",
            "tau": 1e-6, "final_time": 2e-5,
            "pressure": {"kind": "custom", "values": load.tolist()},
        })
        return simulate(config)[0].h

    pressure = pressure_pulse(build_grid(n), peak=peak, center=(cx, cy), radius=radius)
    for load, expected in zip(symmetries(pressure, n), symmetries(run(pressure), n)):
        assert relative_difference(run(load), expected) <= 1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=st.integers(min_value=8, max_value=16), centres=st.lists(_centres, min_size=4, max_size=4),
       radii=st.lists(_radii, min_size=2, max_size=2),
       peaks=st.lists(st.floats(min_value=10.0, max_value=90.0), min_size=2, max_size=2))
def test_sub_critical_march_superposes(n, centres, radii, peaks):
    # two pulses of at most 90 Pa keep every run below h_star: the ripping
    # rate stays zero, the densities keep their uniform start, and each
    # scheme's height is linear in the load
    ops = Operators(build_grid(n))
    p1, p2 = (pressure_pulse(ops.grid, peak, (cx, cy), radius)
              for peak, cx, cy, radius in zip(peaks, centres[::2], centres[1::2], radii))
    for scheme in Scheme:
        config = parse_config_dict({"scenario": "pressure_sweep", "n": n, "scheme": scheme.value})

        def run(load):
            states = list(itertools.islice(
                march(initial_state(config, ops.grid), config, ops, load), 10))
            for state in states:
                assert state.h.max() <= PARAMS.h_star
                assert np.all(state.rho_a == 1.0) and np.all(state.rho_i == 0.0)
            return [state.h for state in states]

        for both, one, two in zip(run(p1 + p2), run(p1), run(p2)):
            assert relative_difference(one + two, both) <= 1e-12


def _simulated(n, scheme, load):
    """State after 20 steps of ``tau`` 1e-6 under ``load``, or the index of the step that failed."""
    config = parse_config_dict({
        "scenario": "stationary_state", "n": n, "scheme": scheme, "tau": 1e-6,
        "final_time": 2e-5, "pressure": {"kind": "custom", "values": load.tolist()},
    })
    try:
        return simulate(config)[0]
    except StepError as exc:
        return exc.step_index


@pytest.mark.parametrize("scheme, examples", [("ExplicitRipping", 8), ("FullyImplicit", 5)])
def test_every_scheme_commutes_with_the_symmetries_of_the_square(scheme, examples):
    # as for ImplicitRipping above (FullyImplicit measured at most 1.3e-15).
    # ExplicitRipping rips with the previous height, and from about 300 Pa
    # its explicit flux can turn the active density negative: the step that
    # does so raises, and a turned load must raise at the same step
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(n=st.integers(min_value=8, max_value=16), cx=_centres, cy=_centres, radius=_radii,
           peak=st.floats(min_value=200.0, max_value=600.0))
    # ExplicitRipping's flux turns rho_a negative here: the run and its 8
    # turned runs all raise at step 3
    @example(n=8, cx=0.5, cy=0.375, radius=0.4453125, peak=468.0)
    def commutes(n, cx, cy, radius, peak):
        pressure = pressure_pulse(build_grid(n), peak=peak, center=(cx, cy), radius=radius)
        base = _simulated(n, scheme, pressure)
        if isinstance(base, int):
            assert all(_simulated(n, scheme, load) == base for load in symmetries(pressure, n))
            return
        for load, expected in zip(symmetries(pressure, n), symmetries(base.h, n)):
            assert relative_difference(_simulated(n, scheme, load).h, expected) <= 1e-12

    commutes()


@settings(max_examples=4, deadline=None, derandomize=True)
@given(n=st.integers(min_value=8, max_value=12), cx=_centres, cy=_centres, radius=_radii,
       peak=st.floats(min_value=200.0, max_value=1000.0))
def test_stationary_fixed_point_commutes_with_the_symmetries_of_the_square(n, cx, cy, radius,
                                                                           peak):
    # measured at most 8.3e-16 in h and 4.1e-15 in the densities, which are
    # of order one (m0 = 1): the Picard iterates are equivariant to roundoff
    grid = build_grid(n)
    pressure = pressure_pulse(grid, peak=peak, center=(cx, cy), radius=radius)
    base = stationary_fixed_point(PARAMS, pressure, 1.0, grid)
    expected = zip(*(symmetries(getattr(base, name), n) for name in ("h", "rho_a", "rho_i")))
    for load, (h, rho_a, rho_i) in zip(symmetries(pressure, n), expected):
        turned = stationary_fixed_point(PARAMS, load, 1.0, grid)
        assert relative_difference(turned.h, h) <= 1e-12
        assert np.max(np.abs(turned.rho_a - rho_a)) <= 1e-12
        assert np.max(np.abs(turned.rho_i - rho_i)) <= 1e-12


@settings(max_examples=6, deadline=None, derandomize=True)
@given(n=st.integers(min_value=8, max_value=16), cx=_centres, cy=_centres, radius=_radii,
       ramp=st.sampled_from(["min", "max"]), scheme=st.sampled_from(list(Scheme)))
def test_disruption_commutes_with_the_symmetries_of_the_square(n, cx, cy, radius, ramp, scheme):
    # the disruption scenario's uniform load with its cortex disrupted off
    # centre: 20 steps from the turned initial densities give the turned
    # height (measured at most 5.5e-16); the densities are not compared, as
    # in the ImplicitRipping property above
    config = parse_config_dict({"scenario": "disruption", "n": n, "scheme": scheme.value,
                                "disruption_center": [cx, cy], "disruption_radius": radius,
                                "disruption_ramp": ramp})
    ops = Operators(build_grid(n))
    pressure = build_pressure(config, ops.grid)  # uniform, so every symmetry keeps it
    start = initial_state(config, ops.grid)

    def run(state):
        return next(itertools.islice(march(state, config, ops, pressure), 19, None)).h

    turned = zip(symmetries(start.rho_a, n), symmetries(start.rho_i, n))
    for (rho_a, rho_i), expected in zip(turned, symmetries(run(start), n)):
        height = run(State(h=start.h, rho_a=rho_a, rho_i=rho_i))
        assert relative_difference(height, expected) <= 1e-12


@pytest.mark.xfail(strict=True, reason="the density solves stop at a relative residual of "
                   "1e-12, and the mass drifts by up to 7e-12 in 20 steps")
# no shrinking: a failing FullyImplicit run can take a second
@settings(max_examples=12, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(n=st.integers(min_value=8, max_value=16), cx=_centres, cy=_centres, radius=_radii,
       peak=st.floats(min_value=100.0, max_value=800.0),
       ramp=st.sampled_from([None, "min", "max"]), scheme=st.sampled_from(list(Scheme)),
       tau=st.sampled_from([1e-6, 1e-5, 1e-4]))
# drifts 6.1e-12: the known failure, six times the bound
@example(n=15, cx=0.67, cy=0.6, radius=0.3, peak=100.0, ramp="max",
         scheme=Scheme.IMPLICIT_RIPPING, tau=1e-6)
def test_every_completed_run_conserves_mass(n, cx, cy, radius, peak, ramp, scheme, tau):
    # 20 steps under a pulse, or of the disruption scenario with either
    # ramp; the total linker mass stays within 1e-12 of its start, relative.
    # tau stays at most 1e-4: at 1e-3 FullyImplicit drifts 2.2e-12, a run
    # takes seconds, and ImplicitRipping's density loop gives up
    doc = {"n": n, "scheme": scheme.value, "tau": tau, "final_time": 20 * tau}
    if ramp is None:
        doc.update(scenario="stationary_state", pressure={
            "kind": "pulse", "peak": peak, "center": [cx, cy], "radius": radius})
    else:
        doc.update(scenario="disruption", disruption_center=[cx, cy],
                   disruption_radius=radius, disruption_ramp=ramp)
    config = parse_config_dict(doc)
    grid = build_grid(n)
    start = initial_state(config, grid)
    mass = integrate(grid, start.rho_a + start.rho_i)
    try:
        masses = simulate(config)[1].total_mass
    except StepError:
        return  # ExplicitRipping's flux turned a density negative: not a completed run
    assert max(abs(m - mass) for m in masses) <= 1e-12 * mass
