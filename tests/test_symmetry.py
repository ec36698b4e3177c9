"""Metamorphic tests: the solvers commute with the symmetries of the square.

The unit square, its uniform grid and the model are invariant under the 8
symmetries of the square, so a load turned or mirrored by one of them must
give the turned or mirrored answer.  A layout error that every version of
the code shares (the node ordering, an interior embedding, a transposed
block) breaks this, where comparing outputs between versions cannot see it.
Fields are compared on the full grid, reshaped to ``(n + 1, n + 1)`` with
the x index first, as :func:`blebsheet.grid.build_grid` lays them out.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blebsheet.energy as energy
from blebsheet.config import parse_config_dict
from blebsheet.dynamics import Operators, simulate
from blebsheet.energy import eval_J_theta, minimize_J
from blebsheet.grid import build_grid
from blebsheet.model import ModelParams, pressure_pulse

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
