import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blebsheet.grid import build_grid, integrate
from blebsheet.model import (
    ModelParams,
    disruption_initial,
    g_theta,
    g_theta_prime,
    pressure_pulse,
    ripping_rate,
)

PARAMS = ModelParams()

finite_heights = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_ripping_rate_examples():
    assert ripping_rate(PARAMS.h_star, PARAMS) == 0.0
    assert ripping_rate(PARAMS.h_star + PARAMS.theta, PARAMS) == pytest.approx(1.0)
    assert ripping_rate(0.3, PARAMS) == 0.0


@given(a=finite_heights, b=finite_heights)
@example(a=999132.0, b=999102.9999999999)
@settings(max_examples=200)
def test_ripping_rate_lipschitz(a, b):
    # each evaluated rate is rounded to eps/2 relative, and at rates near
    # 1e14 the difference of two carries that rounding
    ra, rb = ripping_rate(a, PARAMS), ripping_rate(b, PARAMS)
    bound = abs(a - b) / PARAMS.theta * (1.0 + 1e-12) + 1e-12
    assert abs(ra - rb) <= bound + np.finfo(float).eps * (ra + rb)


@given(h=finite_heights)
@settings(max_examples=300)
def test_complementarity_pointwise(h):
    # (h* - h)+ and the ripping rate have disjoint supports
    assert max(PARAMS.h_star - h, 0.0) * ripping_rate(h, PARAMS) == 0.0


def test_g_theta_examples():
    rho0 = 2.5
    assert g_theta(PARAMS.h_star, rho0, PARAMS) == rho0
    assert g_theta(0.1, rho0, PARAMS) == rho0
    half = g_theta(PARAMS.h_star + PARAMS.k * PARAMS.theta, rho0, PARAMS)
    assert half == pytest.approx(rho0 / 2.0)


def test_g_theta_monotone_tail():
    # k/(k + rate) with rate = 1e8 at h* + 1e8*theta: about 1e-4 of rho0
    rho0 = 1.0
    xs = PARAMS.h_star + PARAMS.theta * np.logspace(0, 8, 30)
    vals = g_theta(xs, rho0, PARAMS)
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] == pytest.approx(PARAMS.k / (PARAMS.k + 1e8), rel=1e-12)
    assert vals[-1] < 1.01e-4 * rho0


def test_g_theta_rejects_zero_reconnection():
    for g in (g_theta, g_theta_prime):
        with pytest.raises(ValueError, match="positive reconnection rate k"):
            g(0.7, 1.0, PARAMS.with_(k=0.0))


@given(x=finite_heights, rho0=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200)
def test_g_theta_algebraic_identity(x, rho0):
    g = g_theta(x, rho0, PARAMS)
    r = ripping_rate(x, PARAMS)
    assert g * (PARAMS.k + r) == pytest.approx(PARAMS.k * rho0, rel=1e-12)


def test_pressure_pulse_values():
    g = build_grid(10)
    p = pressure_pulse(g, peak=100.0, center=(0.5, 0.5), radius=0.4)
    center = np.flatnonzero((g.node_x == 0.5) & (g.node_y == 0.5))[0]
    assert p[center] == 100.0
    dist = np.hypot(g.node_x - 0.5, g.node_y - 0.5)
    assert np.all(p[dist >= 0.4] == 0.0)
    assert np.all(p >= 0.0)


def test_pressure_pulse_validation():
    g = build_grid(4)
    with pytest.raises(ValueError):
        pressure_pulse(g, radius=0.0)
    with pytest.raises(ValueError):
        pressure_pulse(g, center=(1.5, 0.5))


def test_disruption_min_ramp_values():
    # hole radius 0.2 puts the radius+0.1 and radius+0.2 rings on axis nodes
    g = build_grid(20)
    rho_a, rho_i = disruption_initial(g, rho_hat=10.0, radius=0.2)
    dist = np.hypot(g.node_x - 0.5, g.node_y - 0.5)

    center = np.flatnonzero(dist == 0.0)[0]
    assert (rho_a[center], rho_i[center]) == (0.0, 0.0)

    mid_band = np.flatnonzero(np.isclose(dist, 0.3))  # radius + 0.1
    assert mid_band.size > 0
    assert rho_a[mid_band] == pytest.approx(5.0)
    assert rho_i[mid_band] == pytest.approx(5.0)
    assert (rho_a + rho_i)[mid_band] == pytest.approx(10.0)

    at_band_edge = np.flatnonzero(np.isclose(dist, 0.4))  # radius + 0.2
    assert at_band_edge.size > 0
    assert rho_a[at_band_edge] == pytest.approx(10.0)
    assert rho_i[at_band_edge] == pytest.approx(0.0)


def test_disruption_default_radius_half_ring():
    # with the default 0.4 hole, distance 0.5 on the axis is radius + 0.1
    g = build_grid(10)
    rho_a, rho_i = disruption_initial(g, rho_hat=10.0)
    dist = np.hypot(g.node_x - 0.5, g.node_y - 0.5)
    ring = np.flatnonzero(np.isclose(dist, 0.5))
    assert ring.size > 0
    assert rho_a[ring] == pytest.approx(5.0)
    assert rho_i[ring] == pytest.approx(5.0)


def test_disruption_partition_property():
    g = build_grid(32)
    rho_a, rho_i = disruption_initial(g, rho_hat=10.0)
    dist = np.hypot(g.node_x - 0.5, g.node_y - 0.5)
    hole = dist <= 0.4
    beyond_band = dist > 0.6
    assert np.all(rho_a[hole] == 0.0)
    assert np.all(rho_i[hole] == 0.0)
    total = rho_a + rho_i
    assert np.allclose(total[beyond_band], 10.0)
    assert np.allclose(total[~hole], 10.0)  # complement fills the ramp


def test_disruption_max_ramp_reading():
    g = build_grid(16)
    rho_a, rho_i = disruption_initial(g, rho_hat=10.0, ramp="max")
    dist = np.hypot(g.node_x - 0.5, g.node_y - 0.5)
    assert np.all(rho_a[dist > 0.4] >= 10.0)
    assert np.all(rho_i == 0.0)


def test_disruption_validation():
    g = build_grid(4)
    with pytest.raises(ValueError):
        disruption_initial(g, radius=-1.0)
    with pytest.raises(ValueError):
        disruption_initial(g, ramp="clip")


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(kappa=0.0)
    with pytest.raises(ValueError):
        ModelParams(theta=0.0)
    with pytest.raises(ValueError):
        ModelParams(h_star=-0.5)
    with pytest.raises(ValueError):
        ModelParams(k=-1.0)
    with pytest.raises(ValueError):
        ModelParams(lam=1.0)  # nonzero lam with zero spontaneous curvature
    with pytest.raises(ValueError, match="damping"):
        ModelParams(c=-1.0)
    with pytest.raises(ValueError, match="parameters must be finite"):
        ModelParams(c=float("nan"))
    assert ModelParams(c=0.0).c == 0.0  # no damping is a valid model


def test_mass_of_disruption_data():
    g = build_grid(64)
    rho_a, rho_i = disruption_initial(g)
    total = integrate(g, rho_a + rho_i)
    # hole of radius 0.4 removes about pi*R^2 of the 10-unit density
    assert total == pytest.approx(10.0 * (1.0 - np.pi * 0.16), rel=0.02)
