"""Physical parameters, ripping kinetics, and scenario input fields.

All arithmetic uses the magnitudes of the published parameter table, whose
mass/length/time base is ng, nm, s.  Scenario inputs quoted in Pa and ug are
bridged into that system by the two conversion constants below; linker
density fields keep their ug magnitudes (1 for the homogeneous start, 10 for
the cortex-hole ramp) and the conversions are applied where forces are
assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .grid import Grid

#: 1 Pa expressed in ng nm^-1 s^-2.
PASCAL = 1.0e3
#: 1 ug expressed in ng (bridges density magnitudes into the spring term).
MICROGRAM = 1.0e3


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the height/linker system.

    Defaults follow the published table: damping ``c`` (ng nm^-2 s^-1),
    bending ``kappa`` (nm^2 ng s^-2), tension ``gamma`` (ng s^-2), spring
    ``xi`` (nm^-2 s^-2), linker diffusivities ``eta_a = eta_i``, reconnection
    rate ``k`` (s^-1), critical length ``h_star`` (nm), ripping sharpness
    ``theta``, and spontaneous curvature ``h_bar`` (zero, hence ``lam = 0``).
    """

    c: float = 1.0
    kappa: float = 100.0
    gamma: float = 100.0
    lam: float = 0.0
    xi: float = 100.0
    eta_a: float = 0.2
    eta_i: float = 0.2
    k: float = 1.0e4
    h_star: float = 0.5
    theta: float = 1.0e-8
    h_bar: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not all(np.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError("parameters must be finite")
        if not self.c >= 0.0:
            raise ValueError("damping c must be nonnegative")
        if not self.kappa > 0.0:
            raise ValueError("bending rigidity kappa must be positive")
        if not self.theta > 0.0:
            raise ValueError("ripping scale theta must be positive")
        if not min(self.k, self.eta_a, self.eta_i, self.xi) >= 0.0:
            raise ValueError("k, eta_a, eta_i, xi must be nonnegative")
        if not self.h_star > 0.0:
            raise ValueError("critical height h_star must be positive")
        if self.h_bar == 0.0 and self.lam != 0.0:
            raise ValueError("lam must vanish with zero spontaneous curvature")

    def with_(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)


def ripping_rate(h_value, params: ModelParams):
    """Linker disconnection rate ``max(0, (h - h_star) / theta)``.

    Vanishes at and below the critical height; Lipschitz with constant
    ``1 / theta``.  Accepts scalars or arrays.
    """
    return np.maximum(0.0, (np.asarray(h_value, dtype=float) - params.h_star) / params.theta)


def g_theta(x, rho0: float, params: ModelParams):
    """Active density slaved to the height in the no-diffusion reduction.

    ``g(x) = k * rho0 / (k + r((x - h_star)/theta))``: equals ``rho0`` at and
    below the critical height and decays monotonically above it.  Requires
    ``k > 0`` (the algebraic elimination divides by ``k``).
    """
    if params.k <= 0.0:
        raise ValueError("g_theta requires a positive reconnection rate k")
    return params.k * rho0 / (params.k + ripping_rate(x, params))


def g_theta_prime(x, rho0: float, params: ModelParams):
    """Derivative of ``g_theta`` (zero at/below the critical height)."""
    if params.k <= 0.0:
        raise ValueError("g_theta requires a positive reconnection rate k")
    x = np.asarray(x, dtype=float)
    denom = params.k + ripping_rate(x, params)
    return np.where(
        x > params.h_star, -params.k * rho0 / (params.theta * denom * denom), 0.0
    )


def pressure_pulse(
    grid: Grid,
    peak: float = 100.0,
    center: tuple[float, float] = (0.5, 0.5),
    radius: float = 0.4,
) -> np.ndarray:
    """Compactly supported pressure pulse ``peak * |R - |x-m||^2 / R^2``, per node in Pa.

    The pulse attains ``peak`` at the center ``m`` and vanishes on and
    outside the ball of the given radius.
    """
    if radius <= 0.0:
        raise ValueError("pulse radius must be positive")
    if not (0.0 <= center[0] <= 1.0 and 0.0 <= center[1] <= 1.0):
        raise ValueError("pulse center must lie inside the unit square")
    dist = np.hypot(grid.node_x - center[0], grid.node_y - center[1])
    return np.where(dist < radius, peak * (radius - dist) ** 2 / radius**2, 0.0)


def disruption_initial(
    grid: Grid,
    rho_hat: float = 10.0,
    center: tuple[float, float] = (0.5, 0.5),
    radius: float = 0.4,
    ramp: str = "min",
) -> tuple[np.ndarray, np.ndarray]:
    """Initial linker densities for the cortex-hole scenario.

    Both densities vanish on the ball around ``center``.  Outside it the
    active density follows a ramp of width 0.2 up to ``rho_hat`` and the
    inactive density is the nonnegative complement ``(rho_hat - rho_a)+``.

    ``ramp`` selects the reading of the published formula: ``"min"`` (default)
    gives the finite ramp whose complement reproduces the inactive-linker
    ring, ``"max"`` is the formula as printed (active density saturated at or
    above ``rho_hat`` everywhere outside the hole, no inactive ring).
    """
    if radius <= 0.0:
        raise ValueError("hole radius must be positive")
    if ramp not in ("min", "max"):
        raise ValueError(f"ramp must be 'min' or 'max', got {ramp!r}")
    dist = np.hypot(grid.node_x - center[0], grid.node_y - center[1])
    slope = (rho_hat / 0.2) * np.abs(dist - radius)
    profile = np.minimum(rho_hat, slope) if ramp == "min" else np.maximum(rho_hat, slope)
    # closed hole: both densities vanish on the circle itself as well
    outside = (dist > radius).astype(float)
    rho_a0 = outside * profile
    rho_i0 = outside * np.maximum(rho_hat - rho_a0, 0.0)
    return rho_a0, rho_i0
