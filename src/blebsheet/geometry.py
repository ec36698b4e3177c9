"""Finite-difference verification of sphere shape-derivative formulas.

Perturbed spheres ``r(theta) = R + delta * P_l(cos theta)`` are surfaces of
revolution, so area, total mean curvature, and the Willmore integrand reduce
to one-dimensional integrals over ``x = cos theta``.  The principal
curvatures of the radial graph are closed-form; Gauss-Legendre quadrature
then evaluates each functional to near machine precision (the integrands are
analytic in ``x``), making central second differences in ``delta`` a clean
oracle against the closed-form second-derivative expressions.

Sign convention: outward normal, so the round sphere has ``H = 2/R`` and
``|W|^2 = 2/R^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre


KINDS = ("Area", "MeanCurvInt", "WillmoreInt")
VARIANTS = ("AppendixGeneral", "MainText")


@dataclass(frozen=True)
class PerturbedSphere:
    """Axisymmetric perturbation of a round sphere by one Legendre mode."""

    radius: float
    mode: int
    amplitude: float
    quadrature_points: int = 96

    def __post_init__(self):
        if self.quadrature_points < 16:
            raise ValueError("quadrature size below 16 is rejected")
        if self.mode < 0:
            raise ValueError("Legendre mode index must be nonnegative")
        # radius positivity at the quadrature nodes (|P_l| <= 1)
        if self.radius - abs(self.amplitude) <= 0.0:
            raise ValueError("perturbation amplitude destroys radius positivity")


def surface_functional(kind: str, surf: PerturbedSphere) -> float:
    """Integral of 1, H, or H^2 over the perturbed sphere."""
    if kind not in KINDS:
        raise ValueError(f"unknown functional kind {kind!r}")
    x, wq = legendre.leggauss(surf.quadrature_points)
    coeff = np.zeros(surf.mode + 1)
    coeff[surf.mode] = 1.0
    P = legendre.legval(x, coeff)
    dP = legendre.legval(x, legendre.legder(coeff))
    d2P = legendre.legval(x, legendre.legder(coeff, 2))

    sin2 = 1.0 - x * x
    sinth = np.sqrt(sin2)
    delta = surf.amplitude
    u = surf.radius + delta * P
    # derivatives in theta with x = cos(theta)
    du = -sinth * delta * dP
    d2u = delta * (-x * dP + sin2 * d2P)

    E = u * u + du * du
    sqrtE = np.sqrt(E)
    kappa_meridian = (u * u + 2.0 * du * du - u * d2u) / E**1.5
    # the sin(theta) factor of the parallel curvature cancels analytically
    kappa_parallel = (u + delta * x * dP) / (u * sqrtE)
    H = kappa_meridian + kappa_parallel

    area_element = u * sqrtE  # per unit x, azimuthal 2*pi split off
    if kind == "Area":
        integrand = area_element
    elif kind == "MeanCurvInt":
        integrand = H * area_element
    else:
        integrand = H * H * area_element
    return 2.0 * np.pi * float(wq @ integrand)


def second_derivative_fd(
    kind: str,
    radius: float,
    mode: int,
    delta_steps=(0.02, 0.01, 0.005),
    quadrature_points: int = 96,
) -> tuple[float, float]:
    """Second delta-derivative at zero by Richardson-extrapolated differences.

    Returns ``(value, stability)`` where the stability estimate is the spread
    of the two finest extrapolants; at least two step sizes are required.
    """
    steps = sorted(delta_steps, reverse=True)
    if len(steps) < 2:
        raise ValueError("need at least two step sizes for extrapolation")

    def F(delta: float) -> float:
        surf = PerturbedSphere(radius, mode, delta, quadrature_points)
        return surface_functional(kind, surf)

    base = F(0.0)
    second = [
        (F(d) + F(-d) - 2.0 * base) / (d * d)
        for d in steps
    ]
    # one Richardson level: central differences have O(delta^2) error
    extrapolants = [
        (4.0 * second[i + 1] - second[i]) / 3.0 for i in range(len(second) - 1)
    ]
    value = extrapolants[-1]
    if len(extrapolants) >= 2:
        stability = abs(extrapolants[-1] - extrapolants[-2])
    else:
        stability = abs(extrapolants[-1] - second[-1])
    return float(value), float(stability)


def formula_value(kind: str, variant: str, radius: float, mode: int) -> float:
    """Closed-form second derivative for the sphere specializations.

    Uses ``int P_l^2 dA = 4 pi R^2 / (2l+1)``, the Laplace-Beltrami
    eigenvalue ``L/R^2`` with ``L = l(l+1)``, and ``|W|^2 = 2/R^2``,
    ``H^2 = 4/R^2``.  For the area, ``MainText`` prints the coefficient
    ``7/R^2`` where the appendix has ``H^2 - |W|^2 = 2/R^2``.  For the
    Willmore energy, ``AppendixGeneral`` is
    ``2 (int (lap h)^2 - (2/R^2) int |grad h|^2) = 2 L (L-2) / R^4 int h^2``,
    which vanishes for scaling (l = 0) and translation (l = 1), and
    ``MainText`` is the printed ``int (lap h)^2 + (3/2R^2) int |grad h|^2``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown functional kind {kind!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if mode < 0:
        raise ValueError("Legendre mode index must be nonnegative")
    R = radius
    l = mode
    int_h2 = 4.0 * np.pi * R * R / (2 * l + 1)
    int_grad2 = l * (l + 1) / R**2 * int_h2

    if kind == "Area":
        coeff = 7.0 / R**2 if variant == "MainText" else 2.0 / R**2
        return int_grad2 + coeff * int_h2
    if kind == "MeanCurvInt":
        return (2.0 / R) * int_grad2
    L = l * (l + 1)
    if variant == "AppendixGeneral":
        return 2.0 * (L * (L - 2)) / R**4 * int_h2
    int_lap2 = (L / R**2) ** 2 * int_h2
    return int_lap2 + 1.5 / R**2 * int_grad2


def verification_report(
    radii=(1.0, 2.0),
    modes=(0, 1, 2, 3),
    delta_steps=(0.02, 0.01, 0.005),
) -> list[dict]:
    """FD-versus-formula table over the standard (R, l) grid.

    Every functional is compared against its appendix form; the area and
    Willmore rows also record the comparison against the main-text
    coefficient, which is reported, not asserted (the oracle is the
    authority there).

    ``rel_err = |fd - formula| / max(|formula|, |fd|, s)`` with the floor
    ``s = |F(0)| / R^2``, where ``F(0)`` is the functional on the round
    sphere: ``4 pi``, ``8 pi / R`` and ``16 pi / R^2`` for Area,
    MeanCurvInt and WillmoreInt.  ``s`` has the units of a second
    delta-derivative of ``F``, so it is the natural size of the compared
    quantity.  The floor matters where the closed form is exactly zero
    (MeanCurvInt and WillmoreInt at ``l = 0``, since uniform inflation makes
    ``int H dA = 8 pi (R + delta)`` linear and leaves the Willmore energy
    scale-free): there the FD value is pure roundoff, and without the floor
    the ratio of two roundoff-sized numbers would read as a 100 % error.
    """
    rows = []
    for R in radii:
        for l in modes:
            for kind, variants in (
                ("Area", VARIANTS),
                ("MeanCurvInt", ("AppendixGeneral",)),
                ("WillmoreInt", VARIANTS),
            ):
                # the FD value does not depend on the variant
                fd, stability = second_derivative_fd(kind, R, l, delta_steps)
                floor = abs(surface_functional(kind, PerturbedSphere(R, l, 0.0))) / R**2
                for variant in variants:
                    formula = formula_value(kind, variant, R, l)
                    denom = max(abs(formula), abs(fd), floor)
                    rows.append(
                        {
                            "kind": kind,
                            "variant": variant,
                            "R": R,
                            "l": l,
                            "formula": formula,
                            "fd_value": fd,
                            "rel_err": abs(fd - formula) / denom,
                            "stability": stability,
                        }
                    )
    return rows
