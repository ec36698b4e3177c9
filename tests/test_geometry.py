import numpy as np
import pytest

from blebsheet import geometry
from blebsheet.geometry import (
    PerturbedSphere,
    formula_value,
    second_derivative_fd,
    surface_functional,
    verification_report,
)


def test_round_sphere_anchors():
    sphere = PerturbedSphere(radius=1.0, mode=0, amplitude=0.0)
    assert surface_functional("Area", sphere) == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert surface_functional("WillmoreInt", sphere) == pytest.approx(16.0 * np.pi, rel=1e-14)

    inflated = PerturbedSphere(radius=1.0, mode=0, amplitude=0.1)
    # uniform inflation: total mean curvature is 8 pi rho
    assert surface_functional("MeanCurvInt", inflated) == pytest.approx(
        8.0 * np.pi * 1.1, rel=1e-13
    )
    assert surface_functional("Area", inflated) == pytest.approx(
        4.0 * np.pi * 1.1**2, rel=1e-13
    )


def test_willmore_scale_free():
    for R in (0.5, 1.0, 3.0):
        sphere = PerturbedSphere(radius=R, mode=0, amplitude=0.0)
        assert surface_functional("WillmoreInt", sphere) == pytest.approx(
            16.0 * np.pi, rel=1e-13
        )


def test_validation():
    with pytest.raises(ValueError):
        PerturbedSphere(radius=1.0, mode=2, amplitude=0.0, quadrature_points=8)
    with pytest.raises(ValueError):
        PerturbedSphere(radius=0.1, mode=1, amplitude=0.2)
    with pytest.raises(ValueError):
        surface_functional("Volume", PerturbedSphere(1.0, 0, 0.0))
    with pytest.raises(ValueError):
        formula_value("Area", "Appendix", 1.0, 0)
    with pytest.raises(ValueError, match="mode index must be nonnegative"):
        PerturbedSphere(radius=1.0, mode=-1, amplitude=0.0)
    with pytest.raises(ValueError, match="unknown functional kind 'Volume'"):
        formula_value("Volume", "MainText", 1.0, 0)
    with pytest.raises(ValueError, match="mode index must be nonnegative"):
        formula_value("Area", "MainText", 1.0, -1)


def test_fd_area_uniform_inflation_exact():
    # A(delta) = 4 pi (R + delta)^2 is exactly quadratic
    value, stability = second_derivative_fd("Area", 1.0, 0)
    assert value == pytest.approx(8.0 * np.pi, rel=1e-10)
    assert stability <= 1e-9


def test_fd_mean_curvature_quadrupole():
    value, _ = second_derivative_fd("MeanCurvInt", 1.0, 2)
    assert value == pytest.approx(48.0 * np.pi / 5.0, rel=1e-6)


def test_fd_willmore_invariance_modes():
    # scale (l=0) and translation (l=1) leave the Willmore energy flat
    for mode in (0, 1):
        value, stability = second_derivative_fd("WillmoreInt", 1.0, mode)
        assert abs(value) <= 1e-6
        assert stability <= 1e-6


@pytest.mark.parametrize("R", [1.0, 2.0])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["Area", "MeanCurvInt", "WillmoreInt"])
def test_fd_matches_appendix_formulas(kind, R, l):
    fd, stability = second_derivative_fd(kind, R, l)
    formula = formula_value(kind, "AppendixGeneral", R, l)
    scale = max(abs(formula), 1.0)
    assert abs(fd - formula) / scale <= 1e-3
    assert stability <= 1e-4 * scale


def test_formula_values_closed_forms():
    assert formula_value("Area", "AppendixGeneral", 1.0, 0) == pytest.approx(8.0 * np.pi)
    assert formula_value("MeanCurvInt", "AppendixGeneral", 1.0, 2) == pytest.approx(
        48.0 * np.pi / 5.0
    )
    # the main-text area coefficient 7/R^2 gives 28 pi at l = 0, which the
    # exact 8 pi inflation anchor rules out
    main = formula_value("Area", "MainText", 1.0, 0)
    assert main == pytest.approx(28.0 * np.pi)
    assert abs(main - 8.0 * np.pi) > 10.0


def test_quadrature_doubling_converged():
    for kind in ("Area", "MeanCurvInt", "WillmoreInt"):
        a = surface_functional(kind, PerturbedSphere(1.0, 3, 0.05, 96))
        b = surface_functional(kind, PerturbedSphere(1.0, 3, 0.05, 192))
        assert abs(a - b) <= 1e-12


def test_report_rows():
    rows = verification_report(radii=(1.0,), modes=(0, 2))
    kinds = {(r["kind"], r["variant"]) for r in rows}
    assert ("Area", "AppendixGeneral") in kinds
    assert ("Area", "MainText") in kinds
    assert ("WillmoreInt", "MainText") in kinds
    area_rows = [r for r in rows if r["kind"] == "Area" and r["variant"] == "AppendixGeneral"]
    assert all(r["rel_err"] <= 1e-3 for r in area_rows)
    # the l = 0 closed form is exactly zero; the metric's floor keeps the
    # roundoff-sized FD value from reading as a 100 % error
    mean_rows = [
        r for r in rows if r["kind"] == "MeanCurvInt" and r["variant"] == "AppendixGeneral"
    ]
    assert {r["l"] for r in mean_rows} == {0, 2}
    assert all(r["rel_err"] <= 1e-3 for r in mean_rows)
    will_rows = [
        r for r in rows if r["kind"] == "WillmoreInt" and r["variant"] == "AppendixGeneral"
    ]
    assert {r["l"] for r in will_rows} == {0, 2}
    assert all(r["rel_err"] <= 1e-3 for r in will_rows)
    # the floor must not mask the wrong main-text area coefficient
    main_area = [r for r in rows if r["kind"] == "Area" and r["variant"] == "MainText"]
    assert main_area and all(r["rel_err"] > 0.2 for r in main_area)


def test_report_differences_each_kind_once(monkeypatch):
    # the FD value does not depend on the variant: one call per kind and (R, l)
    calls = []
    fd = geometry.second_derivative_fd

    def counted(kind, *args, **kwargs):
        calls.append(kind)
        return fd(kind, *args, **kwargs)

    monkeypatch.setattr(geometry, "second_derivative_fd", counted)
    rows = verification_report(radii=(1.0,), modes=(2,))
    assert sorted(calls) == sorted(geometry.KINDS)
    assert len(rows) == 5
    for kind in ("Area", "WillmoreInt"):
        pair = [r for r in rows if r["kind"] == kind]
        assert [r["variant"] for r in pair] == list(geometry.VARIANTS)
        assert pair[0]["fd_value"] == pair[1]["fd_value"]
