import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blebsheet import cli, dynamics
from blebsheet.cli import main, run_sweep, sweep_point
from blebsheet.config import (
    _PARAM_KEYS,
    _PRESSURE_KEYS,
    _SWEEP_KEYS,
    _TOP_KEYS,
    SCENARIOS,
    ConfigError,
    ScenarioConfig,
    parse_config,
    parse_config_dict,
)
from blebsheet.model import ModelParams


def write_config(tmp_path: Path, doc: dict, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_minimal_config_fills_defaults():
    cfg = parse_config_dict({"scenario": "stationary_state"})
    assert cfg.n == 64
    assert cfg.tau == 1e-6
    assert cfg.final_time == 1e-4
    assert cfg.scheme == "ImplicitRipping"
    assert cfg.params == ModelParams()
    assert cfg.pressure["kind"] == "pulse"
    assert cfg.pressure["peak"] == 100.0
    assert cfg.snapshot_steps == (1, 2, 50, 100)


def test_disruption_defaults():
    cfg = parse_config_dict({"scenario": "disruption"})
    assert cfg.pressure == {"kind": "constant", "value": 1.0}
    assert cfg.snapshot_steps == (1, 50, 75, 100)
    assert cfg.disruption_ramp == "min"
    assert cfg.disruption_rho_hat == 10.0


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="grdi_size"):
        parse_config_dict({"scenario": "disruption", "grdi_size": 32})
    with pytest.raises(ConfigError, match="kapa"):
        parse_config_dict({"scenario": "disruption", "params": {"kapa": 1.0}})


def test_range_validation():
    with pytest.raises(ConfigError):
        parse_config_dict({"scenario": "stationary_state", "tau": 0.0})
    with pytest.raises(ConfigError):
        parse_config_dict({"scenario": "stationary_state", "n": 1})
    with pytest.raises(ConfigError):
        parse_config_dict({"scenario": "stationary_state", "scheme": "LeapFrog"})
    with pytest.raises(ConfigError):
        parse_config_dict({"scenario": "nonsense"})
    with pytest.raises(ConfigError):
        parse_config_dict({"scenario": "pressure_sweep", "sweep": {"min": 5.0, "max": 1.0}})
    with pytest.raises(ConfigError):
        parse_config_dict({"scenario": "disruption", "disruption_ramp": "clamp"})


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(bad)


def test_manifest_roundtrip():
    cfg = parse_config_dict({
        "scenario": "disruption",
        "n": 12,
        "params": {"kappa": 50.0, "eta_a": 0.3},
        "disruption_ramp": "max",
    })
    echoed = parse_config_dict(cfg.to_dict())
    assert echoed == cfg


def test_cli_config_error_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "stationary_state", "tau": 0.0,
                                   "output_dir": str(tmp_path / "out")})
    code = main(["run", "--config", str(path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_writes_outputs(tmp_path):
    out = tmp_path / "run_out"
    path = write_config(tmp_path, {
        "scenario": "stationary_state",
        "n": 8,
        "final_time": 2e-5,
        "snapshot_steps": [1, 20],
        "fit_window": [2, 20],
        "output_dir": str(out),
    })
    assert main(["run", "--config", str(path)]) == 0
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0].startswith("step,t,max_h,")
    assert len(diag) == 21  # header + final_time / tau rows
    assert (out / "snapshot_step1.csv").exists()
    assert (out / "snapshot_step20.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["library_version"]
    assert manifest["status"] == "ok"
    assert manifest["config"]["scenario"] == "stationary_state"
    echoed = parse_config_dict(manifest["config"])
    assert echoed.n == 8


def test_cli_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        path = write_config(tmp_path, {
            "scenario": "disruption",
            "n": 8,
            "final_time": 1e-5,
            "snapshot_steps": [10],
            "output_dir": str(out),
        }, name=f"{name}.json")
        assert main(["run", "--config", str(path)]) == 0
        outs.append(out)
    a = (outs[0] / "diagnostics.csv").read_bytes()
    b = (outs[1] / "diagnostics.csv").read_bytes()
    assert a == b
    sa = (outs[0] / "snapshot_step10.csv").read_bytes()
    sb = (outs[1] / "snapshot_step10.csv").read_bytes()
    assert sa == sb


@pytest.mark.parametrize("field", ['"tau": NaN', '"params": {"theta": NaN}',
                                   '"final_time": Infinity', '"pressure": {"kind": "constant", "value": -Infinity}'])
def test_cli_nonfinite_config_exit_2(tmp_path, capsys, field):
    path = tmp_path / "config.json"
    path.write_text('{"scenario": "stationary_state", "n": 8, %s}' % field)
    assert main(["run", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"tau": float("nan")},
    {"final_time": float("inf")},
    {"sweep": {"max": float("inf")}},
    {"sweep": {"bisect_tol": float("nan")}},
    {"params": {"theta": float("nan")}},
    {"params": {"c": float("nan")}},
    {"pressure": {"kind": "pulse", "radius": float("nan")}},
])
def test_nonfinite_field_rejected(doc):
    with pytest.raises(ConfigError):
        parse_config_dict({"scenario": "stationary_state", **doc})


# well-formed JSON whose values the run command cannot use
_UNRUNNABLE = [
    {"pressure": {"kind": "pulse", "center": [2, 2]}},
    {"pressure": {"kind": "pulse", "center": [0.5]}},
    {"disruption_center": [0.5]},
    {"pressure": {"kind": "custom", "values": [0.0, 1.0]}},
    {"snapshot_steps": "ab"},
]


@pytest.mark.parametrize("doc", [
    {"n": "abc"},
    {"scenario": "gamma_limit", "theta_ladder": [None]},
    {"theta_ladder": 3},
    {"pressure": [1, 2]},
    {"pressure": {"kind": "pulse", "radius": "wide"}},
    {"sweep": None},
    {"fit_window": [1, "x"]},
    {"disruption_center": 0.5},
    {"max_iterations": "many"},
    {"tau": 10**400},
    *_UNRUNNABLE,
    {"disruption_center": [0.5, float("nan")]},
    {"pressure": {"kind": "pulse", "peak": "high"}},
    {"pressure": {"kind": "constant", "value": None}},
    {"snapshot_steps": [0]},
    {"snapshot_steps": [1.5]},
])
def test_malformed_value_raises_config_error(doc):
    with pytest.raises(ConfigError):
        parse_config_dict({"scenario": "stationary_state", **doc})


def test_custom_pressure_of_grid_length_accepted():
    cfg = parse_config_dict({"scenario": "stationary_state", "n": 2,
                             "pressure": {"kind": "custom", "values": [0.0] * 9}})
    assert len(cfg.pressure["values"]) == 9


def test_cli_malformed_value_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "stationary_state", "n": "abc",
                                   "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", _UNRUNNABLE)
def test_cli_unrunnable_value_exit_2(tmp_path, capsys, doc):
    out = tmp_path / "out"
    path = write_config(tmp_path, {"scenario": "stationary_state", "n": 8,
                                   "output_dir": str(out), **doc})
    assert main(["run", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _section(keys):
    return _json | st.dictionaries(st.sampled_from(sorted(keys)), _json, max_size=4)


_pressure = _section(_PRESSURE_KEYS) | st.fixed_dictionaries(
    {"kind": st.sampled_from(["pulse", "constant", "custom"])},
    optional={key: _json for key in sorted(_PRESSURE_KEYS - {"kind"})},
)
_documents = st.fixed_dictionaries(
    {"scenario": st.sampled_from(SCENARIOS) | _json},
    optional={
        "params": _section(_PARAM_KEYS),
        "pressure": _pressure,
        "sweep": _section(_SWEEP_KEYS),
        **{key: _json for key in sorted(_TOP_KEYS - {"scenario", "params", "pressure", "sweep"})},
    },
)


@settings(max_examples=300, deadline=None)
@given(doc=_documents)
def test_any_document_gives_config_or_config_error(doc):
    try:
        cfg = parse_config_dict(doc)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


@pytest.mark.parametrize("flag, value", [
    ("--n", "0"), ("--tau", "0"), ("--workers", "0"), ("--tau", "nan"), ("--out", ""),
])
def test_cli_override_reaches_validation(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    path = write_config(tmp_path, {"scenario": "stationary_state", "n": 8,
                                   "output_dir": str(out)})
    assert main(["run", "--config", str(path), flag, value]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_overrides(tmp_path):
    out = tmp_path / "o"
    path = write_config(tmp_path, {"scenario": "stationary_state", "final_time": 5e-6,
                                   "snapshot_steps": [], "fit_window": [1, 5]})
    assert main(["run", "--config", str(path), "--out", str(out), "--n", "6"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n"] == 6


def test_sweep_zero_peak_is_flat():
    cfg = parse_config_dict({"scenario": "pressure_sweep", "n": 8})
    assert sweep_point(0.0, cfg) == 0.0


def test_sweep_linearity_below_threshold():
    cfg = parse_config_dict({"scenario": "pressure_sweep", "n": 8})
    h1 = sweep_point(20.0, cfg)
    h2 = sweep_point(40.0, cfg)
    assert h2 / h1 == pytest.approx(2.0, abs=1e-6)


def test_sweep_monotone_and_detector(tmp_path):
    cfg = parse_config_dict({
        "scenario": "pressure_sweep",
        "n": 8,
        "sweep": {"min": 0.0, "max": 500.0, "samples": 6, "bisect_tol": 2.0},
    })
    rows, critical = run_sweep(cfg)
    values = [v for _, v in rows]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))
    assert critical is not None
    # the detector agrees with the exactly linear subcritical response
    gain = sweep_point(1.0, cfg)
    assert critical == pytest.approx(cfg.params.h_star / gain, abs=2.5)


def test_sweep_cli_with_detection(tmp_path, capsys):
    out = tmp_path / "sweepfull"
    path = write_config(tmp_path, {
        "scenario": "pressure_sweep",
        "n": 8,
        "sweep": {"min": 0.0, "max": 500.0, "samples": 5, "bisect_tol": 5.0},
        "output_dir": str(out),
    })
    assert main(["sweep", "--config", str(path)]) == 0
    assert "critical pressure" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["critical_pressure_found"] is True
    assert 0.0 < manifest["critical_pressure"] < 500.0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 6


def test_sweep_no_crossing_reported(tmp_path, capsys):
    out = tmp_path / "sweep"
    path = write_config(tmp_path, {
        "scenario": "pressure_sweep",
        "n": 8,
        "sweep": {"min": 0.0, "max": 5.0, "samples": 3, "bisect_tol": 1.0},
        "output_dir": str(out),
    })
    assert main(["sweep", "--config", str(path)]) == 0
    assert "no critical pressure in range" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["critical_pressure_found"] is False
    assert (out / "sweep.csv").read_text().startswith("peak_pressure,max_h")


def test_sweep_worker_neutrality(tmp_path):
    doc = {
        "scenario": "pressure_sweep",
        "n": 6,
        "sweep": {"min": 0.0, "max": 500.0, "samples": 4, "bisect_tol": 5.0},
    }
    rows1, crit1 = run_sweep(parse_config_dict({**doc, "workers": 1}))
    rows2, crit2 = run_sweep(parse_config_dict({**doc, "workers": 2}))
    # the range crosses h_star, so the pool runs the supercritical samples
    assert sum(v > 0.5 for _, v in rows1) >= 2
    assert rows1 == rows2
    assert crit1 == crit2


def test_sweep_chunk_builds_operators_once(monkeypatch):
    # a pool worker runs its chunk of peaks on one set of operators
    built = []
    init = dynamics.Operators.__init__

    def counted(self, grid):
        built.append(grid.n)
        init(self, grid)

    monkeypatch.setattr(dynamics.Operators, "__init__", counted)
    cfg = parse_config_dict({"scenario": "pressure_sweep", "n": 6})
    peaks = [300.0, 400.0, 500.0]
    got = cli._sweep_chunk((peaks, cfg.to_dict()))
    assert built == [6]
    assert got == [sweep_point(p, cfg) for p in peaks]


def _plain_sweep(cfg):
    """Reference sweep that runs every sample and bisection point in full."""
    peaks = [float(p) for p in np.linspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_samples)]
    rows = [(p, sweep_point(p, cfg)) for p in peaks]
    h_star = cfg.params.h_star
    crossed = [v > h_star for _, v in rows]
    if not any(crossed):
        return rows, None
    if crossed[0]:
        return rows, peaks[0]
    i = crossed.index(True)
    lo, hi = peaks[i - 1], peaks[i]
    while hi - lo > cfg.sweep_bisect_tol:
        mid = 0.5 * (lo + hi)
        if sweep_point(mid, cfg) > h_star:
            hi = mid
        else:
            lo = mid
    return rows, 0.5 * (lo + hi)


def _count_steps(monkeypatch):
    import blebsheet.dynamics as dynamics

    calls = []
    original = dynamics.step

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", counted)
    return calls


@pytest.mark.parametrize("n", [8, 16])
def test_sweep_superposition_matches_full_runs(monkeypatch, n):
    cfg = parse_config_dict({"scenario": "pressure_sweep", "n": n})
    plain_rows, plain_critical = _plain_sweep(cfg)
    steps = _count_steps(monkeypatch)
    rows, critical = run_sweep(cfg)
    assert [p for p, _ in rows] == [p for p, _ in plain_rows]
    for (_, v), (_, ref) in zip(rows, plain_rows):
        assert v == pytest.approx(ref, rel=1e-9, abs=0.0)
    assert critical is not None
    assert abs(critical - plain_critical) <= cfg.sweep_bisect_tol
    # the 1 Pa run and every crossing sample run in full, the rest do not
    crossing = sum(v > cfg.params.h_star for _, v in rows)
    assert 10 * (1 + crossing) <= len(steps) < 10 * cfg.sweep_samples


def test_sweep_without_linear_range_runs_every_point():
    # at this h_star the 1 Pa response rips from step 4, so its heights are no
    # unit response; the 0.25 Pa sample stays below h_star but must still run
    cfg = parse_config_dict({
        "scenario": "pressure_sweep",
        "n": 8,
        "params": {"h_star": 1e-3},
        "sweep": {"min": 0.0, "max": 1.0, "samples": 5, "bisect_tol": 0.05},
    })
    assert sweep_point(1.0, cfg) > cfg.params.h_star
    rows, critical = run_sweep(cfg)
    plain_rows, plain_critical = _plain_sweep(cfg)
    assert rows == plain_rows
    assert critical == plain_critical


# two CG iterations solve every step until ripping switches on at step 4,
# and are too few after that
STARVED_RUN = {
    "scenario": "stationary_state",
    "n": 8,
    "final_time": 1e-5,
    "max_iterations": 2,
    "pressure": {"kind": "pulse", "peak": 400.0, "center": [0.5, 0.5], "radius": 0.4},
}


def test_cli_solver_failure_exit_1(tmp_path, capsys):
    out = tmp_path / "fail"
    path = write_config(tmp_path, {**STARVED_RUN, "output_dir": str(out)})
    assert main(["run", "--config", str(path)]) == 1
    assert "solver failure" in capsys.readouterr().err


def test_cli_failed_run_keeps_partial_output(tmp_path, capsys):
    out = tmp_path / "fail"
    path = write_config(tmp_path, {**STARVED_RUN, "output_dir": str(out)})
    assert main(["run", "--config", str(path)]) == 1
    assert "step 4" in capsys.readouterr().err
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0].startswith("step,t,max_h,")
    assert [row.split(",")[0] for row in diag[1:]] == ["1", "2", "3", "4"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["failed_step"] == 4
    assert "step 4" in manifest["error"]
    assert parse_config_dict(manifest["config"]).max_iterations == 2


def test_cli_bare_runtime_error_propagates(tmp_path, monkeypatch):
    # only the solver errors mean exit 1; anything else is a bug to surface
    import blebsheet.cli as cli

    def broken(config):
        raise RuntimeError("not a solver failure")

    monkeypatch.setattr(cli, "simulate", broken)
    path = write_config(tmp_path, {"scenario": "stationary_state", "n": 8,
                                   "output_dir": str(tmp_path / "out")})
    with pytest.raises(RuntimeError, match="not a solver failure"):
        main(["run", "--config", str(path)])


def test_write_csv_streams_the_joined_bytes(tmp_path):
    from blebsheet.output import fmt, write_csv

    header = ["step", "name", "value"]
    rows = [(1, "a", 0.1), (np.int64(2), "b", np.float64(-1e-300)), (3, "c", 1.0 / 3.0)]
    for body in (rows, []):
        path = tmp_path / f"rows{len(body)}.csv"
        write_csv(path, header, iter(body))
        lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in body]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_stationary_result_serializes_like_snapshots(tmp_path):
    from blebsheet.grid import build_grid
    from blebsheet.model import ModelParams, pressure_pulse
    from blebsheet.output import write_snapshot
    from blebsheet.stationary import stationary_fixed_point

    grid = build_grid(8)
    result = stationary_fixed_point(
        ModelParams(), pressure_pulse(grid, peak=50.0), m0=1.0, grid=grid
    )
    write_snapshot(tmp_path / "stationary.csv", grid, result)
    lines = (tmp_path / "stationary.csv").read_text().splitlines()
    assert lines[0] == "x,y,h,rho_a,rho_i"
    assert len(lines) == grid.num_nodes + 1


def test_cli_geometry_report(tmp_path):
    out = tmp_path / "geo"
    assert main(["verify-geometry", "--out", str(out)]) == 0
    text = (out / "geometry_report.csv").read_text()
    assert text.startswith("kind,variant,R,l,formula,fd_value,rel_err,stability")
    assert "WillmoreInt" in text


def test_cli_gamma_ladder(tmp_path):
    out = tmp_path / "gamma"
    path = write_config(tmp_path, {
        "scenario": "gamma_limit",
        "theta_ladder": [1e-2, 1e-3],
        "pressure": {"kind": "pulse", "peak": 150.0, "center": [0.5, 0.5], "radius": 0.4},
        "output_dir": str(out),
    })
    assert main(["run", "--config", str(path)]) == 0
    lines = (out / "gamma_ladder.csv").read_text().splitlines()
    assert lines[0] == "theta,J_theta,J0,gap,minimizer_distance"
    assert len(lines) == 3
