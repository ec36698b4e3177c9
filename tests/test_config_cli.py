import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blebsheet import cli, dynamics
from blebsheet.cli import main, run_sweep, sweep_point
from blebsheet.config import (
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
    with pytest.raises(ConfigError, match="stop_tol"):
        parse_config_dict({"scenario": "disruption", "stop_tol": 1e-10})


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
        "tau": 2e-6,
        "final_time": 3e-5,
        "scheme": "FullyImplicit",
        "params": {"c": 2.0, "kappa": 50.0, "gamma": 90.0, "lam": 0.5, "xi": 80.0,
                   "eta_a": 0.3, "eta_i": 0.25, "k": 5e3, "h_star": 0.7, "theta": 1e-6,
                   "h_bar": 0.1},
        "pressure": {"kind": "pulse", "peak": 210.5, "center": [0.25, 0.75], "radius": 0.3},
        "sweep": {"min": 1.5, "max": 300.0, "samples": 7, "bisect_tol": 0.5},
        "theta_ladder": [1e-1, 1e-3],
        "disruption_rho_hat": 7.5,
        "disruption_center": [0.4, 0.6],
        "disruption_radius": 0.3,
        "disruption_ramp": "max",
        "output_dir": "elsewhere",
        "snapshot_steps": [3, 9],
        "fit_window": [2, 30],
        "rel_tolerance": 1e-9,
        "max_iterations": 500,
    })
    # every field is off its default, so a field that the echo or the key
    # set misses cannot pass; workers accepts only its default
    for obj, default in ((cfg, ScenarioConfig("stationary_state")), (cfg.params, ModelParams())):
        for f in fields(obj):
            if f.name != "workers":
                assert getattr(obj, f.name) != getattr(default, f.name), f.name
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
    assert diag[0] == ("step,t,max_h,max_step_diff,total_mass,min_rho_a,min_rho_i,"
                       "ripping_flux,weighted_density_spread")
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
                                   '"final_time": Infinity', '"pressure": {"kind": "constant", "value": -Infinity}',
                                   '"rel_tolerance": 1e400', '"theta_ladder": [1e400]'])
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
    {"rel_tolerance": float("inf")},
    {"theta_ladder": [float("inf")]},
    {"disruption_rho_hat": float("nan")},
])
def test_nonfinite_field_rejected(doc):
    with pytest.raises(ConfigError):
        parse_config_dict({"scenario": "stationary_state", **doc})


@pytest.mark.parametrize("final_time", [1.5e-6, 2.5e-6])
def test_final_time_between_steps_rejected(final_time):
    # simulate would run round(final_time / tau) steps and end elsewhere
    with pytest.raises(ConfigError, match="whole number of steps"):
        parse_config_dict({"scenario": "stationary_state", "tau": 1e-6,
                           "final_time": final_time})


def test_final_time_with_inexact_quotient_accepted():
    # 1e-4 / 1e-6 is 100.00000000000001 in floating point
    cfg = parse_config_dict({"scenario": "stationary_state", "tau": 1e-6,
                             "final_time": 1e-4})
    assert cfg.final_time / cfg.tau != 100.0
    assert cfg.final_time == 1e-4


# well-formed JSON whose values the run command cannot use
_UNRUNNABLE = [
    {"pressure": {"kind": "pulse", "center": [2, 2]}},
    {"pressure": {"kind": "pulse", "center": [0.5]}},
    {"disruption_center": [0.5]},
    {"pressure": {"kind": "custom", "values": [0.0, 1.0]}},
    {"snapshot_steps": "ab"},
    {"fit_window": ["a", "b"]},
    # negative damping makes the height operator indefinite at the first step
    {"params": {"c": -1.0}},
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
    {"rel_tolerance": 2.0},
    {"n": 8.9},
    {"disruption_rho_hat": -5.0},
    {"workers": True},
    {"tau": "1e-6"},
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


# one document per validation rule, and a word its error must name
_RULES = [
    ([], "object"),
    ({"pressure": {"kind": "ramp"}}, "pressure.kind"),
    ({"pressure": {"kind": "constant"}}, "value"),
    ({"pressure": {"kind": "custom"}}, "values"),
    ({"tau": 1e-5, "final_time": 1e-6}, "final_time"),
    ({"sweep": {"samples": 1}}, "samples"),
    ({"sweep": {"bisect_tol": 0.0}}, "bisect_tol"),
    ({"disruption_radius": 0.0}, "disruption_radius"),
    ({"theta_ladder": [1e-2, 0.0]}, "theta_ladder"),
    ({"fit_window": [100, 10]}, "fit_window"),
    ({"max_iterations": 0}, "max_iterations"),
    ({"pressure": {"kind": "pulse", "radius": 0.0}}, "pressure.radius"),
]


@pytest.mark.parametrize("doc, key", _RULES)
def test_each_rule_names_its_key_and_exits_2(tmp_path, capsys, doc, key):
    if isinstance(doc, dict):
        doc = {"scenario": "stationary_state", "n": 8, **doc}
    with pytest.raises(ConfigError, match=key):
        parse_config_dict(doc)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["directory", "non-UTF-8"])
def test_unreadable_config_exit_2(tmp_path, capsys, case):
    path = tmp_path / "config.json"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"scenario": "stationary_state", "output_dir": "d\xe9j\xe0"}'
                         .encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "config error: cannot read config file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify-geometry"])
def test_out_naming_a_file_exit_2(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    args = [command, "--out", str(taken)]
    if command == "run":
        args += ["--config", str(write_config(tmp_path, {"scenario": "stationary_state",
                                                         "n": 8}))]
    assert main(args) == 2
    assert "config error: cannot create output directory" in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


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
        "params": _section({f.name for f in fields(ModelParams)}),
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
    ("--n", "0"), ("--tau", "0"), ("--tau", "nan"), ("--out", ""),
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


def test_sweep_whose_first_sample_is_above_critical_reports_it(tmp_path, capsys):
    # the critical pressure (about 254 Pa at n = 8) lies somewhere at or below
    # the range's start: the first peak is a bound, not a detection
    doc = {"scenario": "pressure_sweep", "n": 8,
           "sweep": {"min": 400.0, "max": 500.0, "samples": 3}}
    cfg = parse_config_dict(doc)
    rows, critical = run_sweep(cfg)
    assert rows[0][1] > cfg.params.h_star
    assert critical is None
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    assert "the range starts above it" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["critical_pressure"] is None
    assert manifest["critical_pressure_found"] is False


def test_sweep_bisection_ends_when_its_bracket_cannot_shrink():
    # below one ulp of the critical pressure the midpoint rounds to an end
    # of the bracket; the bisection must stop there instead of looping
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from blebsheet.cli import run_sweep; "
        "from blebsheet.config import parse_config_dict; "
        "doc = {'scenario': 'pressure_sweep', 'n': 8, 'sweep': {'bisect_tol': 1e-300}}; "
        "print(repr(run_sweep(parse_config_dict(doc))[1]))"
    )
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=60, check=True)
    tiny = float(done.stdout)
    _, coarse = run_sweep(parse_config_dict({"scenario": "pressure_sweep", "n": 8,
                                             "sweep": {"bisect_tol": 1e-12}}))
    assert tiny == pytest.approx(coarse, rel=0.0, abs=1e-12)


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


def test_sweep_takes_the_configured_pulse_shape():
    # a narrower pulse carries less load, so the critical peak rises
    doc = {
        "scenario": "pressure_sweep",
        "n": 8,
        "sweep": {"min": 0.0, "max": 1500.0, "samples": 7, "bisect_tol": 2.0},
    }
    _, wide = run_sweep(parse_config_dict(doc))
    narrow = parse_config_dict({**doc, "pressure": {"kind": "pulse", "radius": 0.2}})
    _, critical = run_sweep(narrow)
    assert wide is not None and critical is not None
    assert critical > 2.0 * wide
    assert critical == pytest.approx(narrow.params.h_star / sweep_point(1.0, narrow), abs=2.5)
    moved = parse_config_dict({**doc, "pressure": {"kind": "pulse", "radius": 0.2,
                                                   "center": [0.3, 0.5]}})
    assert sweep_point(1.0, moved) != sweep_point(1.0, narrow)


def test_sweep_of_non_pulse_pressure_exit_2(tmp_path, capsys):
    out = tmp_path / "sweep"
    path = write_config(tmp_path, {
        "scenario": "pressure_sweep",
        "n": 8,
        "pressure": {"kind": "constant", "value": 5.0},
        "output_dir": str(out),
    })
    assert main(["sweep", "--config", str(path)]) == 2
    assert "pulse" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_limit_with_zero_reconnection_rate_exit_2(tmp_path, capsys):
    # the ladder's g_theta divides by k; other scenarios run with k = 0
    assert parse_config_dict({"scenario": "stationary_state", "params": {"k": 0.0}}).params.k == 0
    out = tmp_path / "gamma"
    path = write_config(tmp_path, {"scenario": "gamma_limit", "params": {"k": 0.0},
                                   "output_dir": str(out)})
    assert main(["run", "--config", str(path)]) == 2
    assert "positive reconnection rate params.k" in capsys.readouterr().err
    assert not out.exists()


def test_workers_other_than_one_rejected():
    with pytest.raises(ConfigError, match="one process"):
        parse_config_dict({"scenario": "pressure_sweep", "workers": 2})


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_workers_flag_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    path = write_config(tmp_path, {"scenario": "pressure_sweep", "n": 6,
                                   "output_dir": str(out)})
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", str(path), "--workers", "2"])
    assert exit_.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_cli_failed_sweep_writes_failed_manifest(tmp_path, capsys, monkeypatch):
    peaks = []

    def failing(peak, config, ops=None):
        peaks.append(peak)
        raise dynamics.StepError("cg_solve: did not converge", 3, 2.5)

    # the default range is supercritical at its top, so full runs are made
    monkeypatch.setattr(cli, "sweep_point", failing)
    out = tmp_path / "sweep"
    path = write_config(tmp_path, {"scenario": "pressure_sweep", "n": 6,
                                   "output_dir": str(out)})
    assert main(["sweep", "--config", str(path)]) == 1
    assert "solver failure: step 3" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == f"step 3: peak {peaks[0]!r} Pa: cg_solve: did not converge"
    assert manifest["residual_norm"] == 2.5
    assert parse_config_dict(manifest["config"]).n == 6
    assert not (out / "sweep.csv").exists()


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


def test_cli_explicit_ripping_failure_names_negative_density(tmp_path, capsys):
    # the explicit flux drives rho_a, and with it the height spring, negative
    path = write_config(tmp_path, {
        "scenario": "stationary_state", "n": 32, "scheme": "ExplicitRipping",
        "pressure": {"kind": "pulse", "peak": 350.0}, "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "step 10: cg_solve: operator not positive definite" in err
    assert "min rho_a = -" in err and "explicit ripping flux" in err


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
    assert manifest["residual_norm"] > 0.0
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


def test_package_defines_one_error_class_per_exit():
    # exit 2 is ConfigError; exit 1 is SolveError, which the time-step and
    # stationary failures subclass; every other bad argument is a ValueError
    import importlib
    import pkgutil

    import blebsheet
    from blebsheet.linalg import SolveError

    found = {}
    for info in pkgutil.iter_modules(blebsheet.__path__):
        module = importlib.import_module(f"blebsheet.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                found[name] = value
    assert sorted(found) == ["ConfigError", "SolveError", "StationaryError", "StepError"]
    assert issubclass(found["StepError"], SolveError)
    assert issubclass(found["StationaryError"], SolveError)
    assert not issubclass(found["ConfigError"], SolveError)


def test_write_csv_streams_the_joined_bytes(tmp_path):
    from blebsheet.output import fmt, write_csv

    header = ["step", "name", "value"]
    rows = [(1, "a", 0.1), (np.int64(2), "b", np.float64(-1e-300)), (3, "c", 1.0 / 3.0)]
    for body in (rows, []):
        path = tmp_path / f"rows{len(body)}.csv"
        write_csv(path, header, iter(body))
        lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in body]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_snapshot_bytes_equal_the_fmt_path(tmp_path):
    from blebsheet.dynamics import State
    from blebsheet.grid import build_grid
    from blebsheet.output import write_csv, write_snapshot

    grid = build_grid(4)
    values = np.random.default_rng(4).standard_normal((3, grid.num_nodes)) * 1e3
    values[:, :6] = [[-0.0, 5e-324, 1e300, -1e300, -2.5e-310, 1.0 / 3.0]] * 3
    state = State(h=values[0], rho_a=-values[1], rho_i=values[2])
    write_snapshot(tmp_path / "fast.csv", grid, state)
    write_csv(tmp_path / "fmt.csv", ["x", "y", "h", "rho_a", "rho_i"],
              zip(grid.node_x, grid.node_y, state.h, state.rho_a, state.rho_i))
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "fmt.csv").read_bytes()
    assert b"-0," in fast and b"4.9406564584124654e-324" in fast and b"1e+300" in fast


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1e308, 0.1, 1.0])
def test_snapshot_template_writes_the_bytes_of_fmt(tmp_path, value):
    # write_snapshot formats its body by one %-template; every field must
    # read as fmt writes it
    from blebsheet.dynamics import State
    from blebsheet.grid import build_grid
    from blebsheet.output import fmt, write_snapshot

    grid = build_grid(2)
    state = State(h=np.full(grid.num_nodes, value), rho_a=np.full(grid.num_nodes, -value),
                  rho_i=np.full(grid.num_nodes, value))
    write_snapshot(tmp_path / "snap.csv", grid, state)
    rows = zip(grid.node_x, grid.node_y, state.h, state.rho_a, state.rho_i)
    want = "x,y,h,rho_a,rho_i\n" + "".join(",".join(map(fmt, row)) + "\n" for row in rows)
    assert (tmp_path / "snap.csv").read_bytes() == want.encode()


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


def test_cli_failed_gamma_ladder_writes_failed_manifest(tmp_path, capsys):
    out = tmp_path / "gamma"
    path = write_config(tmp_path, {"scenario": "gamma_limit", "n": 8, "max_iterations": 1,
                                   "output_dir": str(out)})
    assert main(["run", "--config", str(path)]) == 1
    assert "solver failure: cg_solve: no convergence in 1" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("cg_solve: no convergence in 1")
    assert manifest["residual_norm"] > 0.0
    assert "failed_step" not in manifest
    assert parse_config_dict(manifest["config"]).max_iterations == 1
    assert not (out / "gamma_ladder.csv").exists()


def test_cli_verify_geometry_writes_no_manifest(tmp_path):
    out = tmp_path / "geo"
    assert main(["verify-geometry", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["geometry_report.csv"]


# a small, quick config of every scenario, and the CSV its command writes
SMALL_RUNS = {
    "stationary_state": ({"n": 4, "final_time": 3e-6}, "diagnostics.csv"),
    "pressure_sweep": ({"n": 4, "sweep": {"samples": 3, "bisect_tol": 100.0}}, "sweep.csv"),
    "disruption": ({"n": 4, "final_time": 3e-6, "snapshot_steps": [2]}, "snapshot_step2.csv"),
    "gamma_limit": ({"n": 4, "theta_ladder": [1e-2]}, "gamma_ladder.csv"),
    "geometry_verify": ({}, "geometry_report.csv"),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_scenario_leaves_a_manifest_that_reparses(tmp_path, scenario):
    out = tmp_path / scenario
    doc, csv = SMALL_RUNS[scenario]
    path = write_config(tmp_path, {"scenario": scenario, **doc, "output_dir": str(out)})
    assert main(["run", "--config", str(path)]) == 0
    assert (out / csv).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert "error" not in manifest and "residual_norm" not in manifest
    assert parse_config_dict(manifest["config"]) == parse_config(path)


def test_sweep_command_runs_its_config_as_a_pressure_sweep(tmp_path):
    out = tmp_path / "sweep"
    path = write_config(tmp_path, {"scenario": "stationary_state",
                                   **SMALL_RUNS["pressure_sweep"][0], "output_dir": str(out)})
    assert main(["sweep", "--config", str(path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["scenario"] == "pressure_sweep"
    assert manifest["critical_pressure_found"] is True
    # the echo reruns the same sweep under ``run``
    again = tmp_path / "again"
    rerun = write_config(tmp_path, {**manifest["config"], "output_dir": str(again)},
                         name="rerun.json")
    assert main(["run", "--config", str(rerun)]) == 0
    assert (again / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()


def test_sweep_command_on_a_constant_pressure_config_exit_2(tmp_path, capsys):
    # the disruption scenario defaults to a constant pressure
    out = tmp_path / "sweep"
    path = write_config(tmp_path, {"scenario": "disruption", "n": 4,
                                   "output_dir": str(out)})
    assert main(["sweep", "--config", str(path)]) == 2
    assert "pulse" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_sweep_fails_without_numpy_warnings(tmp_path, capsys):
    import warnings

    out = tmp_path / "sweep"
    path = write_config(tmp_path, {"scenario": "pressure_sweep", "n": 4,
                                   "sweep": {"max": 1e300}, "output_dir": str(out)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(path)]) == 1
    assert "right-hand side norm (entries whose norm overflows)" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["failed_step"] == 0
    # the first sample above zero is the first point run in full
    peak = float(np.linspace(0.0, 1e300, 26)[1])
    assert manifest["error"].startswith(f"step 0: peak {peak!r} Pa: cg_solve: ")
    assert manifest["residual_norm"] is None  # the norm overflowed; the manifest stays JSON


@pytest.mark.parametrize("where", ["unit", "sample", "midpoint"])
def test_failed_sweep_point_names_its_peak(monkeypatch, where):
    # the 1 Pa unit run, a full-run sample and a bisection midpoint each
    # run the protocol through _sweep_heights
    cfg = parse_config_dict({"scenario": "pressure_sweep", "n": 6})
    samples = [float(p) for p in np.linspace(cfg.sweep_min, cfg.sweep_max, cfg.sweep_samples)]
    fails = {"unit": lambda p: p == 1.0, "sample": lambda p: p in samples,
             "midpoint": lambda p: p != 1.0 and p not in samples}[where]
    heights = cli._sweep_heights
    failed = []

    def failing(peak, config, ops):
        if fails(peak):
            failed.append(peak)
            raise dynamics.StepError("cg_solve: did not converge", 4, 0.5)
        return heights(peak, config, ops)

    monkeypatch.setattr(cli, "_sweep_heights", failing)
    with pytest.raises(dynamics.StepError) as err:
        run_sweep(cfg)
    assert len(failed) == 1
    assert str(err.value) == f"step 4: peak {failed[0]!r} Pa: cg_solve: did not converge"
    assert err.value.step_index == 4
    assert err.value.residual_norm == 0.5
    assert str(err.value.__cause__) == "step 4: cg_solve: did not converge"


def test_fully_implicit_large_tau_run_completes(tmp_path):
    # the first step needs sub-steps of tau / 64; a cap of four halvings
    # (tau / 16) made this run exit 1 at step 0
    out = tmp_path / "fi"
    path = write_config(tmp_path, {
        "scenario": "stationary_state", "n": 32, "scheme": "FullyImplicit", "tau": 1e-4,
        "final_time": 2e-3, "pressure": {"kind": "pulse", "peak": 400.0},
        "output_dir": str(out),
    })
    assert main(["run", "--config", str(path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    # the stationary height every tau reaches by this time
    assert manifest["final_max_h"] == pytest.approx(2.84803389, rel=1e-8)
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert len(diag) == 1 + 20
