"""Declarative run configuration: JSON in, validated ScenarioConfig out.

Unknown keys anywhere in the document are hard errors; every field has a
default so ``{"scenario": "stationary_state"}`` is a complete config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .linalg import SolveOptions
from .model import ModelParams

SCENARIOS = (
    "stationary_state",
    "pressure_sweep",
    "disruption",
    "gamma_limit",
    "geometry_verify",
)
SCHEMES = ("ExplicitRipping", "ImplicitRipping", "FullyImplicit")

_PARAM_KEYS = {
    "c", "kappa", "gamma", "lam", "xi", "eta_a", "eta_i", "k",
    "h_star", "theta", "h_bar",
}
_PRESSURE_KEYS = {"kind", "peak", "center", "radius", "value", "values"}
_SWEEP_KEYS = {"min", "max", "samples", "bisect_tol"}
_TOP_KEYS = {
    "scenario", "n", "tau", "final_time", "scheme", "params", "pressure",
    "sweep", "theta_ladder", "disruption_rho_hat", "disruption_center",
    "disruption_radius", "disruption_ramp", "output_dir", "snapshot_steps",
    "fit_window", "stop_tol", "workers", "rel_tolerance", "max_iterations",
}


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


@dataclass
class ScenarioConfig:
    scenario: str
    n: int = 64
    tau: float = 1e-6
    final_time: float = 1e-4
    scheme: str = "ImplicitRipping"
    params: ModelParams = field(default_factory=ModelParams)
    pressure: dict = field(default_factory=dict)
    sweep_min: float = 0.0
    sweep_max: float = 500.0
    sweep_samples: int = 26
    sweep_bisect_tol: float = 1.0
    theta_ladder: tuple = (1e-2, 1e-3, 1e-4, 1e-5)
    disruption_rho_hat: float = 10.0
    disruption_center: tuple = (0.5, 0.5)
    disruption_radius: float = 0.4
    disruption_ramp: str = "min"
    output_dir: str = "out"
    snapshot_steps: tuple = ()
    fit_window: tuple = (10, 100)
    stop_tol: float = 1e-10
    workers: int = 1
    rel_tolerance: float = 1e-10
    max_iterations: int | None = None

    def solve_options(self) -> SolveOptions:
        return SolveOptions(
            rel_tolerance=self.rel_tolerance, max_iterations=self.max_iterations
        )

    def to_dict(self) -> dict:
        """JSON-ready echo that re-parses to an equal config."""
        return {
            "scenario": self.scenario,
            "n": self.n,
            "tau": self.tau,
            "final_time": self.final_time,
            "scheme": self.scheme,
            "params": {
                "c": self.params.c,
                "kappa": self.params.kappa,
                "gamma": self.params.gamma,
                "lam": self.params.lam,
                "xi": self.params.xi,
                "eta_a": self.params.eta_a,
                "eta_i": self.params.eta_i,
                "k": self.params.k,
                "h_star": self.params.h_star,
                "theta": self.params.theta,
                "h_bar": self.params.h_bar,
            },
            "pressure": dict(self.pressure),
            "sweep": {
                "min": self.sweep_min,
                "max": self.sweep_max,
                "samples": self.sweep_samples,
                "bisect_tol": self.sweep_bisect_tol,
            },
            "theta_ladder": list(self.theta_ladder),
            "disruption_rho_hat": self.disruption_rho_hat,
            "disruption_center": list(self.disruption_center),
            "disruption_radius": self.disruption_radius,
            "disruption_ramp": self.disruption_ramp,
            "output_dir": self.output_dir,
            "snapshot_steps": list(self.snapshot_steps),
            "fit_window": list(self.fit_window),
            "stop_tol": self.stop_tol,
            "workers": self.workers,
            "rel_tolerance": self.rel_tolerance,
            "max_iterations": self.max_iterations,
        }


_DEFAULT_PRESSURE = {
    "stationary_state": {"kind": "pulse", "peak": 100.0, "center": [0.5, 0.5], "radius": 0.4},
    "pressure_sweep": {"kind": "pulse", "peak": 100.0, "center": [0.5, 0.5], "radius": 0.4},
    "disruption": {"kind": "constant", "value": 1.0},
    # the ladder needs a supercritical load so the switch region is nonempty
    "gamma_limit": {"kind": "pulse", "peak": 400.0, "center": [0.5, 0.5], "radius": 0.4},
    "geometry_verify": {"kind": "constant", "value": 0.0},
}

_DEFAULT_SNAPSHOTS = {
    "stationary_state": (1, 2, 50, 100),
    "disruption": (1, 50, 75, 100),
}

# the sharp-switch Newton certifies its first-order conditions in the strong
# form; fourth-order roundoff grows like n^4, so the ladder defaults to a
# coarse grid
_DEFAULT_N = {"gamma_limit": 8}


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def parse_config_dict(doc: dict) -> ScenarioConfig:
    """Validated config from a JSON-shaped document; raises only ConfigError."""
    try:
        return _parse_config_dict(doc)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # int("abc"), None > 0, ...
        raise ConfigError(f"invalid config value: {exc}") from exc


def _parse_config_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config")

    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")

    scheme = doc.get("scheme", "ImplicitRipping")
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")

    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        raise ConfigError("params must be an object")
    _check_keys(params_doc, _PARAM_KEYS, "params")
    params = ModelParams(**params_doc)

    pressure = dict(doc.get("pressure", _DEFAULT_PRESSURE[scenario]))
    _check_keys(pressure, _PRESSURE_KEYS, "pressure")
    if pressure.get("kind") not in ("pulse", "constant", "custom"):
        raise ConfigError(f"pressure.kind must be pulse|constant|custom")
    if pressure["kind"] == "pulse":
        pressure.setdefault("peak", 100.0)
        pressure.setdefault("center", [0.5, 0.5])
        pressure.setdefault("radius", 0.4)
        if not pressure["radius"] > 0:
            raise ConfigError("pressure.radius must be positive")
    if pressure["kind"] == "constant" and "value" not in pressure:
        raise ConfigError("constant pressure needs a value")
    if pressure["kind"] == "custom" and "values" not in pressure:
        raise ConfigError("custom pressure needs per-node values")

    sweep = dict(doc.get("sweep", {}))
    _check_keys(sweep, _SWEEP_KEYS, "sweep")

    cfg = ScenarioConfig(
        scenario=scenario,
        n=int(doc.get("n", _DEFAULT_N.get(scenario, 64))),
        tau=float(doc.get("tau", 1e-6)),
        final_time=float(doc.get("final_time", 1e-4)),
        scheme=scheme,
        params=params,
        pressure=pressure,
        sweep_min=float(sweep.get("min", 0.0)),
        sweep_max=float(sweep.get("max", 500.0)),
        sweep_samples=int(sweep.get("samples", 26)),
        sweep_bisect_tol=float(sweep.get("bisect_tol", 1.0)),
        theta_ladder=tuple(doc.get("theta_ladder", (1e-2, 1e-3, 1e-4, 1e-5))),
        disruption_rho_hat=float(doc.get("disruption_rho_hat", 10.0)),
        disruption_center=tuple(doc.get("disruption_center", (0.5, 0.5))),
        disruption_radius=float(doc.get("disruption_radius", 0.4)),
        disruption_ramp=str(doc.get("disruption_ramp", "min")),
        output_dir=str(doc.get("output_dir", "out")),
        snapshot_steps=tuple(doc.get("snapshot_steps", _DEFAULT_SNAPSHOTS.get(scenario, ()))),
        fit_window=tuple(doc.get("fit_window", (10, 100))),
        stop_tol=float(doc.get("stop_tol", 1e-10)),
        workers=int(doc.get("workers", 1)),
        rel_tolerance=float(doc.get("rel_tolerance", 1e-10)),
        max_iterations=(
            None if doc.get("max_iterations") is None else int(doc["max_iterations"])
        ),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig):
    # range checks are written so that NaN fails them
    if cfg.n < 2:
        raise ConfigError(f"n must be at least 2, got {cfg.n}")
    if not cfg.tau > 0.0:
        raise ConfigError("tau must be positive")
    if not cfg.tau <= cfg.final_time < math.inf:
        raise ConfigError("final_time must be finite and at least tau")
    if not (0.0 <= cfg.sweep_min < cfg.sweep_max < math.inf):
        raise ConfigError("sweep bounds must satisfy 0 <= min < max < inf")
    if cfg.sweep_samples < 2:
        raise ConfigError("sweep needs at least 2 samples")
    if not cfg.sweep_bisect_tol > 0.0:
        raise ConfigError("sweep bisect_tol must be positive")
    if cfg.disruption_ramp not in ("min", "max"):
        raise ConfigError("disruption_ramp must be 'min' or 'max'")
    if not cfg.disruption_radius > 0.0:
        raise ConfigError("disruption_radius must be positive")
    if not all(t > 0 for t in cfg.theta_ladder):
        raise ConfigError("theta_ladder entries must be positive")
    if len(cfg.fit_window) != 2 or not cfg.fit_window[0] < cfg.fit_window[1]:
        raise ConfigError("fit_window must be (first, last) with first < last")
    if cfg.workers < 1:
        raise ConfigError("workers must be at least 1")
    if not cfg.output_dir:
        raise ConfigError("output_dir must not be empty")
    if not cfg.stop_tol > 0.0:
        raise ConfigError("stop_tol must be positive")
    if not cfg.rel_tolerance > 0.0:
        raise ConfigError("rel_tolerance must be positive")
    if cfg.max_iterations is not None and cfg.max_iterations < 1:
        raise ConfigError("max_iterations must be at least 1")
    if not all(isinstance(s, int) and not isinstance(s, bool) and s > 0
               for s in cfg.snapshot_steps):
        raise ConfigError("snapshot_steps must be positive integers")
    _check_center(cfg.disruption_center, "disruption_center")
    pressure = cfg.pressure
    if pressure["kind"] == "pulse":
        _check_center(pressure["center"], "pressure.center")
        numbers = [pressure["peak"]]
    elif pressure["kind"] == "constant":
        numbers = [pressure["value"]]
    else:
        numbers = pressure["values"]
        if len(numbers) != (cfg.n + 1) ** 2:
            raise ConfigError(f"custom pressure needs (n+1)^2 = {(cfg.n + 1) ** 2} values")
    if not all(map(_is_number, numbers)):
        raise ConfigError("pressure values must be finite numbers")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_center(center, where: str):
    if not (len(center) == 2 and all(_is_number(c) and 0.0 <= c <= 1.0 for c in center)):
        raise ConfigError(f"{where} must be two numbers in [0, 1]")


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} in config")


def parse_config(path) -> ScenarioConfig:
    """Load and validate a JSON config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {p}: {exc}") from exc
    return parse_config_dict(doc)
