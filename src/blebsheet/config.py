"""Declarative run configuration: JSON in, validated ScenarioConfig out.

The fields of ``ScenarioConfig`` (and of ``ModelParams`` for ``params``)
are the schema: they give the keys, the defaults and the manifest echo, and
each field's type picks the one rule that coerces its value.  The
``sweep_*`` fields are read from the nested ``"sweep"`` object.  Unknown
keys anywhere in the document are hard errors; every field but
``scenario`` has a default, so ``{"scenario": "stationary_state"}`` is a
complete config.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .dynamics import Scheme
from .linalg import SolveOptions
from .model import ModelParams

SCENARIOS = (
    "stationary_state",
    "pressure_sweep",
    "disruption",
    "gamma_limit",
    "geometry_verify",
)
SCHEMES = tuple(s.value for s in Scheme)


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
    # accepted and validated but not read, as the sweep's critical pressure is
    # exact; the benchmark runner takes it as its critical-pressure tolerance
    sweep_bisect_tol: float = 1.0
    theta_ladder: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    disruption_rho_hat: float = 10.0
    disruption_center: tuple[float, float] = (0.5, 0.5)
    disruption_radius: float = 0.4
    disruption_ramp: str = "min"
    output_dir: str = "out"
    snapshot_steps: tuple[int, ...] = ()
    fit_window: tuple[int, int] = (10, 100)
    workers: int = 1  # must be 1; accepted so that configs that still send it parse
    rel_tolerance: float = 1e-10
    max_iterations: int | None = None

    def solve_options(self) -> SolveOptions:
        return SolveOptions(
            rel_tolerance=self.rel_tolerance, max_iterations=self.max_iterations
        )

    def to_dict(self) -> dict:
        """JSON-ready echo that re-parses to an equal config."""
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, ModelParams):
                value = asdict(value)
            elif isinstance(value, dict):
                value = dict(value)
            *section, key = _doc_path(f.name)
            (doc.setdefault(section[0], {}) if section else doc)[key] = value
        return doc


_SWEEP = "sweep_"


def _doc_path(name: str) -> tuple[str, ...]:
    """Where a field sits in the document: ``sweep_min`` is ``sweep.min``."""
    return ("sweep", name[len(_SWEEP):]) if name.startswith(_SWEEP) else (name,)


_PATHS = {f.name: _doc_path(f.name) for f in fields(ScenarioConfig)}
_HINTS = get_type_hints(ScenarioConfig)
_TOP_KEYS = {path[0] for path in _PATHS.values()}
_SWEEP_KEYS = {path[1] for path in _PATHS.values() if len(path) == 2}
_PRESSURE_TYPES = {
    "peak": float, "center": tuple[float, float], "radius": float,
    "value": float, "values": tuple[float, ...],
}
_PRESSURE_KEYS = {"kind", *_PRESSURE_TYPES}

# the defaults that depend on the scenario; every other absent key takes its
# field's default
_SCENARIO_DEFAULTS = {
    # the sharp-switch Newton certifies its first-order conditions in the
    # strong form; fourth-order roundoff grows like n^4, so the ladder
    # defaults to a coarse grid
    "n": {"gamma_limit": 8},
    "pressure": {
        "stationary_state": {"kind": "pulse"},
        "pressure_sweep": {"kind": "pulse"},
        "disruption": {"kind": "constant", "value": 1.0},
        # the ladder needs a supercritical load so the switch region is nonempty
        "gamma_limit": {"kind": "pulse", "peak": 400.0},
        "geometry_verify": {"kind": "constant", "value": 0.0},
    },
    "snapshot_steps": {"stationary_state": (1, 2, 50, 100), "disruption": (1, 50, 75, 100)},
}

_NUMBERS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number")}


def _coerce(value, hint, where: str):
    """``value`` as type ``hint``, by the one rule for that type.

    An int takes an integer and a float a finite number, neither a bool or
    a string; a ``tuple[X, ...]`` takes a list of any length and a
    ``tuple[X, X]`` a list of that length, each entry coerced as ``X``; a
    dataclass takes an object of its fields.
    """
    origin, args = get_origin(hint), get_args(hint)
    if type(None) in args:
        return None if value is None else _coerce(value, args[0], where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigError(f"{where} must have {len(args)} entries, got {len(value)}")
        return tuple(_coerce(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        _check_keys(value, {f.name for f in fields(hint)}, where)
        hints = get_type_hints(hint)
        return hint(**{k: _coerce(v, hints[k], f"{where}.{k}") for k, v in value.items()})
    if hint in _NUMBERS:
        kind, noun = _NUMBERS[hint]
        if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
            raise ConfigError(f"{where} must be {noun}, got {value!r}")
        return hint(value)
    if not isinstance(value, hint):
        raise ConfigError(f"{where} must be a {hint.__name__}, got {value!r}")
    return hint(value)


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
    except (TypeError, ValueError, OverflowError) as exc:  # float(10**400), ...
        raise ConfigError(f"invalid config value: {exc}") from exc


def _parse_config_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config")
    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    sweep = doc.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ConfigError("sweep must be an object")
    _check_keys(sweep, _SWEEP_KEYS, "sweep")

    values = {}
    for name, path in _PATHS.items():
        source = sweep if len(path) == 2 else doc
        scenario_defaults = _SCENARIO_DEFAULTS.get(name, {})
        if path[-1] in source:
            value = source[path[-1]]
        elif scenario in scenario_defaults:
            value = scenario_defaults[scenario]
        else:
            continue
        values[name] = _coerce(value, _HINTS[name], ".".join(path))
    cfg = ScenarioConfig(**values)
    _fill_pressure(cfg.pressure)
    _validate(cfg)
    return cfg


def _fill_pressure(pressure: dict):
    """Check a pressure descriptor and coerce its entries, in place."""
    _check_keys(pressure, _PRESSURE_KEYS, "pressure")
    kind = pressure.get("kind")
    if kind not in ("pulse", "constant", "custom"):
        raise ConfigError("pressure.kind must be pulse|constant|custom")
    if kind == "pulse":
        pressure.setdefault("peak", 100.0)
        pressure.setdefault("center", [0.5, 0.5])
        pressure.setdefault("radius", 0.4)
    if kind == "constant" and "value" not in pressure:
        raise ConfigError("constant pressure needs a value")
    if kind == "custom" and "values" not in pressure:
        raise ConfigError("custom pressure needs per-node values")
    for key in pressure.keys() - {"kind"}:
        pressure[key] = _coerce(pressure[key], _PRESSURE_TYPES[key], f"pressure.{key}")


def _validate(cfg: ScenarioConfig):
    # coercion has made every number finite
    if cfg.scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {cfg.scheme!r}")
    if cfg.n < 2:
        raise ConfigError(f"n must be at least 2, got {cfg.n}")
    if not cfg.tau > 0.0:
        raise ConfigError("tau must be positive")
    if not cfg.tau <= cfg.final_time:
        raise ConfigError("final_time must be at least tau")
    steps = cfg.final_time / cfg.tau
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"final_time must be a whole number of steps of tau, "
                          f"got {steps!r} steps")
    if not 0.0 <= cfg.sweep_min < cfg.sweep_max:
        raise ConfigError("sweep bounds must satisfy 0 <= min < max")
    if cfg.sweep_samples < 2:
        raise ConfigError("sweep needs at least 2 samples")
    if not cfg.sweep_bisect_tol > 0.0:
        raise ConfigError("sweep bisect_tol must be positive")
    if cfg.disruption_ramp not in ("min", "max"):
        raise ConfigError("disruption_ramp must be 'min' or 'max'")
    if not cfg.disruption_rho_hat >= 0.0:
        raise ConfigError("disruption_rho_hat must be nonnegative")
    if not cfg.disruption_radius > 0.0:
        raise ConfigError("disruption_radius must be positive")
    if not all(t > 0 for t in cfg.theta_ladder):
        raise ConfigError("theta_ladder entries must be positive")
    if not cfg.fit_window[0] < cfg.fit_window[1]:
        raise ConfigError("fit_window must be (first, last) with first < last")
    if cfg.workers != 1:
        raise ConfigError(f"workers must be 1, got {cfg.workers}: a sweep runs in one process")
    if not cfg.output_dir:
        raise ConfigError("output_dir must not be empty")
    if cfg.max_iterations is not None and cfg.max_iterations < 1:
        raise ConfigError("max_iterations must be at least 1")
    cfg.solve_options()  # checks rel_tolerance
    if not all(s > 0 for s in cfg.snapshot_steps):
        raise ConfigError("snapshot_steps must be positive integers")
    _check_center(cfg.disruption_center, "disruption_center")
    if cfg.scenario == "gamma_limit" and not cfg.params.k > 0.0:
        raise ConfigError("gamma_limit needs a positive reconnection rate params.k")
    pressure = cfg.pressure
    if cfg.scenario == "pressure_sweep" and pressure["kind"] != "pulse":
        raise ConfigError(f"a pressure sweep varies a pulse's peak; "
                          f"pressure.kind is {pressure['kind']!r}")
    if pressure["kind"] == "pulse":
        _check_center(pressure["center"], "pressure.center")
        if not pressure["radius"] > 0.0:
            raise ConfigError("pressure.radius must be positive")
    if pressure["kind"] == "custom" and len(pressure["values"]) != (cfg.n + 1) ** 2:
        raise ConfigError(f"custom pressure needs (n+1)^2 = {(cfg.n + 1) ** 2} values")


def _check_center(center: tuple, where: str):
    if not all(0.0 <= c <= 1.0 for c in center):
        raise ConfigError(f"{where} must be two numbers in [0, 1]")


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} in config")


def parse_config(path) -> ScenarioConfig:
    """Load and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {p}: {exc}") from exc
    return parse_config_dict(doc)
