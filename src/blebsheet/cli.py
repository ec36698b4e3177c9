"""Command line runner: single scenarios, pressure sweeps, geometry checks.

Exit codes: 0 success (including a sweep that finds no critical pressure in
range), 1 solver failure, 2 configuration error.  Only
:class:`~blebsheet.linalg.SolveError` and its subclasses map to 1; any other
exception propagates, and a configuration error exits before any output
directory exists.  A config file that cannot be read and an output directory
that cannot be created are configuration errors.  ``run`` picks the command
from the config's scenario, and ``sweep`` runs its config as a
``pressure_sweep``, whose critical pressure is read off its sub-critical
response in closed form.  Every command run from a config leaves a
``manifest.json``, ``"status": "ok"`` or ``"failed"`` with the error and the
failed solve's last residual norm; a run that fails at a time step also
names the step and keeps its diagnostics up to it.  ``verify-geometry``
takes no config and writes only its CSV.  Every command runs in one process.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, parse_config, parse_config_dict
from .dynamics import Operators, StepError, build_pressure, initial_state, march, simulate
from .energy import gamma_ladder
from .geometry import verification_report
from .grid import build_grid
from .linalg import SolveError
from .model import pressure_pulse
from .output import write_csv, write_diagnostics, write_manifest, write_snapshot

#: Physical time the sweep protocol runs each peak for, in s.
SWEEP_HORIZON = 1e-5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blebsheet",
        description="Membrane-height / linker-protein simulations on the unit square",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--n", type=int, default=None, help="override the grid size")
    run_p.add_argument("--tau", type=float, default=None, help="override the time step")

    sweep_p = sub.add_parser("sweep", help="pressure sweep and its critical pressure")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--out", default=None)

    geo_p = sub.add_parser("verify-geometry", help="shape-derivative verification table")
    geo_p.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify-geometry":
            _cmd_geometry(None, _output_dir(args.out))
            return 0
        config = _apply_overrides(parse_config(args.config), args)
        return _execute(_COMMANDS.get(config.scenario, _cmd_run), config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    doc = config.to_dict()
    if args.command == "sweep":
        doc["scenario"] = "pressure_sweep"
    # an explicit 0 must reach validation, not fall back to the config's value
    for key, arg in (("output_dir", "out"), ("n", "n"), ("tau", "tau")):
        value = getattr(args, arg, None)
        if value is not None:
            doc[key] = value
    return parse_config_dict(doc)


def _output_dir(path: str) -> Path:
    """``path`` as an existing directory, created if absent; ConfigError if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # names an existing file, or a parent is not writable
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _execute(command, config: ScenarioConfig) -> int:
    """Run ``command(config, out)`` in the output directory and write its manifest.

    The one place that times a command, creates ``config.output_dir`` and
    writes ``manifest.json``.  On success the manifest has ``"status":
    "ok"`` and the extras the command returns.  On a :class:`SolveError` it
    has ``"status": "failed"``, ``error`` and ``residual_norm`` (``null``
    unless finite), plus ``failed_step`` for a :class:`StepError`, and the
    error propagates.
    """
    start = time.perf_counter()
    out = _output_dir(config.output_dir)
    try:
        extra = command(config, out)
    except SolveError as exc:
        norm = exc.residual_norm
        extra = {"error": str(exc),
                 "residual_norm": float(norm) if norm is not None and np.isfinite(norm) else None}
        if isinstance(exc, StepError):
            extra["failed_step"] = exc.step_index
        write_manifest(out / "manifest.json", config, time.perf_counter() - start, extra,
                       status="failed")
        raise
    write_manifest(out / "manifest.json", config, time.perf_counter() - start, extra)
    return 0


def _cmd_run(config: ScenarioConfig, out: Path) -> dict:
    try:
        final_state, diagnostics, snapshots = simulate(config)
    except StepError as exc:
        # keep what the run got to: the diagnostics up to the failing step
        write_diagnostics(out / "diagnostics.csv", exc.diagnostics)
        raise
    write_diagnostics(out / "diagnostics.csv", diagnostics)
    grid = build_grid(config.n)
    snapshot_files = []
    for step_index, snap in sorted(snapshots.items()):
        name = f"snapshot_step{step_index}.csv"
        write_snapshot(out / name, grid, snap)
        snapshot_files.append(name)
    print(f"wrote diagnostics and {len(snapshot_files)} snapshot(s) to {out}")
    return {
        "final_max_h": float(final_state.h.max()),
        "decay_rate": diagnostics.decay_rate,
        "decay_fit_r2": diagnostics.decay_fit_r2,
        "snapshots": snapshot_files,
    }


def sweep_point(peak: float, config: ScenarioConfig, ops: Operators | None = None) -> float:
    """Max height at the sweep horizon for one peak pressure (sweep protocol).

    The protocol marches ``round(SWEEP_HORIZON / tau)`` steps, at least one:
    10 us, 10 steps at the default ``tau``.  The load is the configured pulse
    at ``peak``; a ``pressure_sweep`` config admits no other pressure kind.
    ``ops`` caches the assembled operators across points, as in ``step``.
    """
    if ops is None:
        ops = Operators(build_grid(config.n))
    pressure, steps = _sweep_load(peak, config, ops)
    state = initial_state(config, ops.grid)
    for state in itertools.islice(march(state, config, ops, pressure), steps):
        pass
    return float(state.h.max())


def _sweep_load(peak: float, config: ScenarioConfig, ops: Operators) -> tuple[np.ndarray, int]:
    """The protocol's pulse at ``peak`` and its step count."""
    pressure = pressure_pulse(ops.grid, peak=peak, center=tuple(config.pressure["center"]),
                              radius=config.pressure["radius"])
    return pressure, max(1, round(SWEEP_HORIZON / config.tau))


def run_sweep(config: ScenarioConfig):
    """Sampled response curve plus the critical pressure read off its sub-critical response.

    Returns (rows, critical_pressure or None).  The swept variable is the
    peak of the configured pressure pulse (``pressure.peak`` itself is not
    read; ``center`` and ``radius`` are kept).  Below ``h_star`` the height
    is linear in the peak and ``Operators.linear_heights`` gives it in
    closed form: per Pa, ``u10`` at the horizon and ``u_max``, the largest
    max height over the protocol's steps.

    The critical pressure is ``h_star / u_max``, the least peak whose
    protocol lifts a node above ``h_star``, and exact: the step that first
    does so still takes its densities at the previous height's zero rate
    (under FullyImplicit, ripping only raises it further).  It is None
    unless ``sweep_min <= p* < sweep_max``: either no sample reaches it, or
    the range starts above it.  A pulse that covers no node has ``u_max``
    0 and no critical pressure.  ``sweep.bisect_tol`` is not read.

    A sample ``p`` with ``p * u_max <= h_star`` gets ``p * u10`` without a
    run; every other sample runs ``sweep_point`` in full, on operators built
    once, and names its peak if it fails.  These superposed values match a
    full run to about 1e-12 relative.
    """
    ops = Operators(build_grid(config.n))
    h_star = config.params.h_star
    pulse, steps = _sweep_load(1.0, config, ops)
    unit = ops.linear_heights(config.params, pulse, config.tau, steps)
    u10, u_max = unit[-1], max(unit)

    rows = []
    for p in np.linspace(config.sweep_min, config.sweep_max, config.sweep_samples).tolist():
        try:
            rows.append((p, p * u10 if p * u_max <= h_star else sweep_point(p, config, ops)))
        except StepError as exc:  # a full run failed: name its peak
            cause = str(exc).removeprefix(f"step {exc.step_index}: ")
            raise StepError(f"peak {p!r} Pa: {cause}", exc.step_index, exc.residual_norm,
                            exc.iterate) from exc
    critical = h_star / u_max if u_max > 0.0 else math.inf
    return rows, critical if config.sweep_min <= critical < config.sweep_max else None


def _cmd_sweep(config: ScenarioConfig, out: Path) -> dict:
    rows, critical = run_sweep(config)
    write_csv(out / "sweep.csv", ["peak_pressure", "max_h"], rows)
    if critical is None and rows[0][1] > config.params.h_star:
        print("no critical pressure in range: the range starts above it")
    elif critical is None:
        print("no critical pressure in range")
    else:
        print(f"critical pressure ~ {critical:.1f} Pa")
    return {"critical_pressure": critical, "critical_pressure_found": critical is not None}


def _cmd_gamma(config: ScenarioConfig, out: Path) -> dict:
    grid = build_grid(config.n)
    pressure = build_pressure(config, grid)
    # fixed supercritical bump test field for the gap ladder
    h_test = 0.8 * np.sin(np.pi * grid.node_x) * np.sin(np.pi * grid.node_y)
    rows = gamma_ladder(
        config.theta_ladder, 1.0, config.params, pressure, grid, h_test,
        config.solve_options(),
    )
    header = ["theta", "J_theta", "J0", "gap", "minimizer_distance"]
    write_csv(out / "gamma_ladder.csv", header, ([r[k] for k in header] for r in rows))
    print(f"wrote gamma ladder ({len(rows)} rungs) to {out}")
    return {}


def _cmd_geometry(config: ScenarioConfig | None, out: Path) -> dict:
    rows = verification_report()
    header = ["kind", "variant", "R", "l", "formula", "fd_value", "rel_err", "stability"]
    write_csv(out / "geometry_report.csv", header, ([r[k] for k in header] for r in rows))
    print(f"wrote geometry report ({len(rows)} rows) to {out}")
    return {}


# the command of each scenario; every other scenario is a time-stepping run
_COMMANDS = {"pressure_sweep": _cmd_sweep, "gamma_limit": _cmd_gamma,
             "geometry_verify": _cmd_geometry}


if __name__ == "__main__":
    sys.exit(main())
