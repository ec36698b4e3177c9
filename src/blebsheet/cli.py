"""Command line runner: single scenarios, pressure sweeps, geometry checks.

Exit codes: 0 success (including a sweep that finds no critical pressure in
range), 1 solver failure, 2 configuration error.  Only
:class:`~blebsheet.linalg.SolveError` and its subclasses map to 1; any other
exception propagates, and a configuration error exits before any output
directory exists.  A config file that cannot be read and an output directory
that cannot be created are configuration errors.  ``run`` picks the command
from the config's scenario, and ``sweep`` runs its config as a
``pressure_sweep``.  Every command run from a config leaves a
``manifest.json``, ``"status": "ok"`` or ``"failed"`` with the error and the
failed solve's last residual norm; a run that fails at a time step also
names the step and keeps its diagnostics up to it.  ``verify-geometry``
takes no config and writes only its CSV.  Every command runs in one process.
"""

from __future__ import annotations

import argparse
import itertools
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

    sweep_p = sub.add_parser("sweep", help="pressure sweep with bisection detector")
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

    ``ops`` caches the assembled operators across points, as in ``step``.
    """
    return _sweep_heights(peak, config, ops)[-1]


def _sweep_heights(peak: float, config: ScenarioConfig, ops: Operators | None) -> list[float]:
    """Max height after each step up to the sweep horizon.

    The protocol runs for ``SWEEP_HORIZON`` (10 us), that is
    ``round(SWEEP_HORIZON / tau)`` steps and at least one: 10 at the default
    ``tau``.  The load is the configured pulse with its peak replaced by
    ``peak``; a ``pressure_sweep`` config admits no other pressure kind.
    """
    if ops is None:
        ops = Operators(build_grid(config.n))
    state = initial_state(config, ops.grid)
    pressure = pressure_pulse(ops.grid, peak=peak, center=tuple(config.pressure["center"]),
                              radius=config.pressure["radius"])
    steps = max(1, round(SWEEP_HORIZON / config.tau))
    states = itertools.islice(march(state, config, ops, pressure), steps)
    return [float(s.h.max()) for s in states]


def run_sweep(config: ScenarioConfig):
    """Sampled response curve plus the bisection detector.

    Returns (rows, critical_pressure or None).  The swept variable is the
    peak of the configured pressure pulse (``pressure.peak`` itself is not
    read; ``center`` and ``radius`` are kept).  The detector bisects the
    indicator ``max_h(SWEEP_HORIZON) > h_star`` between the first bracketing
    pair of samples, to the configured pressure tolerance or until the
    bracket's ends are adjacent floats, whichever comes first.  With no
    bracketing pair the critical pressure is None: either no sample crosses
    ``h_star``, or the first already does and the range starts above it.

    Sub-critical peaks are answered by superposition.  The protocol is run
    once at a 1 Pa peak, keeping ``u10``, the max height at the horizon, and
    ``u_max``, the largest max height over its steps.  A peak ``p`` with
    ``p * u_max <= h_star`` never lifts a node above ``h_star``, so the
    ripping rate stays zero, the densities do not depend on ``p`` and the
    height is linear in ``p`` (peaks are nonnegative): its value is
    ``p * u10`` without a run.  Every other peak runs ``sweep_point`` in
    full, and so does every peak when the 1 Pa run itself passes ``h_star``.
    Superposed values match a full run to about 1e-12 relative.  Every
    point runs in this process, on one set of operators built once.  A
    point that fails, the 1 Pa run included, names its peak in its error.
    """
    ops = Operators(build_grid(config.n))
    h_star = config.params.h_star

    def protocol(run, peak: float):
        try:
            return run(peak, config, ops)
        except StepError as exc:
            cause = str(exc).removeprefix(f"step {exc.step_index}: ")
            raise StepError(f"peak {peak!r} Pa: {cause}", exc.step_index,
                            exc.residual_norm) from exc

    unit = protocol(_sweep_heights, 1.0)
    u10, u_max = unit[-1], max(unit)

    def superposed(peak: float) -> bool:
        return u_max <= h_star and peak * u_max <= h_star

    def value(peak: float) -> float:
        return peak * u10 if superposed(peak) else protocol(sweep_point, peak)

    peaks = [float(p) for p in np.linspace(config.sweep_min, config.sweep_max,
                                           config.sweep_samples)]
    values = [value(p) for p in peaks]
    rows = list(zip(peaks, values))

    crossed = [v > h_star for v in values]
    if crossed[0] or not any(crossed):
        return rows, None
    i = crossed.index(True)
    lo, hi = peaks[i - 1], peaks[i]
    while hi - lo > config.sweep_bisect_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink
            break
        if value(mid) > h_star:
            hi = mid
        else:
            lo = mid
    return rows, float(0.5 * (lo + hi))


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
