"""Command line runner: single scenarios, pressure sweeps, geometry checks.

Exit codes: 0 success (including a sweep that finds no critical pressure in
range), 1 solver failure, 2 configuration error.  Only the package's solver
errors map to 1; any other exception propagates.  A ``run`` that fails at a
time step still writes its diagnostics up to that step and a manifest with
``"status": "failed"`` and the failing step.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, parse_config
from .dynamics import Operators, StepError, build_pressure, initial_state, march, simulate
from .energy import gamma_ladder
from .geometry import verification_report
from .grid import build_grid
from .linalg import LinearSolveError, NewtonError
from .model import pressure_pulse
from .output import write_csv, write_diagnostics, write_manifest, write_snapshot
from .stationary import StationaryError


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
    run_p.add_argument("--workers", type=int, default=None, help="override worker count")

    sweep_p = sub.add_parser("sweep", help="pressure sweep with bisection detector")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--workers", type=int, default=None)

    geo_p = sub.add_parser("verify-geometry", help="shape-derivative verification table")
    geo_p.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify-geometry":
            return _cmd_geometry(Path(args.out))
        config = parse_config(args.config)
        config = _apply_overrides(config, args)
        if args.command == "sweep" or config.scenario == "pressure_sweep":
            return _cmd_sweep(config)
        return _cmd_run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LinearSolveError, NewtonError, StepError, StationaryError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    from .config import parse_config_dict

    doc = config.to_dict()
    # an explicit 0 must reach validation, not fall back to the config's value
    for key, arg in (("output_dir", "out"), ("n", "n"), ("tau", "tau"), ("workers", "workers")):
        value = getattr(args, arg, None)
        if value is not None:
            doc[key] = value
    return parse_config_dict(doc)


def _outdir(config: ScenarioConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(config: ScenarioConfig) -> int:
    if config.scenario == "gamma_limit":
        return _cmd_gamma(config)
    if config.scenario == "geometry_verify":
        return _cmd_geometry(_outdir(config))

    start = time.perf_counter()
    out = _outdir(config)
    try:
        final_state, diagnostics, snapshots = simulate(config)
    except StepError as exc:
        # keep what the run got to: the diagnostics up to the failing step
        write_diagnostics(out / "diagnostics.csv", exc.diagnostics)
        write_manifest(
            out / "manifest.json",
            config,
            time.perf_counter() - start,
            extra={"failed_step": exc.step_index, "error": str(exc)},
            status="failed",
        )
        raise
    write_diagnostics(out / "diagnostics.csv", diagnostics)
    grid = build_grid(config.n)
    snapshot_files = []
    for step_index, snap in sorted(snapshots.items()):
        name = f"snapshot_step{step_index}.csv"
        write_snapshot(out / name, grid, snap)
        snapshot_files.append(name)
    write_manifest(
        out / "manifest.json",
        config,
        time.perf_counter() - start,
        extra={
            "final_max_h": float(final_state.h.max()),
            "decay_rate": diagnostics.decay_rate,
            "decay_fit_r2": diagnostics.decay_fit_r2,
            "snapshots": snapshot_files,
        },
    )
    print(f"wrote diagnostics and {len(snapshot_files)} snapshot(s) to {out}")
    return 0


def sweep_point(peak: float, config: ScenarioConfig, ops: Operators | None = None) -> float:
    """Max height after ten steps for one peak pressure (sweep protocol).

    ``ops`` caches the assembled operators across points, as in ``step``.
    """
    return _sweep_heights(peak, config, ops)[-1]


def _sweep_heights(peak: float, config: ScenarioConfig, ops: Operators | None) -> list[float]:
    """Max height after each of the ten steps of the sweep protocol."""
    if ops is None:
        ops = Operators(build_grid(config.n))
    state, _ = initial_state(config, ops.grid)
    pressure = pressure_pulse(ops.grid, peak=peak, center=(0.5, 0.5), radius=0.4)
    states = itertools.islice(march(state, config, ops, pressure), 10)
    return [float(s.h.max()) for s in states]


def run_sweep(config: ScenarioConfig):
    """Sampled response curve plus the bisection detector.

    Returns (rows, critical_pressure or None).  The detector bisects the
    indicator ``max_h(10 tau) > h_star`` between the first bracketing pair of
    samples, to the configured pressure tolerance.

    Sub-critical peaks are answered by superposition.  The protocol is run
    once at a 1 Pa peak, keeping ``u10``, the max height after step 10, and
    ``u_max``, the largest max height over steps 1 to 10.  A peak ``p`` with
    ``p * u_max <= h_star`` never lifts a node above ``h_star``, so the
    ripping rate stays zero, the densities do not depend on ``p`` and the
    height is linear in ``p`` (peaks are nonnegative): its value is
    ``p * u10`` without a run.  Every other peak runs ``sweep_point`` in
    full, and so does every peak when the 1 Pa run itself passes ``h_star``.
    Superposed values match a full run to about 1e-12 relative.  The
    operators are built once and shared by every run in this process; with
    ``workers > 1`` only the full-run samples go to the pool, one chunk per
    worker that builds its own operators once, so the rows do not depend on
    the worker count.
    """
    ops = Operators(build_grid(config.n))
    h_star = config.params.h_star
    unit = _sweep_heights(1.0, config, ops)
    u10, u_max = unit[-1], max(unit)

    def superposed(peak: float) -> bool:
        return u_max <= h_star and peak * u_max <= h_star

    def value(peak: float) -> float:
        return peak * u10 if superposed(peak) else sweep_point(peak, config, ops)

    peaks = [float(p) for p in np.linspace(config.sweep_min, config.sweep_max,
                                           config.sweep_samples)]
    full = [p for p in peaks if not superposed(p)]
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # one chunk per worker, so each worker builds the operators once
        chunks = [c for c in (full[i::config.workers] for i in range(config.workers)) if c]
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = pool.map(_sweep_chunk, [(c, config.to_dict()) for c in chunks])
            ran = {p: v for c, vs in zip(chunks, results) for p, v in zip(c, vs)}
    else:
        ran = {p: sweep_point(p, config, ops) for p in full}
    values = [ran[p] if p in ran else p * u10 for p in peaks]
    rows = list(zip(peaks, values))

    crossed = [v > h_star for v in values]
    if not any(crossed):
        return rows, None
    if crossed[0]:
        return rows, peaks[0]
    i = crossed.index(True)
    lo, hi = peaks[i - 1], peaks[i]
    while hi - lo > config.sweep_bisect_tol:
        mid = 0.5 * (lo + hi)
        if value(mid) > h_star:
            hi = mid
        else:
            lo = mid
    return rows, float(0.5 * (lo + hi))


def _sweep_chunk(payload) -> list[float]:
    """``sweep_point`` of each peak in a chunk, with one set of operators."""
    from .config import parse_config_dict

    peaks, doc = payload
    config = parse_config_dict(doc)
    ops = Operators(build_grid(config.n))
    return [sweep_point(p, config, ops) for p in peaks]


def _cmd_sweep(config: ScenarioConfig) -> int:
    start = time.perf_counter()
    rows, critical = run_sweep(config)
    out = _outdir(config)
    write_csv(out / "sweep.csv", ["peak_pressure", "max_h"], rows)
    extra = {
        "critical_pressure": critical,
        "critical_pressure_found": critical is not None,
    }
    write_manifest(out / "manifest.json", config, time.perf_counter() - start, extra)
    if critical is None:
        print("no critical pressure in range")
    else:
        print(f"critical pressure ~ {critical:.1f} Pa")
    return 0


def _cmd_gamma(config: ScenarioConfig) -> int:
    start = time.perf_counter()
    grid = build_grid(config.n)
    pressure = build_pressure(config, grid)
    # fixed supercritical bump test field for the gap ladder
    h_test = 0.8 * np.sin(np.pi * grid.node_x) * np.sin(np.pi * grid.node_y)
    rows = gamma_ladder(
        config.theta_ladder, 1.0, config.params, pressure, grid, h_test,
        config.solve_options(),
    )
    out = _outdir(config)
    write_csv(
        out / "gamma_ladder.csv",
        ["theta", "J_theta", "J0", "gap", "minimizer_distance"],
        [(r["theta"], r["J_theta"], r["J0"], r["gap"], r["minimizer_distance"]) for r in rows],
    )
    write_manifest(out / "manifest.json", config, time.perf_counter() - start)
    print(f"wrote gamma ladder ({len(rows)} rungs) to {out}")
    return 0


def _cmd_geometry(out: Path) -> int:
    start = time.perf_counter()
    rows = verification_report()
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "geometry_report.csv",
        ["kind", "variant", "R", "l", "formula", "fd_value", "rel_err", "stability"],
        [
            (r["kind"], r["variant"], r["R"], r["l"], r["formula"],
             r["fd_value"], r["rel_err"], r["stability"])
            for r in rows
        ],
    )
    print(f"wrote geometry report ({len(rows)} rows) to {out} "
          f"in {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
