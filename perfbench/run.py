"""Benchmark runner for blebsheet.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bleb --seed 0 --seconds 10 --trace 0

The package is imported from ``src/`` of the same checkout and driven only
through its module-level functions, in this one process.  The workloads are
described in ``BENCHMARK.json``; their inputs come from ``--seed``, which
picks one of ``VARIANTS`` input variants (seed 0 is the un-jittered input).
The variants jitter the pulse peak of ``bleb`` by up to 2 % and the sampled
pressure range of ``sweep`` (``cli.sweep_point`` fixes the pulse shape),
small enough that each keeps its character: ripping starts at the same step,
and the sweep bisects the same number of times.  ``stationary`` is not
jittered (see ``variant_inputs``), and the pulse stays centred (see
``config_doc``).

``--trace 0`` repeats the workload while one more operation of the mean
length so far fits in ``--seconds`` (it runs at least one), and reports the
end-to-end metrics: ``wall_s`` is the mean time of an operation,
``setup_s`` the median over fresh interpreters, and the ``step_ms_*``
percentiles are over the steps of one operation, each step's latency
averaged over the repeats (see ``step_profile``).  ``step_ms_*`` are per
time step, and per Picard iteration on ``stationary``.  The times are
scaled to a reference machine speed, which a probe measures next to every
step and right after every set-up (see ``SpeedProbe``); as measured, they
are printed under ``as_measured`` on an earlier line.

``--trace 1`` runs the workload once plain and once with every layer
wrapped in spans (see ``spans.py``), checks that both runs wrote
byte-identical results, and reports the per-layer metrics of the traced
run; its spans are written to ``.perfbench_out/<workload>/spans.jsonl``.

Every run checks its outputs: linker mass drift at most 1e-10 (relative) and
no density below -1e-10 after every time step and in the stationary result;
on ``sweep`` the critical pressure within ``bisect_tol`` of a direct-solver
oracle built here; on ``stationary`` convergence and a weighted-density
residual of at most 1e-6; on ``bleb`` the final
``max_h`` within 1e-6 (relative) of ``reference.json``.  An operation that
raises, exits non-zero or fails a check counts as failed.  The last line of
standard output is the JSON result; earlier lines give the run environment,
the per-operation details and, when traced, the per-module self-time table.

``--record-reference`` re-records ``reference.json``: the final ``max_h`` of
every input variant of ``bleb``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().with_name("reference.json")

VARIANTS = 8
N = 64
PEAK = 410.0  # Pa; ripping starts at step 5 for every variant
M0 = 1.0
SETUP_REPEATS = 5
SETUP_PROBE_SAMPLES = 30

MASS_DRIFT_TOL = 1e-10
MIN_RHO_TOL = -1e-10
MAX_H_RTOL = 1e-6
WEIGHTED_RESIDUAL_TOL = 1e-6

WORKLOADS = ("bleb", "sweep", "stationary")
# modules whose self time is reported; "bench" is this runner's own code
SELF_MODULES = ("bench", "cli", "config", "dynamics", "grid", "linalg", "model",
                "output", "stationary")
JITTERED = ("bleb", "sweep")

# Run in a fresh interpreter: import the package, parse the config, build
# the grid and the operators.  Interpreter start-up itself is not timed.
# Then sample the speed probe in the same process, to scale the time by.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from blebsheet.config import parse_config
from blebsheet.dynamics import Operators
from blebsheet.grid import build_grid
cfg = parse_config(sys.argv[2])
Operators(build_grid(cfg.n))
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from run import SETUP_PROBE_SAMPLES, SpeedProbe
probe = SpeedProbe()
probe.sample()
for _ in range(SETUP_PROBE_SAMPLES):
    probe.sample()
print(seconds, probe.scale(seconds, probe.durations(1)))
"""


def import_package():
    """Import blebsheet from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import blebsheet
        from blebsheet import cli, config, dynamics, grid, linalg, model, output, stationary
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import blebsheet from {SRC}: {exc}")
    if Path(blebsheet.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: blebsheet was imported from {blebsheet.__file__}, not {SRC}")
    return {
        "cli": cli, "config": config, "dynamics": dynamics, "grid": grid,
        "linalg": linalg, "model": model, "output": output, "stationary": stationary,
    }


# ---------------------------------------------------------------------------
# inputs


def variant_inputs(workload: str, seed: int) -> dict:
    """Inputs for a seed; variant 0 is the un-jittered input.

    Only ``bleb`` and ``sweep`` are jittered.  The Picard iteration count
    of ``stationary`` jumps by up to 25 % with the peak, not smoothly (0.5 %
    moved it by 15 %), which would swamp the timings, so ``stationary``
    always runs variant 0.
    """
    v = seed % VARIANTS if workload in JITTERED else 0
    if v == 0:
        return {"variant": 0, "peak": PEAK, "sweep_min": 0.0, "sweep_max": 500.0}
    rng = np.random.default_rng(v)
    return {
        "variant": v,
        "peak": PEAK * (1.0 + rng.uniform(-0.02, 0.02)),
        # the sample spacing stays in (16, 32] Pa, so bisection always takes
        # five halvings to reach the 1 Pa tolerance
        "sweep_min": rng.uniform(0.0, 5.0),
        "sweep_max": 500.0 * (1.0 + rng.uniform(-0.02, 0.02)),
    }


def config_doc(workload: str, inputs: dict) -> dict:
    # the pulse stays centred: moving it by 0.005 breaks the square's symmetry
    # and triples the height CG iterations, which changes the workload
    pulse = {"kind": "pulse", "peak": inputs["peak"], "center": [0.5, 0.5], "radius": 0.4}
    if workload == "bleb":
        return {"scenario": "stationary_state", "n": N, "scheme": "ImplicitRipping",
                "final_time": 100e-6, "pressure": pulse}
    if workload == "sweep":
        return {"scenario": "pressure_sweep", "n": N, "workers": 1,
                "sweep": {"min": inputs["sweep_min"], "max": inputs["sweep_max"]}}
    if workload == "stationary":
        return {"scenario": "stationary_state", "n": N, "pressure": pulse}
    raise ValueError(workload)


# ---------------------------------------------------------------------------
# instrumentation


def instrument(tracer: Tracer, pkg: dict, full: bool) -> None:
    """Wrap the package for one operation.

    Always: ``dynamics.step`` (per-step latency and the per-step mass and
    density checks) and the Picard-iteration boundaries of the stationary
    solver.  With ``full``: every layer boundary the per-layer metrics use.
    """
    dyn, st, grid_mod = pkg["dynamics"], pkg["stationary"], pkg["grid"]

    def step_before(span, a):
        state, params, grid = a["state"], a["params"], a["grid"]
        span.attrs["above_before"] = bool(state.h.max() > params.h_star)
        if state.step_index == 0:
            span.attrs["mass0"] = float(grid.weights @ (state.rho_a + state.rho_i))

    def step_after(span, a, state):
        params, grid = a["params"], a["grid"]
        span.attrs["mass"] = float(grid.weights @ (state.rho_a + state.rho_i))
        span.attrs["min_rho"] = float(min(state.rho_a.min(), state.rho_i.min()))
        span.attrs["ripping"] = span.attrs["above_before"] or bool(state.h.max() > params.h_star)

    tracer.patch_function(dyn, "step", "dynamics.step", before=step_before, after=step_after)
    tracer.patch_method(dyn.Operators, "stationary_height_matrix",
                        "dynamics.Operators.stationary_height_matrix")
    tracer.patch_function(st, "_residuals", "stationary._residuals")
    if not full:
        return

    def cg_before(span, a):
        span.attrs["n"] = len(a["b"])
        if a.get("residual_history") is None:
            a["residual_history"] = span.attrs["history"] = []

    def cg_after(span, a, result):
        history = span.attrs.pop("history", None)
        if history is None:
            return
        span.attrs["iters"] = max(len(history) - 1, 0)
        matvecs = len(history)  # initial residual plus one per iteration
        mat = getattr(a["A"], "scipy", a["A"])
        if hasattr(mat, "nnz") and hasattr(mat, "indices"):
            idx = mat.indices.itemsize
            rows, cols = mat.shape
            per = mat.nnz * (mat.data.itemsize + idx) + (rows + 1) * idx + 8 * (rows + cols)
            span.attrs["matvec_bytes"] = matvecs * per

    def densities_before(span, a):
        span.attrs["coupled"] = bool(a["implicit_ripping"] and np.any(a["rate"] > 0.0))

    def rate_after(span, a, result):
        span.attrs["active"] = bool(np.any(result > 0.0))

    def written(span, a, result):
        span.attrs["bytes"] = Path(a["path"]).stat().st_size

    functions = [
        ("cli", "main", None), ("cli", "run_sweep", None), ("cli", "sweep_point", None),
        ("config", "parse_config", None), ("config", "parse_config_dict", None),
        ("dynamics", "simulate", None), ("dynamics", "_solve_densities",
                                         {"before": densities_before}),
        ("grid", "build_grid", None), ("grid", "assemble_laplacian", None),
        ("linalg", "cg_solve", {"before": cg_before, "after": cg_after}),
        ("model", "ripping_rate", {"after": rate_after}), ("model", "pressure_pulse", None),
        ("stationary", "stationary_fixed_point", None),
        ("output", "write_csv", {"after": written}),
        ("output", "write_manifest", {"after": written}),
    ]
    for mod, attr, hooks in functions:
        tracer.patch_function(pkg[mod], attr, f"{mod}.{attr}", **(hooks or {}))
    methods = [
        (dyn.Operators, "__init__"), (dyn.Operators, "height_matrix"),
        (dyn.Operators, "density_matrix"), (dyn.Diagnostics, "record"),
        (grid_mod.SparseMatrix, "from_scipy"),
    ]
    for cls, attr in methods:
        tracer.patch_method(cls, attr, f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{attr}")


def step_latencies(tracer: Tracer, probe: "SpeedProbe | None" = None) -> list[float]:
    """Seconds per time step, or per Picard iteration of the stationary solver.

    Probe samples taken inside a Picard iteration are not counted.
    """
    steps = tracer.named("dynamics.step")
    if steps:
        return [s.duration for s in steps]
    starts = [s.start for s in tracer.named("dynamics.Operators.stationary_height_matrix")]
    ends = [s.start for s in tracer.named("stationary._residuals")]
    marks = starts + ends[:1]
    return [b - a - (probe.time_within(a, b) if probe else 0.0)
            for a, b in zip(marks, marks[1:])]


class SpeedProbe:
    """Follows the speed of the machine while a workload runs.

    The machine is a share of a host that other jobs load, and its speed
    drifts by tens of percent over seconds and minutes.  A sample times a
    fixed reference computation, 20 conjugate-gradient iterations on a
    fourth-order operator of the ``bleb`` grid size, in numpy and scipy
    only: the mix of sparse products and small vector operations the
    package spends its time in, but none of its code.  Samples run between
    the time steps (or Picard iterations) of an operation, outside the
    timed steps, and their time is taken out of the operation's time.
    ``scale`` turns a time measured next to some samples into the time at
    the speed where a sample takes ``REFERENCE_MS``.
    """

    ITERATIONS = 20
    REFERENCE_MS = 2.0
    WINDOW = 5  # a step is scaled by the samples up to five steps around it

    def __init__(self):
        import scipy.sparse as sp

        m = N - 1
        T = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
        eye = sp.identity(m)
        A = sp.kron(T, eye) + sp.kron(eye, T)
        self.matrix = (A @ A + A + sp.identity(m * m)).tocsr()
        self.rhs = np.ones(m * m)
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _work(self) -> None:
        A, b = self.matrix, self.rhs
        x = np.zeros_like(b)
        r = b.copy()
        d = r.copy()
        rr = r @ r
        for _ in range(self.ITERATIONS):
            q = A @ d
            alpha = rr / (d @ q)
            x += alpha * d
            r -= alpha * q
            rr, rr_old = r @ r, rr
            d = r + (rr / rr_old) * d

    def sample(self) -> None:
        start = time.perf_counter()
        self._work()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def durations(self, first: int = 0) -> list[float]:
        """Seconds of every sample from index ``first`` on."""
        return [e - s for s, e in zip(self.starts[first:], self.ends[first:])]

    def time_within(self, a: float, b: float) -> float:
        """Seconds of sampling between ``a`` and ``b``."""
        return sum(e - s for s, e in zip(self.starts, self.ends) if s >= a and e <= b)

    def scale(self, seconds: float, samples: list[float]) -> float:
        """``seconds`` at the reference speed, by the samples taken around them.

        The highest and lowest tenth of the samples are left out: now and
        then a sample is descheduled and takes ten times as long.
        """
        ordered = sorted(samples)
        cut = len(ordered) // 10
        typical = statistics.fmean(ordered[cut:len(ordered) - cut])
        return seconds * self.REFERENCE_MS / (1e3 * typical)

    def scale_steps(self, steps: list[float], samples: list[float]) -> list[float]:
        """Each step scaled by the samples taken up to ``WINDOW`` steps around it.

        There is one sample per step; if the counts differ (the operation
        failed), every step is scaled by all the samples.
        """
        if len(samples) != len(steps):
            return [self.scale(t, samples) for t in steps]
        w = self.WINDOW
        return [self.scale(t, samples[max(k - w, 0):k + w + 1]) for k, t in enumerate(steps)]


def step_profile(latencies: list[list[float]]) -> np.ndarray:
    """Latency of each step, averaged over the operations that ran every step.

    The machine's speed drifts over seconds, so percentiles of the steps
    pooled over a run jump with the share of the run spent slow; averaging
    each step over the repeats first keeps that drift out of the percentiles.
    """
    most = max(len(steps) for steps in latencies)
    full = [steps for steps in latencies if len(steps) == most]
    return np.mean(full, axis=0) if most else np.zeros(1)


# ---------------------------------------------------------------------------
# one operation and its checks


def linear_oracle_pressure(params, tau: float, n: int, pascal: float, microgram: float) -> float:
    """Critical peak pressure of the sweep protocol from a direct solver.

    Below ``h_star`` nothing rips, the densities stay at their initial
    values (rho_a = 1), and ten steps of the height equation are linear in
    the peak.  Operators and pulse are built here, independently of the
    package, and the systems are solved by sparse LU.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    h = 1.0 / n
    m = n - 1
    T = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1]) / h**2
    eye = sp.identity(m)
    A = sp.kron(T, eye) + sp.kron(eye, T)
    eye2 = sp.identity(m * m)
    B = ((params.c / tau) * eye2 + params.kappa * (A @ A) + params.gamma * A
         + params.xi * microgram * eye2).tocsc()
    solve = spla.factorized(B)
    x = np.arange(1, n) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    dist = np.hypot(X - 0.5, Y - 0.5).ravel()
    load = pascal * np.where(dist < 0.4, (0.4 - dist) ** 2 / 0.4**2, 0.0)
    u = np.zeros(m * m)
    for _ in range(10):
        u = solve((params.c / tau) * u + load)
    return params.h_star / float(u.max())


def step_checks(tracer: Tracer) -> list[str]:
    """Linker mass and density sign after every time step of the operation."""
    failures = []
    mass0 = None
    for span in tracer.named("dynamics.step"):
        mass0 = span.attrs.get("mass0", mass0)
        if "mass" not in span.attrs:
            continue  # the step raised
        drift = abs(span.attrs["mass"] - mass0) / abs(mass0)
        if drift > MASS_DRIFT_TOL:
            failures.append(f"mass drift {drift:.3e} after a step")
        if span.attrs["min_rho"] < MIN_RHO_TOL:
            failures.append(f"min rho {span.attrs['min_rho']:.3e} after a step")
    return sorted(set(failures))


class Operation:
    """One call of a workload, with its checks; ``artifacts`` are the result bytes."""

    def __init__(self, workload: str, inputs: dict, pkg: dict, outdir: Path, reference):
        self.workload = workload
        self.inputs = inputs
        self.pkg = pkg
        self.outdir = outdir
        self.reference = reference
        self.config_path = outdir.parent / "config.json"
        self.artifacts: dict[str, bytes] = {}
        self.failures: list[str] = []
        self.result = None

    def run(self) -> None:
        if self.workload == "stationary":
            self.result = self._stationary()
        else:
            cmd = "sweep" if self.workload == "sweep" else "run"
            code = self.pkg["cli"].main([cmd, "--config", str(self.config_path),
                                         "--out", str(self.outdir)])
            self.result = code

    def _stationary(self):
        cfg = self.pkg["config"].parse_config(self.config_path)
        grid = self.pkg["grid"].build_grid(cfg.n)
        pressure = self.pkg["dynamics"].build_pressure(cfg, grid)
        return self.pkg["stationary"].stationary_fixed_point(
            cfg.params, pressure, M0, grid, cfg.solve_options()
        )

    def check(self, tracer: Tracer) -> None:
        fail = self.failures
        if self.workload == "stationary":
            self._check_stationary()
            return
        if self.result != 0:
            fail.append(f"cli exited with {self.result}")
            return
        fail.extend(step_checks(tracer))
        for path in sorted(self.outdir.glob("*.csv")):
            self.artifacts[path.name] = path.read_bytes()
        manifest = json.loads((self.outdir / "manifest.json").read_text())
        if self.workload == "sweep":
            cfg = self.pkg["config"].parse_config(self.config_path)
            model = self.pkg["model"]
            oracle = linear_oracle_pressure(cfg.params, cfg.tau, cfg.n,
                                            model.PASCAL, model.MICROGRAM)
            found = manifest.get("critical_pressure")
            if found is None or abs(found - oracle) > cfg.sweep_bisect_tol:
                fail.append(f"critical pressure {found} vs linear oracle {oracle:.4f}")
            return
        if self.reference is None:  # recording the reference
            return
        final = float(manifest["final_max_h"])
        ref = self.reference[self.workload][str(self.inputs["variant"])]
        if abs(final - ref) > MAX_H_RTOL * abs(ref):
            fail.append(f"final max_h {final!r} vs reference {ref!r}")

    def _check_stationary(self) -> None:
        res = self.result
        fail = self.failures
        st = self.pkg["stationary"]
        cfg = self.pkg["config"].parse_config(self.config_path)
        grid = self.pkg["grid"].build_grid(cfg.n)
        weighted = st.weighted_density_residual(res, cfg.params, grid)
        if not weighted <= WEIGHTED_RESIDUAL_TOL:
            fail.append(f"weighted-density residual {weighted:.3e}")
        drift = abs(res.total_mass - M0) / M0
        if not drift <= MASS_DRIFT_TOL:
            fail.append(f"mass drift {drift:.3e}")
        min_rho = float(min(res.rho_a.min(), res.rho_i.min()))
        if min_rho < MIN_RHO_TOL:
            fail.append(f"min rho {min_rho:.3e}")
        self.artifacts = {name: np.ascontiguousarray(getattr(res, name)).tobytes()
                          for name in ("h", "rho_a", "rho_i")}


def run_operation(workload, inputs, pkg, reference, outdir: Path, full_trace: bool,
                  probe: SpeedProbe | None = None):
    """Run and check one operation; returns (operation, tracer, wall seconds).

    With a ``probe``, it samples after every time step and Picard iteration,
    and the wall time leaves the samples out.
    """
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    op = Operation(workload, inputs, pkg, outdir, reference)
    tracer = Tracer()
    instrument(tracer, pkg, full_trace)
    if probe is not None:
        tracer.call_after(pkg["dynamics"], "step", probe.sample)
        tracer.call_after(pkg["dynamics"].Operators, "stationary_height_matrix", probe.sample)
    target = tracer.wrap("bench.operation", op.run) if full_trace else op.run
    try:
        start = time.perf_counter()
        try:
            target()
        finally:
            end = time.perf_counter()
            wall = end - start - (probe.time_within(start, end) if probe else 0.0)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        op.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        tracer.restore()
    if not op.failures:
        op.check(tracer)
    return op, tracer, wall


# ---------------------------------------------------------------------------
# metrics


def setup_seconds(config_path: Path) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, as measured and scaled."""
    measured, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path),
             str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, seconds_scaled = done.stdout.strip().splitlines()[-1].split()
        measured.append(float(seconds))
        scaled.append(float(seconds_scaled))
    return measured, scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def layer_metrics(tracer: Tracer, traced_wall: float, plain_wall: float,
                  config) -> tuple[dict, dict]:
    """Per-layer metrics of a traced operation, plus its self-time table.

    Times are shares of the traced operation in percent, so that a layer a
    workload never calls reads 0 % rather than a 0 s time.  Named-function
    shares include their children; ``self`` shares do not and add up to 100.
    """
    spans = tracer.spans
    total = sum(s.duration for s in spans if s.parent is None)

    def pct(seconds):
        return 100.0 * seconds / total

    def incl(*names):
        return pct(sum(s.duration for s in spans if s.name in names))

    self_s: dict[str, float] = {}
    for s in spans:
        self_s[s.module] = self_s.get(s.module, 0.0) + s.self_time

    cg = [s for s in spans if s.name == "linalg.cg_solve" and "iters" in s.attrs]
    height = [s for s in cg if s.attrs["n"] == (config.n - 1) ** 2]
    density = [s for s in cg if s.attrs["n"] == (config.n + 1) ** 2]
    # a coupled density sweep is two CG solves
    gs = sum(1 for s in cg if s.parent.name == "dynamics._solve_densities"
             and s.parent.attrs["coupled"]) // 2

    steps = tracer.named("dynamics.step")
    picard = tracer.named("dynamics.Operators.stationary_height_matrix")
    if steps:
        ripping = sum(1 for s in steps if s.attrs.get("ripping")) / len(steps)
    elif picard:
        rates = [s for s in tracer.named("model.ripping_rate")
                 if s.parent.name == "stationary.stationary_fixed_point"]
        ripping = sum(1 for s in rates if s.attrs["active"]) / len(picard)
    else:
        ripping = 0.0
    writes = tracer.named("output.write_csv") + tracer.named("output.write_manifest")
    points = tracer.named("cli.sweep_point")

    m = {
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.self_sum_s": (sum(self_s.values()), "s"),
        "linalg.cg_height_pct": (pct(sum(s.duration for s in height)), "%"),
        "linalg.cg_height_solves": (len(height), "count"),
        "linalg.cg_height_iters": (sum(s.attrs["iters"] for s in height), "count"),
        "linalg.cg_height_iters_p50": (
            float(np.median([s.attrs["iters"] for s in height])) if height else 0.0, "count"),
        "linalg.cg_density_pct": (pct(sum(s.duration for s in density)), "%"),
        "linalg.cg_density_iters": (sum(s.attrs["iters"] for s in density), "count"),
        "linalg.cg_matvec_bytes": (
            sum(s.attrs.get("matvec_bytes", 0) for s in cg), "bytes-computed"),
        "dynamics.steps": (len(steps), "count"),
        "dynamics.step_self_pct": (pct(sum(s.self_time for s in steps)), "%"),
        "dynamics.height_matrix_pct": (
            incl("dynamics.Operators.height_matrix",
                 "dynamics.Operators.stationary_height_matrix"), "%"),
        "dynamics.density_matrix_pct": (incl("dynamics.Operators.density_matrix"), "%"),
        "dynamics.operators_pct": (incl("dynamics.Operators.__init__"), "%"),
        "dynamics.operators_calls": (len(tracer.named("dynamics.Operators.__init__")), "count"),
        "dynamics.gs_sweeps": (gs, "count"),
        "dynamics.diagnostics_pct": (incl("dynamics.Diagnostics.record"), "%"),
        "grid.assemble_pct": (incl("grid.assemble_laplacian"), "%"),
        "grid.assemble_calls": (len(tracer.named("grid.assemble_laplacian")), "count"),
        "grid.from_scipy_pct": (incl("grid.SparseMatrix.from_scipy"), "%"),
        "grid.from_scipy_calls": (len(tracer.named("grid.SparseMatrix.from_scipy")), "count"),
        "model.ripping_step_share": (100.0 * ripping, "%"),
        "stationary.picard_iters": (len(picard), "count"),
        "stationary.fixed_point_pct": (incl("stationary.stationary_fixed_point"), "%"),
        "stationary.residuals_pct": (incl("stationary._residuals"), "%"),
        "output.write_pct": (pct(sum(s.duration for s in writes)), "%"),
        "output.bytes": (sum(s.attrs.get("bytes", 0) for s in writes), "bytes"),
        "cli.sweep_points": (len(points), "count"),
        "cli.bisect_points": (max(len(points) - config.sweep_samples, 0), "count"),
        "cli.sweep_point_pct": (incl("cli.sweep_point"), "%"),
    }
    for module in SELF_MODULES:
        m[f"{module}.self_pct"] = (pct(self_s.get(module, 0.0)), "%")
    table = {mod: {"self_s": sec, "self_pct": pct(sec)} for mod, sec in sorted(self_s.items())}
    return m, table


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": threads,
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="re-record reference.json for every input variant")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_reference:
        p.error("--workload is required")
    return args


def prepare(workload: str, seed: int) -> tuple[dict, Path]:
    inputs = variant_inputs(workload, seed)
    wdir = OUT / workload
    wdir.mkdir(parents=True, exist_ok=True)
    (wdir / "config.json").write_text(json.dumps(config_doc(workload, inputs)))
    return inputs, wdir


def record_reference(pkg) -> None:
    ref = {"bleb": {}}
    for v in range(VARIANTS):
        inputs, wdir = prepare("bleb", v)
        op, _, _ = run_operation("bleb", inputs, pkg, None, wdir / "op", False)
        if op.failures or op.result != 0:
            raise SystemExit(f"perfbench: bleb variant {v} failed: {op.failures}")
        manifest = json.loads((wdir / "op" / "manifest.json").read_text())
        ref["bleb"][str(v)] = manifest["final_max_h"]
        print("bleb", v, manifest["final_max_h"], flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    pkg = import_package()
    if args.record_reference:
        record_reference(pkg)
        return 0
    reference = json.loads(REFERENCE.read_text())
    inputs, wdir = prepare(args.workload, args.seed)
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "inputs": inputs}))

    if args.trace:
        plain, _, plain_wall = run_operation(args.workload, inputs, pkg, reference,
                                             wdir / "plain", False)
        traced, tracer, traced_wall = run_operation(args.workload, inputs, pkg, reference,
                                                    wdir / "traced", True)
        if not traced.failures and traced.artifacts != plain.artifacts:
            traced.failures.append("traced results differ from untraced results")
        config = pkg["config"].parse_config(wdir / "config.json")
        metrics, table = layer_metrics(tracer, traced_wall, plain_wall, config)
        ops = [plain, traced]
        tracer.dump(wdir / "spans.jsonl")
        print(json.dumps({"self_time_table": table}))
    else:
        setup, setup_scaled = setup_seconds(wdir / "config.json")
        probe = SpeedProbe()
        probe.sample()  # first-call costs stay out of the samples used
        ops, walls, walls_scaled, latencies, latencies_scaled = [], [], [], [], []
        start = time.perf_counter()
        # stop before an operation of the mean length would overrun --seconds
        while not ops or time.perf_counter() - start + statistics.fmean(walls) <= args.seconds:
            first = len(probe.starts)
            op, tracer, wall = run_operation(args.workload, inputs, pkg, reference,
                                             wdir / f"op{len(ops)}", False, probe)
            samples = probe.durations(first)
            steps = step_latencies(tracer, probe)
            if not steps and not op.failures:
                op.failures.append("no time step or Picard iteration was recorded")
            ops.append(op)
            walls.append(wall)
            latencies.append(steps)
            if samples:
                walls_scaled.append(probe.scale(wall, samples))
                latencies_scaled.append(probe.scale_steps(steps, samples))
        profile = step_profile(latencies_scaled or latencies) * 1e3
        metrics = {
            "wall_s": (statistics.fmean(walls_scaled or walls), "s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "step_ms_p50": (float(np.percentile(profile, 50)), "ms"),
            "step_ms_p90": (float(np.percentile(profile, 90)), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        measured = step_profile(latencies) * 1e3
        print(json.dumps({
            "as_measured": {
                "wall_s": statistics.fmean(walls),
                "setup_s": statistics.median(setup),
                "step_ms_p50": float(np.percentile(measured, 50)),
                "step_ms_p90": float(np.percentile(measured, 90)),
            },
            "walls_s": walls, "setup_samples_s": setup,
            "steps_per_operation": len(profile),
            "probe_ms_mean": 1e3 * statistics.fmean(probe.durations()),
            "probe_samples": len(probe.starts),
        }))

    failed = sum(1 for op in ops if op.failures)
    print(json.dumps({"failures": [op.failures for op in ops]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
