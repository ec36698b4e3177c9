"""The names the benchmark runner (``perfbench/run.py``) wraps or reads keep existing.

The runner patches these functions and methods by name, reads some of their
arguments by name, marks time steps and Picard iterations by their calls,
and reads config fields, result fields and manifest keys by name.  A
rename or a changed call pattern would make the benchmark measure the wrong
thing, or nothing, without any other test noticing.
"""

import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from blebsheet import cli, config, dynamics, grid, linalg, model, output, stationary
from blebsheet.model import ModelParams, pressure_pulse

# (owner, name) the runner wraps or calls -> argument names it reads from the call
WRAPPED = {
    (cli, "main"): (),
    (cli, "run_sweep"): (),
    (cli, "sweep_point"): (),
    (config, "parse_config"): (),
    (config, "parse_config_dict"): (),
    (dynamics, "step"): ("state", "params", "grid"),
    (dynamics, "simulate"): (),
    (dynamics, "_solve_densities"): ("implicit_ripping", "rate"),
    (dynamics, "build_pressure"): (),
    (grid, "build_grid"): (),
    (grid, "assemble_laplacian"): (),
    (linalg, "cg_solve"): ("A", "b", "residual_history"),
    (model, "ripping_rate"): (),
    (model, "pressure_pulse"): (),
    (stationary, "stationary_fixed_point"): (),
    (stationary, "_residuals"): (),
    (stationary, "weighted_density_residual"): (),
    (output, "write_csv"): ("path",),
    (output, "write_manifest"): ("path",),
    (dynamics.Operators, "__init__"): (),
    (dynamics.Operators, "height_matrix"): (),
    (dynamics.Operators, "stationary_height_matrix"): (),
    (dynamics.Operators, "density_matrix"): (),
    (dynamics.Diagnostics, "record"): (),
    (grid.SparseMatrix, "from_scipy"): (),
}


def test_wrapped_names_exist():
    for (owner, name), args in WRAPPED.items():
        fn = getattr(owner, name)
        assert callable(fn), name
        params = inspect.signature(fn).parameters
        for arg in args:
            assert arg in params, f"{name} lost its argument {arg!r}"


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_stationary_height_matrix_marks_each_picard_iteration(monkeypatch):
    # the runner times a Picard iteration from one stationary_height_matrix
    # call to the next, and the last one up to the _residuals call
    heights = _counting(monkeypatch, dynamics.Operators, "stationary_height_matrix")
    residuals = _counting(monkeypatch, stationary, "_residuals")
    g = grid.build_grid(8)
    result = stationary.stationary_fixed_point(
        ModelParams(), pressure_pulse(g, peak=410.0), 1.0, g
    )
    assert result.iterations > 1
    assert len(heights) == result.iterations
    assert len(residuals) == 1


def test_step_builds_one_height_operator(monkeypatch):
    heights = _counting(monkeypatch, dynamics.Operators, "height_matrix")
    g = grid.build_grid(8)
    state = dynamics.State(
        h=np.zeros(g.num_nodes),
        rho_a=np.ones(g.num_nodes), rho_i=np.zeros(g.num_nodes),
    )
    pressure = pressure_pulse(g, peak=50.0)
    for k in range(3):
        state = dynamics.step(state, 1e-6, ModelParams(), pressure, g)
        assert len(heights) == k + 1


def test_every_time_loop_steps_through_dynamics_step(monkeypatch):
    # the runner rebinds dynamics.step to time each step; a loop that calls
    # its own imported step would run untimed and uncounted
    steps = _counting(monkeypatch, dynamics, "step")
    cfg = config.parse_config_dict({"scenario": "stationary_state", "n": 8,
                                    "final_time": 5e-6})
    dynamics.simulate(cfg)
    assert len(steps) == 5
    cli.sweep_point(400.0, cfg)
    assert len(steps) == 15


def test_ripping_steps_make_no_sparse_matrix(monkeypatch):
    # grid.from_scipy_calls counts grid assembly alone: once Operators is
    # built, the density matrices of a ripping step are not wrapped
    g = grid.build_grid(16)
    ops = dynamics.Operators(g)
    wraps = _counting(monkeypatch, grid.SparseMatrix, "from_scipy")
    params = ModelParams()
    bump = np.clip(1.0 - np.hypot(g.node_x - 0.5, g.node_y - 0.5) / 0.3, 0.0, None)
    state = dynamics.State(
        h=2.0 * params.h_star * bump,
        rho_a=np.ones(g.num_nodes), rho_i=np.zeros(g.num_nodes),
    )
    pressure = pressure_pulse(g, peak=410.0)
    for _ in range(10):
        assert np.any(model.ripping_rate(state.h, params) > 0.0)
        state = dynamics.step(state, 1e-6, params, pressure, g,
                              dynamics.Scheme.IMPLICIT_RIPPING, ops=ops)
    assert wraps == []


def test_density_matrix_exposes_dia_arrays():
    # linalg.cg_matvec_bytes reads nnz, indices and data of a CSR matrix; the
    # density matrices are stored by diagonals and have no indices, so that
    # metric counts no density solve until it reads offsets and data
    g = grid.build_grid(8)
    B = dynamics.Operators(g).density_matrix(0.2, np.full(g.num_nodes, 1e6))
    assert not hasattr(B, "indices")
    assert B.offsets.tolist() == [-9, -1, 0, 1, 9] and B.offsets.itemsize > 0
    assert B.data.shape == (5, g.num_nodes) and B.data.itemsize == 8


def test_setup_imports_load_only_what_setup_runs():
    # the runner's set-up interpreter imports config, dynamics and grid; the
    # package itself imports none of its modules, so the stationary, energy,
    # geometry and cli layers (and numpy.polynomial) stay out of its time
    src = str(Path(dynamics.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import blebsheet.config, blebsheet.dynamics, blebsheet.grid\n"
        "unused = ('blebsheet.stationary', 'blebsheet.energy', 'blebsheet.geometry',\n"
        "          'blebsheet.cli', 'numpy.polynomial')\n"
        "print(' '.join(m for m in sys.modules if m.startswith(unused)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.splitlines() == [""]


def test_import_leaves_heavy_modules_unloaded():
    # set-up time and memory count every module the import pulls in: no part
    # of scipy (the DIA kernel is loaded from its file alone), neither on
    # import nor on a time step, nor on a sweep, whose range here crosses
    # h_star so that points run in full and which stays in one process
    src = str(Path(dynamics.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import blebsheet.cli as cli\n"
        "def loaded(*prefixes): return ' '.join(m for m in sys.modules if m.startswith(prefixes))\n"
        "heavy = ('scipy', 'multiprocessing', 'concurrent.futures.process')\n"
        "print(loaded(*heavy))\n"
        "import numpy as np\n"
        "from blebsheet import dynamics, grid, model\n"
        "g = grid.build_grid(8)\n"
        "state = dynamics.State(h=np.zeros(g.num_nodes), rho_a=np.ones(g.num_nodes),\n"
        "                       rho_i=np.zeros(g.num_nodes))\n"
        "dynamics.step(state, 1e-6, model.ModelParams(), model.pressure_pulse(g, peak=400.0),\n"
        "              g, ops=dynamics.Operators(g))\n"
        "print(loaded(*heavy))\n"
        "from blebsheet.config import parse_config_dict\n"
        "rows, critical = cli.run_sweep(parse_config_dict({'scenario': 'pressure_sweep', 'n': 6}))\n"
        "assert critical is not None\n"
        "print(loaded(*heavy))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.splitlines() == ["", "", ""]


# what the runner reads by attribute or key, beyond the names it wraps
CONFIG_READS = ("n", "tau", "params", "sweep_samples", "sweep_bisect_tol")
PARAMS_READS = ("c", "gamma", "h_star", "kappa", "xi")
RESULT_READS = ("h", "rho_a", "rho_i", "total_mass")


def test_runner_reads_exist(tmp_path):
    # the runner's sweep check compares critical_pressure with its own oracle
    # to within sweep_bisect_tol, a key that no package code reads any more
    cfg = config.parse_config_dict({"scenario": "pressure_sweep", "n": 4,
                                    "sweep": {"samples": 3}})
    for name in CONFIG_READS:
        assert hasattr(cfg, name), name
    for name in PARAMS_READS:
        assert isinstance(getattr(cfg.params, name), float), name
    assert isinstance(cfg.solve_options(), linalg.SolveOptions)
    assert isinstance(model.PASCAL, float) and isinstance(model.MICROGRAM, float)
    fields = {f.name for f in dataclasses.fields(stationary.StationaryResult)}
    assert set(RESULT_READS) <= fields
    runs = {"sweep": {**cfg.to_dict(), "output_dir": str(tmp_path / "sweep")},
            "run": {"scenario": "stationary_state", "n": 4, "final_time": 3e-6,
                    "output_dir": str(tmp_path / "run")}}
    manifests = {}
    for command, doc in runs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--config", str(path)]) == 0
        manifests[command] = json.loads((tmp_path / command / "manifest.json").read_text())
    assert isinstance(manifests["sweep"]["critical_pressure"], float)
    assert isinstance(manifests["run"]["final_max_h"], float)
