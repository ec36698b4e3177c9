"""CSV and manifest writers.

All CSVs use '.' decimals, newline line endings, and 17 significant digits
so that reruns of identical configs are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import Diagnostics, State
from .grid import Grid


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header: list[str], rows) -> None:
    """Write the header and rows line by line, without building the file in memory."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def write_diagnostics(path, diag: Diagnostics) -> None:
    header = [
        "step", "t", "max_h", "max_step_diff", "total_mass",
        "min_rho_a", "min_rho_i", "ripping_flux", "weighted_density_spread",
    ]
    rows = zip(
        diag.step, diag.t, diag.max_h, diag.max_step_diff, diag.total_mass,
        diag.min_rho_a, diag.min_rho_i, diag.ripping_flux,
        diag.weighted_density_spread,
    )
    write_csv(path, header, rows)


def write_snapshot(path, grid: Grid, state: State) -> None:
    header = ["x", "y", "h", "rho_a", "rho_i"]
    rows = zip(grid.node_x, grid.node_y, state.h, state.rho_a, state.rho_i)
    write_csv(path, header, rows)


def write_manifest(path, config, wall_time: float, extra: dict | None = None,
                   status: str = "ok") -> None:
    """Config echo, version, wall time and ``status`` (``"ok"`` or ``"failed"``)."""
    doc = {
        "config": config.to_dict(),
        "library_version": _version(),
        "status": status,
        "wall_time_seconds": wall_time,
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _version() -> str:
    from . import __version__

    return __version__
