"""CSV and manifest writers.

All CSVs use '.' decimals, newline line endings, and 17 significant digits
so that reruns of identical configs are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
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
    """One column per list field of ``Diagnostics``, in field order."""
    columns = [f.name for f in fields(diag) if isinstance(getattr(diag, f.name), list)]
    write_csv(path, columns, zip(*(getattr(diag, name) for name in columns)))


def write_snapshot(path, grid: Grid, state: State) -> None:
    """One CSV row per node, with the bytes :func:`fmt` gives every value.

    The whole body is formatted by one ``%`` on a template of ``%.17g``
    fields, which writes what :func:`fmt` writes for a float, and
    :func:`write_csv` writes it after the header as one string.
    """
    header = ["x", "y", "h", "rho_a", "rho_i"]
    columns = np.column_stack([grid.node_x, grid.node_y, state.h, state.rho_a, state.rho_i])
    template = "\n".join([",".join(["%.17g"] * len(header))] * len(columns))
    write_csv(path, header, [[template % tuple(columns.ravel().tolist())]])


def write_manifest(path, config, wall_time: float, extra: dict | None = None,
                   status: str = "ok") -> None:
    """Config echo, version, wall time and ``status`` (``"ok"`` or ``"failed"``)."""
    doc = {
        "config": config.to_dict(),
        "library_version": __version__,
        "status": status,
        "wall_time_seconds": wall_time,
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
