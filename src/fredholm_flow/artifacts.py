"""CSV and JSON artifact writers, and the reader of point files.

All floats are written with 17 significant digits so every file parses back
bit-exactly; writers emit rows in a fixed order so identical runs produce
identical bytes.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .solver import SolverTrace


# array entries turned into Python floats at a time (whole rows, at least one)
_CHUNK_FLOATS = 1024


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_lines(path, lines):
    """Each of ``lines`` and a newline, streamed through the file's buffer."""
    with open(path, "w") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _as_listed(values: np.ndarray):
    """The rows (or entries) of ``values`` as Python lists (or floats), converted
    in chunks of at most ``_CHUNK_FLOATS`` floats, or one row where a row is longer."""
    rows = max(1, _CHUNK_FLOATS // math.prod(values.shape[1:]))
    for start in range(0, len(values), rows):
        yield from values[start:start + rows].tolist()


def _write_table(path, header, rows, comments=()) -> None:
    """Comment lines, the header, then one line per row with every cell ``fmt``-ed.

    Each row is formatted by one ``%`` over a line template; ``%.17g`` of a
    float is the same text as ``fmt``.
    """
    line = ",".join(["%.17g"] * len(header))
    rows = _as_listed(np.asarray(rows, dtype=float))
    _write_lines(path, itertools.chain([*comments, ",".join(header)],
                                       (line % tuple(row) for row in rows)))


def _names(prefix: str, dim: int) -> list:
    return [f"{prefix}_{i + 1}" for i in range(dim)]


# -- particle clouds ---------------------------------------------------------

def write_cloud_csv(path, cloud: np.ndarray) -> None:
    _write_table(path, _names("x", cloud.shape[1]), cloud)


def read_points_csv(path) -> np.ndarray:
    """One point per row, p comma-separated finite numbers; a header row is allowed.

    An empty, ragged, non-numeric or non-finite file is a ValueError naming ``path``."""
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    try:
        [float(v) for v in (lines[0] if lines else "").split(",")]
    except ValueError:  # a header row
        lines = lines[1:]
    if not lines:
        raise ValueError(f"{path}: no rows")
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite entry in row "
                         f"{np.argwhere(~np.isfinite(data))[0, 0] + 1}")
    return data


# -- solver traces -----------------------------------------------------------

def write_trace_csv(path, trace: SolverTrace) -> None:
    _write_table(path, trace.columns, trace.rows)


# -- densities on grids ------------------------------------------------------

def write_density_csv(path, grid, values: np.ndarray) -> None:
    """The grid's spans as a comment, then one row per node in row-major order
    with its entry of ``values``: each axis coordinate is formatted once, and
    only the density per row."""
    if len(values) != math.prod(grid.shape):
        raise ValueError(f"{len(values)} values for a grid of {math.prod(grid.shape)} nodes")
    spans = ";".join(f"{fmt(lo)},{fmt(hi)},{n}" for lo, hi, n in grid.spans)
    nodes = itertools.product(*(["%.17g" % x for x in axis.tolist()] for axis in grid.axes()))
    _write_lines(path, itertools.chain(
        [f"# grid: {spans}", ",".join(_names("x", grid.dim) + ["density"])],
        (",".join(node) + ",%.17g" % value
         for node, value in zip(nodes, _as_listed(values)))))


# -- metric tables -----------------------------------------------------------

def write_metrics_csv(path, rows) -> None:
    """Rows of (experiment, method, n_particles, n_observations, seed, metric, value)."""
    lines = ["experiment,method,n_particles,n_observations,seed,metric,value"]
    for exp, method, n, m, seed, metric, value in rows:
        lines.append(f"{exp},{method},{n},{m},{seed},{metric},{fmt(value)}")
    _write_lines(path, lines)


# -- cross-validation tables -------------------------------------------------

def write_cv_csv(path, result) -> None:
    lines = ["alpha,fold,g_hat,status"]
    for cell in result.cells:
        lines.append(f"{fmt(cell.alpha)},{cell.fold},{fmt(cell.value)},{cell.status}")
    for alpha, mean, n_ok in result.summary():
        lines.append(f"{fmt(alpha)},mean,{fmt(mean)},ok_folds={n_ok}")
    _write_lines(path, lines)


# -- baseline tables ---------------------------------------------------------

def write_toy_sweep_csv(path, rows) -> None:
    _write_table(path, ["alpha", "beta", "objective"], rows)


def write_grid_state_csv(path, centers: np.ndarray, values: np.ndarray) -> None:
    centers = np.atleast_2d(centers)
    _write_table(path, _names("x", centers.shape[1]) + ["value"],
                 np.column_stack([centers, values]))


# -- config echo -------------------------------------------------------------

def write_resolved_config(path, resolved: dict) -> None:
    Path(path).write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
