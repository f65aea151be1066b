"""CSV and JSON artifact writers/readers.

All floats are written with 17 significant digits so every file parses back
bit-exactly; writers emit rows in a fixed order so identical runs produce
identical bytes.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .density import EvaluationGrid
from .metrics import DensityOnGrid
from .solver import SolverTrace
from .state import ParticleCloud


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_lines(path, lines):
    Path(path).write_text("\n".join(lines) + "\n")


def _write_table(path, header, rows, comments=()) -> None:
    """Comment lines, the header, then one line per row with every cell ``fmt``-ed.

    Each row is formatted by one ``%`` over a line template; ``%.17g`` of a
    float is the same text as ``fmt``.
    """
    line = ",".join(["%.17g"] * len(header))
    _write_lines(path, [*comments, ",".join(header),
                        *(line % tuple(row) for row in np.asarray(rows, dtype=float).tolist())])


def _names(prefix: str, dim: int) -> list:
    return [f"{prefix}_{i + 1}" for i in range(dim)]


# -- particle clouds ---------------------------------------------------------

def write_cloud_csv(path, cloud: ParticleCloud) -> None:
    _write_table(path, _names("x", cloud.dim), cloud.points)


def read_cloud_csv(path) -> ParticleCloud:
    """A cloud as ``write_cloud_csv`` wrote it; a non-finite entry is a ValueError."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite entry in row "
                         f"{np.argwhere(~np.isfinite(data))[0, 0] + 1}")
    return ParticleCloud(data)


# -- solver traces -----------------------------------------------------------

def write_trace_csv(path, trace: SolverTrace) -> None:
    _write_table(path, trace.columns, trace.rows)


# -- densities on grids ------------------------------------------------------

def write_density_csv(path, density: DensityOnGrid) -> None:
    grid = density.grid
    spans = ";".join(f"{fmt(lo)},{fmt(hi)},{n}" for lo, hi, n in grid.spans)
    _write_table(path, _names("x", grid.dim) + ["density"],
                 np.column_stack([grid.nodes(), density.values]), [f"# grid: {spans}"])


def read_density_csv(path) -> DensityOnGrid:
    with open(path) as fh:
        comment = fh.readline().strip()
        if not comment.startswith("# grid: "):
            raise ValueError(f"{path} is missing its grid header")
        spans = tuple(tuple(float(v) if i < 2 else int(v)
                            for i, v in enumerate(part.split(",")))
                      for part in comment[len("# grid: "):].split(";"))
        fh.readline()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return DensityOnGrid(EvaluationGrid(spans), data[:, -1])


# -- metric tables -----------------------------------------------------------

def write_metrics_csv(path, rows) -> None:
    """Rows of (experiment, method, n_particles, n_observations, seed, metric, value)."""
    lines = ["experiment,method,n_particles,n_observations,seed,metric,value"]
    for exp, method, n, m, seed, metric, value in rows:
        lines.append(f"{exp},{method},{n},{m},{seed},{metric},{fmt(value)}")
    _write_lines(path, lines)


def read_metrics_csv(path):
    rows = []
    with open(path) as fh:
        fh.readline()
        for line in fh:
            exp, method, n, m, seed, metric, value = line.strip().split(",")
            rows.append((exp, method, int(n), int(m), int(seed), metric, float(value)))
    return rows


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
