import io
import json
import sys
import tracemalloc

import numpy as np
import pytest

from fredholm_flow import EvaluationGrid
from fredholm_flow import artifacts
from fredholm_flow.functional import FunctionalEstimate
from fredholm_flow.solver import SolverTrace

from conftest import grid_nodes, read_density_csv, read_metrics_csv


def test_cloud_roundtrip_bitexact(tmp_path, rng):
    cloud = rng.normal(size=(17, 3)) * 1e-7
    path = tmp_path / "cloud.csv"
    artifacts.write_cloud_csv(path, cloud)
    assert np.array_equal(artifacts.read_points_csv(path), cloud)


def test_headerless_cloud_keeps_every_row(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("0.1\n0.2\n0.3\n")
    assert np.array_equal(artifacts.read_points_csv(path), [[0.1], [0.2], [0.3]])


def test_trace_roundtrip_bitexact(tmp_path, rng):
    trace = SolverTrace(2)
    for step in range(20):   # past the initial capacity, so the table grows
        estimate = FunctionalEstimate(*rng.normal(size=2)) if step != 3 else None
        drift_norms = rng.exponential(size=7) if step < 19 else None
        trace.append(step, estimate, drift_norms, rng.normal(size=(7, 2)) * 1e-7)
    path = tmp_path / "trace.csv"
    artifacts.write_trace_csv(path, trace)
    with open(path) as fh:
        header = tuple(fh.readline().strip().split(","))
        back = np.loadtxt(fh, delimiter=",", ndmin=2)
    assert header == trace.columns
    assert np.array_equal(back[:, 0], np.arange(20))
    assert np.isnan(back[3, 1]) and np.isnan(back[-1, header.index("drift_mean")])
    assert np.array_equal(back, trace.rows, equal_nan=True)


def test_density_roundtrip_bitexact(tmp_path, rng):
    for spans in (((-1.234567891234567, 2.0, 4), (0.0, 1.0, 3)), ((0.1, 0.7, 5),),
                  ((-1.0, 1.0, 3), (0.0, 2.0, 2), (5.0, 6.0, 4))):
        grid = EvaluationGrid(spans)
        values = rng.exponential(size=int(np.prod(grid.shape)))
        path = tmp_path / "density.csv"
        artifacts.write_density_csv(path, grid, values)
        back_grid, back = read_density_csv(path)
        assert back_grid.spans == grid.spans
        assert np.array_equal(back, values)
        # the same bytes as every cell of the node table formatted in turn
        table = tmp_path / "table.csv"
        artifacts._write_table(table, [f"x_{i + 1}" for i in range(grid.dim)] + ["density"],
                               np.column_stack([grid_nodes(grid), values]),
                               [path.read_text().splitlines()[0]])
        assert path.read_bytes() == table.read_bytes()


def test_metrics_roundtrip(tmp_path):
    rows = [("toy", "particle_flow", 500, 10000, 7, "ise", 0.1 + 1e-16)]
    path = tmp_path / "metrics.csv"
    artifacts.write_metrics_csv(path, rows)
    assert read_metrics_csv(path) == rows


def test_resolved_config_is_sorted_json(tmp_path):
    path = tmp_path / "config.json"
    artifacts.write_resolved_config(path, {"b": 1, "a": {"z": 2, "y": 3}})
    text = path.read_text()
    assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}
    assert text.index('"a"') < text.index('"b"')


def test_table_rows_match_per_cell_format(tmp_path, rng):
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-320, 5e-324, -1.7976931348623157e308,
                0.1, 1.0 / 3.0, 2.0**53 + 1, -7.0]
    rows = np.concatenate([np.reshape(specials, (4, 3)), rng.normal(size=(5, 3)) * 1e-7])
    path = tmp_path / "table.csv"
    artifacts._write_table(path, ["a", "b", "c"], rows, ["# comment"])
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# comment", "a,b,c"]
    assert lines[2:] == [",".join(artifacts.fmt(v) for v in row) for row in rows]


def test_density_csv_streams_its_lines(tmp_path, rng):
    grid = EvaluationGrid(((-1.2, 1.2, 161), (-1.2, 1.2, 161)))
    values = rng.exponential(size=161 * 161)
    path = tmp_path / "kde_grid.csv"
    tracemalloc.start()
    artifacts.write_density_csv(path, grid, values)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + 161 * 161 > 20 * artifacts._CHUNK_FLOATS
    # one chunk of values as Python floats and the file's buffer, not the whole file's text
    chunk_bytes = artifacts._CHUNK_FLOATS * (1 + max(len(line) for line in lines))
    assert peak <= 8 * chunk_bytes < path.stat().st_size / 2
    # every node and value as one write of the whole file writes them
    nodes = grid_nodes(grid)
    assert lines[2:] == [",".join(artifacts.fmt(v) for v in (*node, value))
                         for node, value in zip(nodes, values)]


def test_cloud_csv_converts_one_chunk_of_floats_at_a_time(tmp_path, rng):
    cloud = rng.normal(size=(1000, 10))
    path = tmp_path / "cloud.csv"
    tracemalloc.start()
    artifacts.write_cloud_csv(path, cloud)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the rows of one chunk of _CHUNK_FLOATS floats as lists of Python floats, and
    # the file's byte buffer and pending lines; 1024 rows a chunk held 405 KB
    rows = artifacts._CHUNK_FLOATS // 10
    row_bytes = sys.getsizeof([0.0] * 10) + 10 * sys.getsizeof(1.0)
    assert peak <= rows * row_bytes + 4 * io.DEFAULT_BUFFER_SIZE
    assert np.array_equal(artifacts.read_points_csv(path), cloud)


def test_density_csv_of_too_few_values_writes_nothing(tmp_path):
    grid = EvaluationGrid(((0.0, 1.0, 5), (0.0, 1.0, 3)))
    path = tmp_path / "kde_grid.csv"
    with pytest.raises(ValueError, match="14 values for a grid of 15 nodes"):
        artifacts.write_density_csv(path, grid, np.ones(14))
    assert not path.exists()
