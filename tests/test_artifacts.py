import json

import numpy as np

from fredholm_flow import DensityOnGrid, EvaluationGrid, ParticleCloud
from fredholm_flow import artifacts
from fredholm_flow.functional import FunctionalEstimate
from fredholm_flow.solver import SolverTrace


def test_cloud_roundtrip_bitexact(tmp_path, rng):
    cloud = ParticleCloud(rng.normal(size=(17, 3)) * 1e-7)
    path = tmp_path / "cloud.csv"
    artifacts.write_cloud_csv(path, cloud)
    back = artifacts.read_cloud_csv(path)
    assert np.array_equal(back.points, cloud.points)


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
    grid = EvaluationGrid(((-1.234567891234567, 2.0, 4), (0.0, 1.0, 3)))
    density = DensityOnGrid(grid, rng.exponential(size=12))
    path = tmp_path / "density.csv"
    artifacts.write_density_csv(path, density)
    back = artifacts.read_density_csv(path)
    assert back.grid.spans == grid.spans
    assert np.array_equal(back.values, density.values)


def test_metrics_roundtrip(tmp_path):
    rows = [("toy", "particle_flow", 500, 10000, 7, "ise", 0.1 + 1e-16)]
    path = tmp_path / "metrics.csv"
    artifacts.write_metrics_csv(path, rows)
    assert artifacts.read_metrics_csv(path) == rows


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
