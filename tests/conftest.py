import numpy as np
import pytest
from hypothesis import settings

from fredholm_flow import EvaluationGrid

# every @given test draws the same examples on every run, and no example
# database carries failures from one run to the next
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def central_difference(f, x, h=1e-5):
    """Componentwise central finite difference of a scalar field."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


def gauss_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)


def grid_nodes(grid):
    """The (n_nodes, d) node list of an ``EvaluationGrid``, in row-major order."""
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def read_density_csv(path):
    """(grid, node values) of a density as ``artifacts.write_density_csv`` wrote it."""
    with open(path) as fh:
        comment = fh.readline().strip()
        if not comment.startswith("# grid: "):
            raise ValueError(f"{path} is missing its grid header")
        spans = tuple(tuple(float(v) if i < 2 else int(v)
                            for i, v in enumerate(part.split(",")))
                      for part in comment[len("# grid: "):].split(";"))
        fh.readline()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return EvaluationGrid(spans), data[:, -1]


def read_metrics_csv(path):
    """The rows of a ``metrics.csv``, with the counts and seed as ints and the value a float."""
    rows = []
    with open(path) as fh:
        fh.readline()
        for line in fh:
            exp, method, n, m, seed, metric, value = line.strip().split(",")
            rows.append((exp, method, int(n), int(m), int(seed), metric, float(value)))
    return rows
