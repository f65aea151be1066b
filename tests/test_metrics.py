import itertools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fredholm_flow import (EvaluationGrid, GaussianConvolutionKernel,
                           GaussianMixtureDelayKernel, RadonAlignmentKernel, blocks, ise,
                           reconvolve, wasserstein1_1d)

from conftest import gauss_pdf


def _grid(lo=-10.0, hi=10.0, n=4001):
    return EvaluationGrid(((lo, hi, n),))


def test_ise_zero_on_identical():
    grid = _grid(n=101)
    vals = np.exp(-np.linspace(-10, 10, 101) ** 2)
    assert ise(grid, vals, vals) == 0.0


def test_ise_gaussian_closed_form():
    # using the product identity: the integral of N(0,a^2)N(0,b^2) is the
    # normal density at zero with variance a^2+b^2
    a, b = 1.0, 2.0
    grid = _grid()
    x = grid.axes()[0]
    est = gauss_pdf(x, 0.0, a**2)
    tru = gauss_pdf(x, 0.0, b**2)
    closed = (1.0 / (2 * a * np.sqrt(np.pi)) + 1.0 / (2 * b * np.sqrt(np.pi))
              - 2.0 * gauss_pdf(0.0, 0.0, a**2 + b**2))
    assert ise(grid, est, tru) == pytest.approx(closed, abs=1e-4)


def test_ise_scaling():
    scale = 2.0
    grid = _grid(-5, 5, 2001)
    x = grid.axes()[0]
    f = gauss_pdf(x, 0.0, 1.0)
    g = gauss_pdf(x, 0.5, 2.0)
    base = ise(grid, f, g)
    wide = EvaluationGrid(((-5 * scale, 5 * scale, 2001),))
    xs = wide.axes()[0]
    f2 = gauss_pdf(xs / scale, 0.0, 1.0) / scale
    g2 = gauss_pdf(xs / scale, 0.5, 2.0) / scale
    scaled = ise(wide, f2, g2)
    assert scaled == pytest.approx(base / scale, rel=1e-10)


def test_ise_grid_mismatch():
    # one value per node of the grid, or nothing broadcasts: not a finer
    # grid's values, not one value for every node, not a column
    grid = _grid(n=101)
    for estimate, truth in [(np.zeros(101), np.zeros(201)), (np.zeros(201), np.zeros(101)),
                            (np.zeros(101), np.zeros(1)), (np.zeros(1), np.zeros(101)),
                            (np.zeros((101, 1)), np.zeros(101))]:
        with pytest.raises(ValueError, match="101 nodes"):
            ise(grid, estimate, truth)


def test_w1_trivials():
    assert wasserstein1_1d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert wasserstein1_1d([0.0], [1.0]) == 1.0
    with pytest.raises(ValueError):
        wasserstein1_1d([], [1.0])


def test_w1_matches_assignment_search(rng):
    for _ in range(100):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        best = min(np.mean(np.abs(a - b[list(p)]))
                   for p in itertools.permutations(range(4)))
        assert wasserstein1_1d(a, b) == pytest.approx(best, rel=1e-12)


def test_w1_unequal_sizes_quantile_integral(rng):
    # brute-force oracle: integrate |F_a^{-1} - F_b^{-1}| on a fine common grid
    for _ in range(20):
        a = np.sort(rng.normal(size=7))
        b = np.sort(rng.normal(size=4))
        u = (np.arange(28 * 64) + 0.5) / (28 * 64)
        qa = a[np.minimum((u * 7).astype(int), 6)]
        qb = b[np.minimum((u * 4).astype(int), 3)]
        oracle = np.mean(np.abs(qa - qb))
        assert wasserstein1_1d(a, b) == pytest.approx(oracle, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=3, max_size=3),
       st.lists(st.floats(-100, 100), min_size=3, max_size=3),
       st.lists(st.floats(-100, 100), min_size=3, max_size=3))
def test_w1_metric_axioms(a, b, c):
    a, b, c = map(np.asarray, (a, b, c))
    assert wasserstein1_1d(a, b) == wasserstein1_1d(b, a)
    assert wasserstein1_1d(a, a) == 0.0
    assert wasserstein1_1d(a, c) <= wasserstein1_1d(a, b) + wasserstein1_1d(b, c) + 1e-12


def test_reconvolve_point_mass():
    kernel = GaussianConvolutionKernel([0.3])
    grid = _grid(-3, 3, 501)
    x0 = 0.4
    out = reconvolve(np.array([[x0]]), kernel, grid)
    expected = kernel.eval_matrix(np.array([[x0]]), grid.nodes())[0]
    assert np.allclose(out, expected, rtol=1e-14)


def test_reconvolve_integrates_to_one(rng):
    kernel = GaussianConvolutionKernel([0.3])
    pts = rng.normal(size=(40, 1)) * 0.5
    grid = _grid(-8, 8, 2001)
    out = reconvolve(pts, kernel, grid)
    assert grid.trapezoid_weights() @ out == pytest.approx(1.0, abs=1e-3)


def test_reconvolve_matches_loop(rng):
    kernel = GaussianConvolutionKernel([0.4])
    pts = rng.normal(size=(6, 1))
    grid = _grid(-2, 2, 11)
    out = reconvolve(pts, kernel, grid)
    for i, node in enumerate(grid.nodes()):
        oracle = sum(kernel.eval(p, node) for p in pts) / len(pts)
        assert out[i] == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("name", ["gauss-d3", "delay", "radon"])
def test_particle_reconvolution_is_the_column_mean_in_blocks(name, rng, monkeypatch):
    if name == "radon":
        kernel = RadonAlignmentKernel(sigma=0.2)
        grid = EvaluationGrid(((0.0, 2 * np.pi, 51), (-1.5, 1.5, 51)))
        pts = rng.normal(0.0, 0.3, (2000, 2))
    elif name == "delay":
        kernel = GaussianMixtureDelayKernel((0.595, 0.405), (8.63, 15.24), (2.56, 5.39))
        grid = _grid(-10.0, 60.0, 2601)
        pts = rng.normal(5.0, 3.0, (2000, 1))
    else:
        kernel = GaussianConvolutionKernel([0.3, 0.5, 0.8])
        grid = EvaluationGrid(((-2.0, 2.0, 14),) * 3)
        pts = rng.normal(0.0, 0.5, (2000, 3))
    n_nodes = int(np.prod(grid.shape))
    assert len(blocks.row_blocks(n_nodes, len(pts))) > 1
    # each node's mean is one contiguous row of the observation-major matrix
    want = kernel.eval_matrix(*blocks.by_observation(pts, grid.nodes())).mean(axis=1)
    np.testing.assert_allclose(want, kernel.eval_matrix(pts, grid.nodes()).mean(axis=0),
                               rtol=1e-13, atol=0)
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(blocks, "_pool", pool)
        tracemalloc.start()
        got = reconvolve(pts, kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert np.array_equal(got, want)
    # one (N, nodes) matrix and a few block workspaces per thread, not three matrices
    assert peak <= 1.5 * 8 * len(pts) * n_nodes


def test_reconvolve_requires_matching_dims():
    from fredholm_flow import RadonAlignmentKernel
    kernel = RadonAlignmentKernel(sigma=0.05)
    grid = EvaluationGrid(((0.0, 6.28, 5), (-1.0, 1.0, 5)))
    out = reconvolve(np.zeros((3, 2)), kernel, grid)   # p == d == 2 is allowed
    assert out.shape == (25,)
    kernel1d = GaussianConvolutionKernel([0.3])
    with pytest.raises(ValueError):
        reconvolve(np.zeros((3, 2)), kernel1d, _grid(n=5))

def test_ise_positive_when_values_differ(rng):
    grid = _grid(n=101)
    a = rng.exponential(size=101)
    b = a.copy()
    b[50] += 1e-3
    assert ise(grid, a, b) > 0.0
