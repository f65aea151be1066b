import tracemalloc

import numpy as np
import pytest

from fredholm_flow import (BandwidthMatrix, EvaluationGrid, GaussianConvolutionKernel,
                           GaussianKde, ParticleCloud, blocks, density, kde_eval, kde_grid,
                           silverman_bandwidth)


def naive_kde(points, diag, x):
    """Independent per-particle summation oracle."""
    total = 0.0
    for p in points:
        q = 1.0
        for i in range(len(diag)):
            q *= np.exp(-0.5 * (x[i] - p[i]) ** 2 / diag[i]) / np.sqrt(2 * np.pi * diag[i])
        total += q
    return total / len(points)


def test_silverman_needs_two_points():
    with pytest.raises(ValueError):
        silverman_bandwidth(ParticleCloud(np.zeros((1, 1))))


def test_silverman_degenerate_coordinate_names_it(rng):
    pts = np.column_stack([rng.normal(size=10), np.full(10, 3.0)])
    with pytest.raises(ValueError, match="coordinate 1"):
        silverman_bandwidth(ParticleCloud(pts))


def test_silverman_formula_d1(rng):
    pts = rng.normal(size=(100, 1))
    pts = pts / pts.std(ddof=1)          # unit sample sd
    h = (4.0 / 3.0) ** 0.2 * 100 ** (-0.2)
    bw = silverman_bandwidth(ParticleCloud(pts))
    assert bw.diag[0] == pytest.approx(h**2, rel=1e-12)


def test_silverman_scaling(rng):
    pts = rng.normal(size=(50, 2))
    a = silverman_bandwidth(ParticleCloud(pts)).diag
    b = silverman_bandwidth(ParticleCloud(2.0 * pts)).diag
    assert np.allclose(b, 4.0 * a, rtol=1e-12)


def test_kde_single_particle_at_origin():
    for d in (1, 2, 3):
        cloud = ParticleCloud(np.zeros((1, d)))
        bw = BandwidthMatrix(np.ones(d))
        assert kde_eval(cloud, bw, np.zeros(d)) == pytest.approx((2 * np.pi) ** (-d / 2), rel=1e-14)


def test_kde_far_query_is_zero():
    cloud = ParticleCloud(np.zeros((3, 1)))
    bw = BandwidthMatrix([0.01])
    assert kde_eval(cloud, bw, [50.0]) <= 1e-300


def test_kde_matches_naive_oracle(rng):
    for _ in range(20):
        d = rng.integers(1, 3)
        pts = rng.normal(size=(rng.integers(2, 9), d))
        diag = rng.uniform(0.1, 2.0, size=d)
        x = rng.normal(size=d)
        val = kde_eval(ParticleCloud(pts), BandwidthMatrix(diag), x)
        assert val == pytest.approx(naive_kde(pts, diag, x), rel=1e-12)


def test_kde_grid_matches_pointwise_1d(rng):
    # a 1-D grid has nothing to factor: it is the blocked pointwise evaluation
    pts = rng.normal(size=(6, 1))
    bw = BandwidthMatrix([0.3])
    grid = EvaluationGrid(((-2.0, 2.0, 7),))
    vals = kde_grid(ParticleCloud(pts), bw, grid)
    nodes = grid.nodes()
    for i in range(nodes.shape[0]):
        assert vals[i] == kde_eval(ParticleCloud(pts), bw, nodes[i])


def test_kde_grid_matches_pointwise(rng):
    pts = rng.normal(size=(6, 2))
    bw = BandwidthMatrix([0.3, 0.5])
    grid = EvaluationGrid(((-2.0, 2.0, 7), (-1.0, 1.0, 5)))
    vals = kde_grid(ParticleCloud(pts), bw, grid)
    nodes = grid.nodes()
    pointwise = [kde_eval(ParticleCloud(pts), bw, x) for x in nodes]
    naive = [naive_kde(pts, bw.diag, x) for x in nodes]
    np.testing.assert_allclose(vals, pointwise, rtol=1e-12, atol=0)
    np.testing.assert_allclose(vals, naive, rtol=1e-12, atol=0)


def test_kde_grid_two_point_grid_hits_endpoints(rng):
    pts = rng.normal(size=(4, 1))
    bw = BandwidthMatrix([0.4])
    grid = EvaluationGrid(((-1.0, 1.0, 2),))
    vals = kde_grid(ParticleCloud(pts), bw, grid)
    assert vals[0] == kde_eval(ParticleCloud(pts), bw, [-1.0])
    assert vals[1] == kde_eval(ParticleCloud(pts), bw, [1.0])


@pytest.mark.parametrize("d", [1, 2])
def test_kde_normalization(d, rng):
    pts = rng.normal(size=(40, d)) * 0.5
    cloud = ParticleCloud(pts)
    bw = silverman_bandwidth(cloud)
    half = 8 * np.sqrt(bw.diag.max()) + np.abs(pts).max()
    n = 1201 if d == 1 else 301
    grid = EvaluationGrid(tuple((-half, half, n) for _ in range(d)))
    vals = kde_grid(cloud, bw, grid)
    assert grid.trapezoid_weights() @ vals == pytest.approx(1.0, abs=1e-3)
    assert np.all(vals >= 0.0)


def test_kde_blocks_cover_every_query(rng):
    # queries spanning two and a half blocks: both edge rows of every block
    pts = rng.normal(size=(3000, 2))
    rows = blocks.BLOCK_PAIRS // pts.shape[0]
    bw = BandwidthMatrix([0.3, 0.5])
    xs = rng.normal(size=(2 * rows + rows // 2, 2))
    vals = GaussianKde(pts, bw).evaluate(xs)
    for start in range(0, xs.shape[0], rows):
        for i in (start, min(start + rows, xs.shape[0]) - 1):
            assert vals[i] == kde_eval(ParticleCloud(pts), bw, xs[i])


def test_kde_at_particles_matches_evaluate(rng):
    # N is not a multiple of the block rows, so the last block is partial
    pts = rng.normal(size=(3000, 2))
    assert pts.shape[0] % (blocks.BLOCK_PAIRS // pts.shape[0]) != 0
    kde = GaussianKde(pts, BandwidthMatrix([0.3, 0.5]))
    np.testing.assert_allclose(kde.at_particles(), kde.evaluate(pts), rtol=1e-12, atol=0)


def test_kde_blocks_stay_within_the_pair_cap(rng, monkeypatch):
    sizes = []
    eval_matrix = GaussianConvolutionKernel.eval_matrix

    def recording(self, xs, ys, out=None):
        sizes.append(np.atleast_2d(xs).shape[0] * np.atleast_2d(ys).shape[0])
        return eval_matrix(self, xs, ys, out=out)

    monkeypatch.setattr(GaussianConvolutionKernel, "eval_matrix", recording)
    grids = {1: EvaluationGrid(((-3.0, 3.0, 301),)),
             2: EvaluationGrid(((-3.0, 3.0, 121), (-2.0, 2.0, 91))),
             3: EvaluationGrid(((-3.0, 3.0, 40), (-2.0, 2.0, 30), (-1.0, 1.0, 10)))}
    for d, grid in grids.items():
        kde = GaussianKde(rng.normal(size=(5000, d)))
        xs = rng.normal(size=(200, d))
        for call in (lambda: kde.evaluate(xs), kde.at_particles, lambda: kde.on_grid(grid)):
            sizes.clear()
            tracemalloc.start()
            call()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert sizes and max(sizes) <= blocks.BLOCK_PAIRS
            # a few blocks' worth of temporaries, not a whole (nodes, N) product
            assert peak <= 8 * 8 * blocks.BLOCK_PAIRS
        # several particle blocks (and leading-node blocks in 3-D) against one sum
        np.testing.assert_allclose(kde.on_grid(grid), kde.evaluate(grid.nodes()),
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("shape", [(41,), (9, 7), (5, 4, 3)])
def test_kde_on_grid_matches_naive_sum(shape, shift, rng):
    d = len(shape)
    pts = rng.normal(size=(30, d)) * 0.5 + shift
    bw = BandwidthMatrix(rng.uniform(0.05, 0.3, size=d))
    grid = EvaluationGrid(tuple((shift - 2.0, shift + 2.0, n) for n in shape))
    vals = GaussianKde(pts, bw).on_grid(grid)
    naive = [naive_kde(pts, bw.diag, x) for x in grid.nodes()]
    np.testing.assert_allclose(vals, naive, rtol=1e-12, atol=0)


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kde_on_grid_far_nodes_underflow_to_zero(d, shift, rng):
    # the cloud fills [-0.1, 0.1]^d and h = 0.1: along each axis the nodes
    # -1.5 and 1.5 lie within 16 bandwidths of every particle, 4.5 and 7.5
    # at least 44 bandwidths out, where exp(-x²/2h²) underflows to 0
    pts = rng.uniform(-0.1, 0.1, size=(25, d)) + shift
    bw = BandwidthMatrix(np.full(d, 0.01))
    grid = EvaluationGrid(tuple((shift - 1.5, shift + 7.5, 4) for _ in range(d)))
    vals = GaussianKde(pts, bw).on_grid(grid)
    naive = np.array([naive_kde(pts, bw.diag, x) for x in grid.nodes()])
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    near = np.all(grid.nodes() - shift < 2.0, axis=1)
    assert np.all(naive[~near] == 0.0) and np.all(vals[~near] == 0.0)
    assert np.all(naive[near] > np.finfo(float).tiny)
    np.testing.assert_allclose(vals[near], naive[near], rtol=1e-12, atol=0)


def test_kde_permutation_invariance(rng):
    pts = rng.normal(size=(15, 2))
    perm = rng.permutation(15)
    bw = BandwidthMatrix([0.2, 0.7])
    x = rng.normal(size=2)
    assert kde_eval(ParticleCloud(pts), bw, x) == pytest.approx(
        kde_eval(ParticleCloud(pts[perm]), bw, x), rel=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        EvaluationGrid(((1.0, 0.0, 5),))
    with pytest.raises(ValueError):
        EvaluationGrid(((0.0, 1.0, 1),))
    with pytest.raises(ValueError):
        BandwidthMatrix([0.0])
