import tracemalloc

import numpy as np
import pytest

from fredholm_flow import (EvaluationGrid, GaussianConvolutionKernel,
                           GaussianKde, ParticleCloud, blocks, density, silverman_bandwidth)

from conftest import grid_nodes


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
    assert bw[0] == pytest.approx(h**2, rel=1e-12)


def test_silverman_scaling(rng):
    pts = rng.normal(size=(50, 2))
    a = silverman_bandwidth(ParticleCloud(pts))
    b = silverman_bandwidth(ParticleCloud(2.0 * pts))
    assert np.allclose(b, 4.0 * a, rtol=1e-12)


def test_kde_single_particle_at_origin():
    for d in (1, 2, 3):
        cloud = ParticleCloud(np.zeros((1, d)))
        bw = np.ones(d)
        assert GaussianKde(cloud, bw).evaluate(np.zeros(d))[0] == pytest.approx(
            (2 * np.pi) ** (-d / 2), rel=1e-14)


def test_kde_far_query_is_zero():
    cloud = ParticleCloud(np.zeros((3, 1)))
    bw = [0.01]
    assert GaussianKde(cloud, bw).evaluate([50.0])[0] <= 1e-300


def test_kde_matches_naive_oracle(rng):
    for _ in range(20):
        d = rng.integers(1, 3)
        pts = rng.normal(size=(rng.integers(2, 9), d))
        diag = rng.uniform(0.1, 2.0, size=d)
        x = rng.normal(size=d)
        val = GaussianKde(ParticleCloud(pts), diag).evaluate(x)[0]
        assert val == pytest.approx(naive_kde(pts, diag, x), rel=1e-12)


def test_kde_grid_matches_pointwise_1d(rng):
    # a 1-D grid has nothing to factor: it is the blocked pointwise evaluation
    pts = rng.normal(size=(6, 1))
    bw = [0.3]
    grid = EvaluationGrid(((-2.0, 2.0, 7),))
    vals = GaussianKde(ParticleCloud(pts), bw).on_grid(grid)
    nodes = grid_nodes(grid)
    for i in range(nodes.shape[0]):
        assert vals[i] == GaussianKde(ParticleCloud(pts), bw).evaluate(nodes[i])[0]


def test_kde_grid_matches_pointwise(rng):
    pts = rng.normal(size=(6, 2))
    bw = [0.3, 0.5]
    grid = EvaluationGrid(((-2.0, 2.0, 7), (-1.0, 1.0, 5)))
    vals = GaussianKde(ParticleCloud(pts), bw).on_grid(grid)
    nodes = grid_nodes(grid)
    pointwise = [GaussianKde(ParticleCloud(pts), bw).evaluate(x)[0] for x in nodes]
    naive = [naive_kde(pts, bw, x) for x in nodes]
    np.testing.assert_allclose(vals, pointwise, rtol=1e-12, atol=0)
    np.testing.assert_allclose(vals, naive, rtol=1e-12, atol=0)


def test_kde_grid_two_point_grid_hits_endpoints(rng):
    pts = rng.normal(size=(4, 1))
    bw = [0.4]
    grid = EvaluationGrid(((-1.0, 1.0, 2),))
    vals = GaussianKde(ParticleCloud(pts), bw).on_grid(grid)
    assert vals[0] == GaussianKde(ParticleCloud(pts), bw).evaluate([-1.0])[0]
    assert vals[1] == GaussianKde(ParticleCloud(pts), bw).evaluate([1.0])[0]


@pytest.mark.parametrize("d", [1, 2])
def test_kde_normalization(d, rng):
    pts = rng.normal(size=(40, d)) * 0.5
    cloud = ParticleCloud(pts)
    bw = silverman_bandwidth(cloud)
    half = 8 * np.sqrt(bw.max()) + np.abs(pts).max()
    n = 1201 if d == 1 else 301
    grid = EvaluationGrid(tuple((-half, half, n) for _ in range(d)))
    vals = GaussianKde(cloud, bw).on_grid(grid)
    assert grid.trapezoid_weights() @ vals == pytest.approx(1.0, abs=1e-3)
    assert np.all(vals >= 0.0)


def test_kde_blocks_cover_every_query(rng):
    # queries spanning two and a half tasks, each swept in two blocks whose k
    # and temporary fit the arena: both edge rows of every block
    pts = rng.normal(size=(3000, 2))
    rows = blocks.BLOCK_PAIRS // pts.shape[0]
    bw = [0.3, 0.5]
    xs = rng.normal(size=(2 * rows + rows // 2, 2))
    vals = GaussianKde(pts, bw).evaluate(xs)
    cut = [r for task in blocks.drift_blocks(xs.shape[0], pts.shape[0], 2) for r in task]
    assert len(cut) == 6 and max(r.stop - r.start for r in cut) <= rows // 2
    for r in cut:
        for i in (r.start, r.stop - 1):
            assert vals[i] == GaussianKde(ParticleCloud(pts), bw).evaluate(xs[i])[0]


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kde_evaluate_is_the_row_mean_of_one_matrix(d, shift, rng):
    # three tasks of queries, each cut into as many blocks as a block holds
    # arrays (k, and at d >= 2 one temporary), so that they fit the arena:
    # every query's mean is the same bits as the mean of its row of the
    # whole (queries, N) matrix
    pts = rng.normal(size=(1000, d)) + shift
    xs = 1.5 * rng.normal(size=(700, d)) + shift
    kde = GaussianKde(pts)
    arrays = kde._kernel.arrays[0]
    cut = blocks.drift_blocks(700, 1000, arrays)
    assert [len(task) for task in cut] == [arrays] * 3
    assert all((r.stop - r.start) * 1000 * arrays <= blocks.BLOCK_PAIRS
               for task in cut for r in task)
    assert np.array_equal(kde.evaluate(xs), kde._kernel.eval_matrix(kde.points, xs).mean(axis=1))
    assert kde.evaluate(xs[:0]).shape == (0,)


def test_kde_at_particles_matches_evaluate(rng):
    # N is not a multiple of the block rows, so the last block is partial
    pts = rng.normal(size=(3000, 2))
    assert pts.shape[0] % (blocks.BLOCK_PAIRS // pts.shape[0]) != 0
    kde = GaussianKde(pts, [0.3, 0.5])
    np.testing.assert_allclose(kde.at_particles(), kde.evaluate(pts), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [2, 3, 500])
def test_kde_at_particles_cuts_a_one_block_square_in_two(n, rng, monkeypatch):
    # N² fits one task, yet the triangle is swept in two row blocks: at
    # N = 500 three quarters of the square, not all of it
    assert len(blocks.row_blocks(n, n)) == 1
    pairs = []
    eval_matrix = GaussianConvolutionKernel.eval_matrix

    def counting(self, xs, ys, out=None, plane=None, work=None):
        k = eval_matrix(self, xs, ys, out, plane, work)
        pairs.append(k.size)
        return k

    pts = rng.normal(size=(n, 2))
    kde = GaussianKde(pts, [0.3, 0.5])
    with monkeypatch.context() as patch:
        patch.setattr(GaussianConvolutionKernel, "eval_matrix", counting)
        got = kde.at_particles()
    assert len(pairs) == 2 and sum(pairs) < 0.8 * n * n
    np.testing.assert_allclose(got, kde.evaluate(pts), rtol=1e-12, atol=0)


def test_kde_blocks_stay_within_the_pair_cap(rng, monkeypatch):
    sizes = []
    eval_matrix = GaussianConvolutionKernel.eval_matrix

    def recording(self, xs, ys, out=None, plane=None, work=None):
        k = eval_matrix(self, xs, ys, out, plane, work)
        sizes.append(k.size)
        return k

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
            # a block's k and its temporary (none at d = 1) fit the arena of
            # BLOCK_PAIRS floats
            assert sizes and max(sizes) * kde._kernel.arrays[0] <= blocks.BLOCK_PAIRS
            # a few blocks' worth of temporaries, not a whole (nodes, N) product
            assert peak <= 8 * 8 * blocks.BLOCK_PAIRS
        # the grid readout at d >= 2 holds a few factor blocks and leading-node
        # products of an eighth of a workspace each: less than one workspace
        if d >= 2:
            tracemalloc.start()
            kde.on_grid(grid)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= 8 * blocks.BLOCK_PAIRS
        # several particle blocks (and leading-node blocks in 3-D) against one sum
        np.testing.assert_allclose(kde.on_grid(grid), kde.evaluate(grid_nodes(grid)),
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("shape", [(41,), (9, 7), (5, 4, 3)])
def test_kde_on_grid_matches_naive_sum(shape, shift, rng):
    d = len(shape)
    pts = rng.normal(size=(30, d)) * 0.5 + shift
    bw = rng.uniform(0.05, 0.3, size=d)
    grid = EvaluationGrid(tuple((shift - 2.0, shift + 2.0, n) for n in shape))
    vals = GaussianKde(pts, bw).on_grid(grid)
    naive = [naive_kde(pts, bw, x) for x in grid_nodes(grid)]
    np.testing.assert_allclose(vals, naive, rtol=1e-12, atol=0)


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kde_on_grid_far_nodes_underflow_to_zero(d, shift, rng):
    # the cloud fills [-0.1, 0.1]^d and h = 0.1: along each axis the nodes
    # -1.5 and 1.5 lie within 16 bandwidths of every particle, 4.5 and 7.5
    # at least 44 bandwidths out, where exp(-x²/2h²) underflows to 0
    pts = rng.uniform(-0.1, 0.1, size=(25, d)) + shift
    bw = np.full(d, 0.01)
    grid = EvaluationGrid(tuple((shift - 1.5, shift + 7.5, 4) for _ in range(d)))
    vals = GaussianKde(pts, bw).on_grid(grid)
    naive = np.array([naive_kde(pts, bw, x) for x in grid_nodes(grid)])
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    near = np.all(grid_nodes(grid) - shift < 2.0, axis=1)
    assert np.all(naive[~near] == 0.0) and np.all(vals[~near] == 0.0)
    assert np.all(naive[near] > np.finfo(float).tiny)
    np.testing.assert_allclose(vals[near], naive[near], rtol=1e-12, atol=0)


def test_kde_permutation_invariance(rng):
    pts = rng.normal(size=(15, 2))
    perm = rng.permutation(15)
    bw = [0.2, 0.7]
    x = rng.normal(size=2)
    assert GaussianKde(ParticleCloud(pts), bw).evaluate(x)[0] == pytest.approx(
        GaussianKde(ParticleCloud(pts[perm]), bw).evaluate(x)[0], rel=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        EvaluationGrid(((1.0, 0.0, 5),))
    with pytest.raises(ValueError):
        EvaluationGrid(((0.0, 1.0, 1),))


@pytest.mark.parametrize("diag", [[np.nan, 0.5], [0.3, 0.0], [-0.3, 0.5]],
                         ids=["nan", "zero", "negative"])
def test_kde_rejects_a_bandwidth_that_is_not_positive(diag, rng):
    # before its square root: the suite turns an invalid-value warning into an error
    with pytest.raises(ValueError, match="bandwidth"):
        GaussianKde(rng.normal(size=(5, 2)), diag)
