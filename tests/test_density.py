import numpy as np
import pytest

from fredholm_flow import (BandwidthMatrix, EvaluationGrid, GaussianKde, ParticleCloud,
                           kde_eval, kde_grid, silverman_bandwidth)


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


def test_kde_grid_matches_pointwise(rng):
    pts = rng.normal(size=(6, 2))
    bw = BandwidthMatrix([0.3, 0.5])
    grid = EvaluationGrid(((-2.0, 2.0, 7), (-1.0, 1.0, 5)))
    vals = kde_grid(ParticleCloud(pts), bw, grid)
    nodes = grid.nodes()
    for i in range(nodes.shape[0]):
        assert vals[i] == kde_eval(ParticleCloud(pts), bw, nodes[i])


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
    # 3000 particles give blocks of 1333 queries, so 2000 queries take two
    pts = rng.normal(size=(3000, 2))
    bw = BandwidthMatrix([0.3, 0.5])
    xs = rng.normal(size=(2000, 2))
    vals = GaussianKde(pts, bw).evaluate(xs)
    for i in (0, 1332, 1333, 1999):
        assert vals[i] == kde_eval(ParticleCloud(pts), bw, xs[i])


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
