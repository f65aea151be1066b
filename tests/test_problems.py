import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest

from fredholm_flow import EvaluationGrid, NumericalFailure, ParticleCloud, ReferenceMeasure
from fredholm_flow import artifacts, blocks, problems
from fredholm_flow import rng as _rng
from fredholm_flow.problems import (DELAY_MEAN_DAYS, build_initial_cloud, get_preset,
                                    incidence_pdf, preset_ct_phantom, preset_epidemiology_synthetic,
                                    preset_gaussian_mixture_1d, preset_highdim_mixture,
                                    preset_toy_gaussian)

from conftest import fresh_interpreter, gauss_pdf, grid_nodes


def quadrature_convolution(preset, y, lo, hi, n=20001):
    xs = np.linspace(lo, hi, n)[:, None]
    dens = preset.truth_pdf(xs)
    kvals = preset.kernel.eval_matrix(xs, np.atleast_2d(y))[0]
    return np.trapezoid(dens * kvals, xs[:, 0])


def test_mixture_observed_density_is_the_convolution():
    preset = preset_gaussian_mixture_1d()
    ys = np.linspace(0.1, 0.8, 20)
    for y in ys:
        quad = quadrature_convolution(preset, [y], -0.4, 1.4)
        assert abs(quad - preset.observed_pdf(np.array([[y]]))[0]) < 1e-6


def test_mixture_sampler_mean():
    preset = preset_gaussian_mixture_1d()
    n = 1_000_000
    sample = preset.sample_observations(n, seed=5)
    expected = 13.0 / 30.0
    mc_sd = sample.std() / np.sqrt(n)
    assert abs(sample.mean() - expected) < 3 * mc_sd


def test_mixture_truth_normalized_on_grid():
    preset = preset_gaussian_mixture_1d()
    grid = preset.metric_grid
    vals = preset.truth_pdf(grid_nodes(grid))
    assert grid.trapezoid_weights() @ vals == pytest.approx(1.0, abs=1e-9)


def test_toy_preset_defaults_match_study_settings():
    preset = preset_toy_gaussian()
    cfg = preset.solver
    assert cfg.alpha == 0.02
    assert cfg.gamma == 1e-2
    assert cfg.n_particles == 500
    assert cfg.minibatch == 500
    assert cfg.n_steps == 300
    assert preset.n_observations == 10_000
    assert preset.kernel.noise_sd[0] == 0.45


def test_toy_observed_matches_convolution():
    preset = preset_toy_gaussian()
    for y in (-0.8, 0.0, 0.5, 1.2):
        quad = quadrature_convolution(preset, [y], -6, 6)
        assert abs(quad - preset.observed_pdf(np.array([[y]]))[0]) < 1e-6


def test_highdim_first_marginal_is_1d_mixture(rng):
    preset = preset_highdim_mixture(1)
    pts = rng.normal(0.5, 0.3, size=(50, 1))
    expected = (gauss_pdf(pts[:, 0], 0.3, 0.07**2) / 3
                + 2 * gauss_pdf(pts[:, 0], 0.7, 0.1**2) / 3)
    assert np.allclose(preset.truth_pdf(pts), expected, rtol=1e-12)


def test_highdim_marginal_convolution():
    preset1 = preset_highdim_mixture(1)
    for y in (0.2, 0.5, 0.9):
        quad = quadrature_convolution(preset1, [y], -1.0, 2.0)
        assert abs(quad - preset1.observed_pdf(np.array([[y]]))[0]) < 1e-6


def test_highdim_reference_is_fixed():
    preset = preset_highdim_mixture(3)
    ref = preset.make_reference(None)
    assert np.allclose(ref.mean, 0.5)
    assert np.allclose(ref.variances, 0.0625)


def test_incidence_normalization():
    grid = EvaluationGrid(((0.0, 100.0, 20001),))
    vals = incidence_pdf(grid_nodes(grid))
    assert grid.trapezoid_weights() @ vals == pytest.approx(1.0, abs=1e-6)


def test_incidence_continuous_at_junction():
    # both branches equal one at the peak before normalization
    assert np.exp(-0.05 * (8.0 - 8.0) ** 2) == 1.0
    assert np.exp(-0.001 * (8.0 - 8.0) ** 2) == 1.0
    left = incidence_pdf(np.array([[8.0 - 1e-9]]))[0]
    right = incidence_pdf(np.array([[8.0 + 1e-9]]))[0]
    assert left == pytest.approx(right, rel=1e-6)


def test_normal_cdf_and_quantile_match_scipy():
    special = pytest.importorskip("scipy.special")
    for x in ((0.0 - problems._INC_PEAK) / problems._INC_SD1,
              (problems._INC_END - problems._INC_PEAK) / problems._INC_SD2, -3.0, 0.0, 1.7):
        assert problems._ndtr(x) == pytest.approx(special.ndtr(x), rel=1e-14, abs=0.0)
    # the q range of each incidence branch, as _sample_incidence draws it
    u = np.arange(10_000) / 10_000
    for q in (problems._INC_Q_LO + u * (0.5 - problems._INC_Q_LO),
              0.5 + u * (problems._INC_Q_HI - 0.5)):
        got = problems._ndtri(q).astype(float)
        np.testing.assert_allclose(got, special.ndtri(q), rtol=1e-14, atol=0.0)


def test_incidence_draws_stay_on_the_support():
    x = problems._sample_incidence(100_000, np.random.default_rng(3))
    assert x.shape == (100_000, 1)
    assert x.min() >= 0.0 and x.max() <= 100.0


def test_epidemiology_observation_mean_shift():
    preset = preset_epidemiology_synthetic(misspecified=False)
    n = 200_000
    xs = preset.sample_truth(n, seed=9)
    ys = preset.sample_observations(n, seed=9)
    mc_sd = ys.std() / np.sqrt(n)
    assert DELAY_MEAN_DAYS == pytest.approx(11.30705, abs=1e-9)
    assert abs(ys.mean() - (xs.mean() + DELAY_MEAN_DAYS)) < 4 * mc_sd


def test_epidemiology_misspecified_moves_cases_later():
    well = preset_epidemiology_synthetic(False).sample_observations(50_000, seed=4)
    mis = preset_epidemiology_synthetic(True).sample_observations(50_000, seed=4)
    moved = mis - well
    assert set(np.round(np.unique(moved), 9)) <= {0.0, 2.0}
    frac = (moved == 2.0).mean()
    assert 0.02 < frac < 0.25


def test_epidemiology_reference_rule():
    preset = preset_epidemiology_synthetic(False)
    obs = preset.sample_observations(5000, seed=1)
    ref = preset.make_reference(obs)
    assert ref.mean[0] == pytest.approx(obs.mean() - 9.0, rel=1e-12)
    assert ref.variances[0] == pytest.approx(obs.var(ddof=1), rel=1e-12)


def test_ct_observed_matches_2d_quadrature():
    preset = preset_ct_phantom()
    half = 1.5
    n = 601
    xs = np.linspace(-half, half, n)
    nodes = np.column_stack([m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")])
    dens = preset.truth_pdf(nodes).reshape(n, n)
    for y in ([0.3, 0.1], [2.0, -0.4], [4.4, 0.0]):
        kv = preset.kernel.eval_matrix(nodes, np.atleast_2d(y))[0].reshape(n, n)
        quad = np.trapezoid(np.trapezoid(dens * kv, xs, axis=1), xs)
        assert quad == pytest.approx(preset.observed_pdf(np.atleast_2d(y))[0], rel=1e-5)


def test_samplers_deterministic():
    for preset in (preset_gaussian_mixture_1d(), preset_epidemiology_synthetic(True),
                   preset_ct_phantom()):
        a = preset.sample_observations(200, seed=11)
        b = preset.sample_observations(200, seed=11)
        assert np.array_equal(a, b)


# sha256 of sample_observations(4, seed=2209) as little-endian float64 bytes;
# a changed hash is a changed observation stream, and every artifact moves with it
PINNED_STREAMS = [
    ("gaussian_mixture_1d", {}, "c4c3f39ecb10797dc8109dc1c96a69d80dd5f67904ca650331e4176ed4d3cdde"),
    ("toy_gaussian", {}, "20e18641560650efa3e20dc13eab6e40cc90f88236de512aecfeca77b585d194"),
    ("highdim_mixture", {"dim": 1},
     "1ea244747160300a345fd8fc12e576c1eff48ebd5c516710e43b0871ff2400c9"),
    ("highdim_mixture", {"dim": 3},
     "b435b14dd2fbef7461f373a23d8ce045ebbb8d9762b6892aae3ed5fca5531ec4"),
    ("highdim_mixture", {"dim": 10},
     "ce3f9b3a091c31b895596db78863d5604be26a8ee4cd7864e7a0af656fe3c3fd"),
    ("ct_phantom", {}, "246aa6ad51f4fc9b5b1496cafdd8874427dc3ab609b0694786c45895bc594749"),
    ("epidemiology_synthetic", {"misspecified": False},
     "281456d69e65a7bc1f74dd7d40a5d9b075c0f9f622c4092e5fa78084d2d72051"),
    # none of the four observations falls on a weekend day, so no case moves
    ("epidemiology_synthetic", {"misspecified": True},
     "281456d69e65a7bc1f74dd7d40a5d9b075c0f9f622c4092e5fa78084d2d72051"),
]


@pytest.mark.parametrize("name, options, digest", PINNED_STREAMS,
                         ids=["-".join([n, *(f"{k}={v}" for k, v in o.items())])
                              for n, o, _ in PINNED_STREAMS])
def test_preset_observation_streams_are_pinned(name, options, digest):
    points = get_preset(name, **options).sample_observations(4, seed=2209)
    data = np.ascontiguousarray(points, dtype="<f8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def one_call_truth(weights, means, sds, dim, m, seed):
    """The mixture sampler's formula in one call: every label, then one (m, dim) draw."""
    gen = _rng.stream(seed, _rng.ROLE_OBSERVATIONS)
    thresholds = np.cumsum(weights)[:-1]
    label = np.searchsorted(thresholds, gen.random(m), side="right") \
        if thresholds.size else np.zeros(m, dtype=int)
    means = np.asarray(means, dtype=float).reshape(len(weights), -1)
    sds = np.asarray(sds, dtype=float)
    return means[label] + sds[label, None] * gen.standard_normal((m, dim))


def one_call_noise(m, dim, seed):
    return _rng.stream(_rng.derive_seed(seed, 1), _rng.ROLE_OBSERVATIONS).standard_normal((m, dim))


MIXTURES = [
    # preset, its mixture (weights, means, sds, dim), its noise sd (None: not additive)
    (preset_highdim_mixture(10), ((1 / 3, 2 / 3), (0.3, 0.7), (0.07, 0.1), 10), 0.15),
    (preset_toy_gaussian(), ((1.0,), (0.0,), (0.43,), 1), 0.45),
    (preset_ct_phantom(), ((0.5, 0.5), ((-0.3, -0.25), (0.35, 0.2)), (0.12, 0.18), 2), None),
]


@pytest.mark.parametrize("preset, mixture, noise_sd", MIXTURES,
                         ids=[preset.name for preset, _, _ in MIXTURES])
def test_row_blocked_draws_match_one_call(preset, mixture, noise_sd):
    # the samplers write several row blocks; each stream is drawn in the same
    # order as one call, so the draws are the same bits
    dim = mixture[-1]
    m = 3 * blocks.BLOCK_PAIRS // dim + 7
    assert len(blocks.row_blocks(m, dim)) > 3
    truth = one_call_truth(*mixture, m, 2209)
    assert np.array_equal(preset.sample_truth(m, 2209), truth)
    if noise_sd is not None:
        observed = truth + noise_sd * one_call_noise(m, dim, 2209)
        assert np.array_equal(preset.sample_observations(m, 2209), observed)


def test_highdim_observations_hold_their_output_and_one_row_block():
    preset, m = preset_highdim_mixture(10), 100_000
    block = max(r.stop - r.start for r in blocks.row_blocks(m, 10))
    preset.sample_observations(10, seed=1)
    tracemalloc.start()
    points = preset.sample_observations(m, seed=2209)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the (m, 10) result and one (block, 10) draw of noise, with a few small
    # arrays and objects: no whole-sample temporary
    assert peak <= points.nbytes + 8 * 10 * block + 2**16


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmRSS")
def test_highdim_observations_leave_no_freed_noise_block_resident():
    # tracemalloc sees a freed block go, not whether the allocator hands its pages
    # back: a fresh array per noise block left the later blocks resident on the
    # heap (2.1 MB past the sample).  A new interpreter, so that no earlier test
    # has moved the allocator's thresholds
    code = ("import pathlib, re; "
            "from fredholm_flow.problems import preset_highdim_mixture; "
            "rss = lambda: 1024 * int(re.search(r'VmRSS:\\s+(\\d+) kB', "
            "pathlib.Path('/proc/self/status').read_text()).group(1)); "
            "before = rss(); "
            "points = preset_highdim_mixture(10).sample_observations(100_000, 2209); "
            "print(rss() - before, points.nbytes)")
    grown, sample = map(int, fresh_interpreter(code)[0].split())
    assert grown <= sample + 2**20


def test_finite_check_holds_no_whole_array_temporary(rng):
    points = rng.normal(size=(100_000, 10))
    tracemalloc.start()
    ParticleCloud(points)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 2**16   # a bool mask of the sample would take 1 MB
    for bad in (np.nan, np.inf, -np.inf):
        points[4321, 7] = bad
        with pytest.raises(NumericalFailure, match="index=4321"):
            ParticleCloud(points)


def test_init_modes():
    preset = preset_gaussian_mixture_1d()
    obs = preset.sample_observations(100, seed=0)
    ref = preset.make_reference(obs)
    cfg = preset.solver
    for mode in ("auto", "observations", "reference"):
        cloud = build_initial_cloud(preset, cfg, obs, ref, mode=mode)
        assert cloud.points.shape == (cfg.n_particles, 1)
    point = build_initial_cloud(preset, cfg, obs, ref, mode="point", point=[0.5])
    assert np.all(point.points == 0.5)
    box = build_initial_cloud(preset, cfg, obs, ref, mode="uniform", box=[[0.0, 1.0]])
    assert box.points.min() >= 0.0 and box.points.max() <= 1.0
    with pytest.raises(ValueError):
        build_initial_cloud(preset, cfg, obs, ref, mode="nope")


def test_epidemiology_init_applies_shift():
    preset = preset_epidemiology_synthetic(False)
    obs = preset.sample_observations(3000, seed=2)
    ref = preset.make_reference(obs)
    cloud = build_initial_cloud(preset, preset.solver, obs, ref)
    assert cloud.points.mean() == pytest.approx(obs.mean() - 9.0, abs=1.0)


def test_ct_init_draws_from_reference():
    preset = preset_ct_phantom()
    obs = preset.sample_observations(500, seed=2)
    ref = preset.make_reference(obs)
    cloud = build_initial_cloud(preset, preset.solver, obs, ref)
    assert cloud.points.shape == (preset.solver.n_particles, 2)
    assert abs(cloud.points.mean()) < 0.05


def test_get_preset_registry():
    assert get_preset("highdim_mixture", dim=3).dim == 3
    with pytest.raises(ValueError):
        get_preset("nope")


def test_load_observations_csv(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("0.1,0.2\n0.3,0.4\n")
    assert artifacts.read_points_csv(path).shape == (2, 2)


@pytest.mark.parametrize("content", ["", "\n\n", "y_1,y_2\n", "0.1,0.2\n0.3\n",
                                     "0.1\nabc\n", "0.1\nnan\n", "y_1\n0.1\n-inf\n"],
                         ids=["empty", "blank", "header-only", "ragged", "non-numeric", "nan",
                              "inf"])
def test_load_observations_csv_rejects_bad_files(tmp_path, content):
    path = tmp_path / "obs.csv"
    path.write_text(content)
    # observation files and clouds share this reader, and its error names the file
    with pytest.raises(ValueError, match=re.escape(str(path))):
        artifacts.read_points_csv(path)


def test_ct_reconvolution_grid_covers_the_observations():
    # the closed-form observed density is the oracle on the (phi, xi) observation grid
    from fredholm_flow.density import GaussianKde
    from fredholm_flow.metrics import ise, reconvolve
    preset = preset_ct_phantom()
    grid = preset.observation_grid
    truth = preset.observed_pdf(grid_nodes(grid))
    assert grid.trapezoid_weights() @ truth == pytest.approx(1.0, abs=1e-9)
    scale = ise(grid, np.zeros_like(truth), truth)
    # reconvolved truth draws: Monte Carlo error only (0.0024 measured at N = 1000)
    assert ise(grid, reconvolve(preset.sample_truth(1000, 3), preset.kernel, grid), truth) \
        < 0.01 * scale
    # observation KDE: 0.045 measured at M = 20000, most of it the phi-edge bias
    # the preset docstring documents (about half the density at phi = 0)
    kde = GaussianKde(preset.sample_observations(20_000, 5)).on_grid(grid)
    assert ise(grid, kde, truth) < 0.1 * scale
    phi = grid_nodes(grid)[:, 0]
    edge, middle = phi == 0.0, np.abs(phi - np.pi) < 0.05
    assert kde[edge].sum() < 0.7 * truth[edge].sum()
    assert kde[middle].sum() == pytest.approx(truth[middle].sum(), rel=0.05)


def test_truth_mass_on_metric_grids():
    presets = [preset_gaussian_mixture_1d(), preset_toy_gaussian(),
               preset_highdim_mixture(1), preset_highdim_mixture(2),
               preset_epidemiology_synthetic(False), preset_ct_phantom()]
    for preset in presets:
        grid = preset.metric_grid
        mass = grid.trapezoid_weights() @ preset.truth_pdf(grid_nodes(grid))
        assert abs(mass - 1.0) < 1e-2, preset.name
