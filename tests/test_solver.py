import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fredholm_flow import (GaussianConvolutionKernel, KernelModel, NumericalFailure,
                           ObservationSample, ParticleCloud, ReferenceMeasure,
                           SolverConfig, draw_minibatch, drift_empirical, run,
                           tamed_step)
from fredholm_flow.rng import ROLE_NOISE, stream


class ConstantInXKernel(KernelModel):
    """k(x, y) = N(y; 0, 1) regardless of x; its x-gradient vanishes."""

    def __init__(self, dim):
        self.dim_x = dim
        self.dim_y = dim
        self.bound_M = (2 * np.pi) ** (-dim / 2)

    def eval_matrix(self, xs, ys, out=None, plane=None):
        xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
        if xs.ndim == ys.ndim == 2:   # particle-major
            xs, ys = xs[:, None], ys[None]
        dens = np.exp(-0.5 * np.sum(ys**2, axis=-1)) * (2 * np.pi) ** (-self.dim_y / 2)
        out = np.empty(np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])) if out is None else out
        out[:] = dens
        return out

    def weighted_grad1(self, xs, ys, k, plane, w):
        return np.zeros((k.shape[1], self.dim_x))


def test_drift_reduces_to_reference_pull(rng):
    kernel = ConstantInXKernel(2)
    ref = ReferenceMeasure.gaussian([0.0, 0.0], [1.0, 1.0])
    cloud = ParticleCloud(rng.normal(size=(7, 2)))
    batch = ObservationSample(rng.normal(size=(5, 2)))
    alpha = 0.37
    drift = drift_empirical(cloud, batch, kernel, ref, alpha, eta=0.0)
    assert np.allclose(drift, -alpha * cloud.points, rtol=1e-14)


def test_single_particle_score_identity(rng):
    sigma = 0.21
    kernel = GaussianConvolutionKernel([sigma])
    ref = ReferenceMeasure.flat(1)
    x, y = 0.4, 1.1
    cloud = ParticleCloud([[x]])
    batch = ObservationSample([[y]])
    drift = drift_empirical(cloud, batch, kernel, ref, alpha=0.5, eta=0.0)
    assert drift[0, 0] == pytest.approx((y - x) / sigma**2, rel=1e-12)


def test_drift_at_zero_eta_where_every_k_underflows_is_the_reference_pull():
    # k(0, 100) underflows to 0 at σ = 0.01: the floor keeps the weights finite,
    # and the zero gradients leave only −α∇U
    kernel = GaussianConvolutionKernel([0.01])
    ref = ReferenceMeasure.gaussian([0.2], [1.0])
    cloud = ParticleCloud(np.zeros((4, 1)))
    batch = ObservationSample(np.full((3, 1), 100.0))
    drift = drift_empirical(cloud, batch, kernel, ref, alpha=0.3, eta=0.0)
    assert np.all(np.isfinite(drift))
    assert np.array_equal(drift, -0.3 * ref.grad_u(cloud.points))


def test_drift_matches_triple_loop_oracle(rng):
    kernel = GaussianConvolutionKernel([0.4, 0.8])
    ref = ReferenceMeasure.gaussian([0.1, -0.2], [0.7, 1.3])
    alpha, eta = 0.15, 0.01
    xs = rng.normal(size=(5, 2))
    ys = rng.normal(size=(4, 2))
    drift = drift_empirical(ParticleCloud(xs), ObservationSample(ys), kernel, ref,
                            alpha, eta)
    for k in range(5):
        row = np.zeros(2)
        for j in range(4):
            lam = sum(kernel.eval(xs[l], ys[j]) for l in range(5)) / 5
            row += kernel.grad1(xs[k], ys[j]) / (lam + eta)
        row = row / 4 - alpha * ref.grad_u(xs[k])
        assert np.allclose(drift[k], row, rtol=1e-12)


def test_drift_linear_growth_bound(rng):
    # with eta > 0 each row is bounded by M/eta plus the reference pull
    kernel = GaussianConvolutionKernel([0.3])
    ref = ReferenceMeasure.gaussian([0.4], [0.5])
    alpha, eta = 0.2, 0.05
    for _ in range(50):
        xs = rng.normal(size=(6, 1)) * 3
        ys = rng.normal(size=(5, 1)) * 3
        drift = drift_empirical(ParticleCloud(xs), ObservationSample(ys), kernel, ref,
                                alpha, eta)
        bound = (kernel.bound_M / eta
                 + alpha * ref.lipschitz * np.linalg.norm(xs, axis=1)
                 + alpha * np.linalg.norm(ref.grad_u(np.zeros(1))))
        assert np.all(np.linalg.norm(drift, axis=1) <= bound + 1e-9)


def test_tamed_step_pure_diffusion(rng):
    cloud = ParticleCloud(rng.normal(size=(6, 2)))
    noise = rng.standard_normal((6, 2))
    gamma, alpha = 0.05, 0.3
    out = tamed_step(cloud, np.zeros((6, 2)), gamma, alpha, noise)
    assert np.allclose(out.points, cloud.points + np.sqrt(2 * alpha * gamma) * noise)
    assert out.step_index == cloud.step_index + 1


def test_tamed_step_hand_value():
    cloud = ParticleCloud([[0.0, 0.0]])
    drift = np.array([[3.0, 4.0]])
    out = tamed_step(cloud, drift, gamma=0.1, alpha=1.0, noise=np.zeros((1, 2)))
    assert np.allclose(out.points, [[0.2, 4.0 / 15.0]], rtol=1e-15)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 2), elements=st.floats(-1e6, 1e6)),
       st.floats(1e-4, 10.0))
# subnormal squares: sqrt(x² + y²) is off by 2e-10 relative there, hypot is not
@example(np.array([[3.8e-158, 3.8e-158], [0.0, 0.0], [0.0, 0.0]]), 0.5)
@example(np.array([[3.8e-158, 0.0], [0.0, 0.0], [0.0, 0.0]]), 2.0)
def test_taming_bound_property(drift, gamma):
    cloud = ParticleCloud(np.zeros((3, 2)))
    out = tamed_step(cloud, drift, gamma, alpha=0.0, noise=np.zeros((3, 2)))
    inc = np.hypot.reduce(out.points - cloud.points, axis=1)
    norms = np.hypot.reduce(drift, axis=1)
    assert np.all(inc < 1.0)
    assert np.all(inc <= gamma * norms * (1.0 + 1e-12) + 1e-300)
    assert np.allclose(inc, gamma * norms / (1.0 + gamma * norms), rtol=1e-12, atol=1e-300)


def test_minibatch_full_sample_when_m_large(rng):
    full = ObservationSample(rng.normal(size=(4, 1)))
    out = draw_minibatch(full, 10, stream(0, 99))
    assert out is full
    out = draw_minibatch(full, 4, stream(0, 99))
    assert out is full


def test_minibatch_without_replacement_distinct(rng):
    full = ObservationSample(np.arange(20.0)[:, None])
    batch = draw_minibatch(full, 8, stream(3, 99))
    assert batch.n_observations == 8
    assert len(np.unique(batch.points)) == 8


def test_minibatch_reproducible():
    full = ObservationSample(np.arange(50.0)[:, None])
    a = draw_minibatch(full, 10, stream(7, 123))
    b = draw_minibatch(full, 10, stream(7, 123))
    assert np.array_equal(a.points, b.points)


def _small_setup(seed=0, n=30, steps=8):
    kernel = GaussianConvolutionKernel([0.25])
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    config = SolverConfig(alpha=0.1, gamma=0.01, n_particles=n, n_steps=steps, seed=seed)
    gen = np.random.default_rng(11)
    init = ParticleCloud(gen.normal(size=(n, 1)))
    obs = ObservationSample(gen.normal(size=(60, 1)))
    return config, kernel, ref, init, obs


def test_run_zero_steps_returns_init():
    config, kernel, ref, init, obs = _small_setup(steps=0)
    cloud, trace = run(config, kernel, ref, init, obs)
    assert np.array_equal(cloud.points, init.points)
    assert len(trace) == 1


class ColumnCountingKernel(GaussianConvolutionKernel):
    """The Gaussian kernel, recording the batch size of every ``eval_matrix`` call."""

    def __init__(self, noise_sd):
        super().__init__(noise_sd)
        self.columns = []

    def eval_matrix(self, xs, ys, out=None, plane=None):
        self.columns.append(np.atleast_2d(ys).shape[0])
        return super().eval_matrix(xs, ys, out, plane)


def test_run_zero_steps_scores_the_step_zero_batch():
    # m = 30 of M = 60: the only row reads the batch that row 0 of a longer run reads
    config, kernel, ref, init, obs = _small_setup(steps=0)
    counting = ColumnCountingKernel(kernel.noise_sd)
    _, trace_0 = run(config, counting, ref, init, obs)
    assert counting.columns == [config.batch_size(obs.n_observations)] == [30]
    _, trace_1 = run(dataclasses.replace(config, n_steps=1), kernel, ref, init, obs)
    for name in ("g_hat", "g_hat_data", "g_hat_kl"):
        assert np.isfinite(trace_0.column(name)[0])
        assert np.array_equal(trace_0.column(name), trace_1.column(name)[:1])


def test_run_deterministic_bitwise():
    config, kernel, ref, init, obs = _small_setup()
    cloud_a, trace_a = run(config, kernel, ref, init, obs)
    cloud_b, trace_b = run(config, kernel, ref, init, obs)
    assert np.array_equal(cloud_a.points, cloud_b.points)
    assert np.array_equal(trace_a.column("g_hat"), trace_b.column("g_hat"), equal_nan=True)
    assert np.array_equal(trace_a.column("drift_max"), trace_b.column("drift_max"),
                          equal_nan=True)


def test_run_trace_length_bound():
    config, kernel, ref, init, obs = _small_setup(steps=8)
    _, trace = run(config, kernel, ref, init, obs)
    assert len(trace) == config.n_steps + 1
    assert np.array_equal(trace.column("step"), np.arange(config.n_steps + 1))


def test_run_exchangeability(rng):
    config, kernel, ref, init, obs = _small_setup()
    n, d = init.points.shape
    perm = rng.permutation(n)

    def noise_source(step):
        return stream(config.seed, ROLE_NOISE, step).standard_normal((n, d))

    cloud_a, _ = run(config, kernel, ref, init, obs, noise_source=noise_source)
    cloud_b, _ = run(config, kernel, ref, ParticleCloud(init.points[perm]), obs,
                     noise_source=lambda step: noise_source(step)[perm])
    assert np.allclose(cloud_b.points, cloud_a.points[perm], rtol=1e-12, atol=1e-14)


def test_run_early_stopping_truncates_trace():
    config, kernel, ref, init, obs = _small_setup(steps=200)
    config = dataclasses.replace(config, stop_tol=0.5, stop_window=3)
    _, trace = run(config, kernel, ref, init, obs)
    assert len(trace) < 201


def test_run_rejects_wrong_particle_count():
    config, kernel, ref, init, obs = _small_setup()
    bad = dataclasses.replace(config, n_particles=init.n_particles + 1)
    with pytest.raises(ValueError):
        run(bad, kernel, ref, init, obs)


def test_non_finite_cloud_is_hard_failure():
    with pytest.raises(NumericalFailure) as err:
        ParticleCloud(np.array([[0.0], [np.inf]]))
    assert err.value.index == 1


def test_ou_stationary_variance():
    # kernel constant in x: the dynamics is an OU process with drift -alpha x
    # and diffusion sqrt(2 alpha); its stationary variance is 1 for a unit
    # gaussian reference
    kernel = ConstantInXKernel(1)
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    config = SolverConfig(alpha=0.5, gamma=0.02, n_particles=600, n_steps=1500, seed=5)
    gen = np.random.default_rng(2)
    init = ParticleCloud(gen.normal(size=(600, 1)))
    obs = ObservationSample(gen.normal(size=(50, 1)))
    variances = []
    run(config, kernel, ref, init, obs,
        monitor=lambda step, cloud, est: variances.append(cloud.points.var())
        if step >= 700 else None)
    assert np.mean(variances) == pytest.approx(1.0, rel=0.10)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=-0.1, gamma=0.1, n_particles=10, n_steps=1)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.1, gamma=0.0, n_particles=10, n_steps=1)


def test_drift_failure_carries_particle_index():
    class BrokenKernel(ConstantInXKernel):
        def weighted_grad1(self, xs, ys, k, plane, w):
            out = super().weighted_grad1(xs, ys, k, plane, w)
            out[2] = np.nan
            return out

    kernel = BrokenKernel(1)
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    cloud = ParticleCloud(np.zeros((5, 1)))
    batch = ObservationSample(np.zeros((3, 1)))
    with pytest.raises(NumericalFailure) as err:
        drift_empirical(cloud, batch, kernel, ref, alpha=0.1, eta=0.0)
    assert err.value.index == 2


def test_tamed_step_non_finite_noise_fails():
    cloud = ParticleCloud(np.zeros((2, 1)))
    noise = np.array([[0.0], [np.inf]])
    with pytest.raises(NumericalFailure):
        tamed_step(cloud, np.zeros((2, 1)), 0.1, 0.5, noise)


def test_trace_columns_are_read_only_views():
    config, kernel, ref, init, obs = _small_setup(steps=3)
    _, trace = run(config, kernel, ref, init, obs)
    assert trace.rows.shape == (4, len(trace.columns))
    with pytest.raises(ValueError):
        trace.column("g_hat")[0] = 0.0
    with pytest.raises(KeyError, match="mean_1"):
        trace.column("g_total")
