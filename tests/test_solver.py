import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fredholm_flow import (GaussianConvolutionKernel, KernelModel, NumericalFailure,
                           ReferenceMeasure, SolverConfig, draw_minibatch, drift_empirical,
                           run, tamed_step)
from fredholm_flow import solver
from fredholm_flow.problems import build_initial_cloud, get_preset
from fredholm_flow.rng import ROLE_NOISE, stream


class ConstantInXKernel(KernelModel):
    """k(x, y) = N(y; 0, 1) regardless of x; its x-gradient vanishes."""

    def __init__(self, dim):
        self.dim_x = dim
        self.dim_y = dim
        self.bound_M = (2 * np.pi) ** (-dim / 2)

    def eval_matrix(self, xs, ys, out=None, plane=None, work=None):
        xs, ys = np.atleast_2d(xs), np.atleast_2d(ys)
        dens = np.exp(-0.5 * np.sum(ys**2, axis=1)) * (2 * np.pi) ** (-self.dim_y / 2)
        out = np.empty((ys.shape[0], xs.shape[0])) if out is None else out
        out[:] = dens[:, None]
        return out

    def weighted_grad1(self, ys, k, plane, w, work=None):
        return np.zeros((k.shape[1], self.dim_x))


def test_drift_reduces_to_reference_pull(rng):
    kernel = ConstantInXKernel(2)
    ref = ReferenceMeasure.gaussian([0.0, 0.0], [1.0, 1.0])
    cloud = rng.normal(size=(7, 2))
    batch = rng.normal(size=(5, 2))
    alpha = 0.37
    drift = drift_empirical(cloud, batch, kernel, ref, alpha, eta=0.0)
    assert np.allclose(drift, -alpha * cloud, rtol=1e-14)


def test_single_particle_score_identity(rng):
    sigma = 0.21
    kernel = GaussianConvolutionKernel([sigma])
    ref = ReferenceMeasure.flat(1)
    x, y = 0.4, 1.1
    cloud = [[x]]
    batch = np.asarray([[y]])
    drift = drift_empirical(cloud, batch, kernel, ref, alpha=0.5, eta=0.0)
    assert drift[0, 0] == pytest.approx((y - x) / sigma**2, rel=1e-12)


def test_drift_at_zero_eta_where_every_k_underflows_is_the_reference_pull():
    # k(0, 100) underflows to 0 at σ = 0.01: the floor keeps the weights finite,
    # and the zero gradients leave only −α∇U
    kernel = GaussianConvolutionKernel([0.01])
    ref = ReferenceMeasure.gaussian([0.2], [1.0])
    cloud = np.zeros((4, 1))
    batch = np.full((3, 1), 100.0)
    drift = drift_empirical(cloud, batch, kernel, ref, alpha=0.3, eta=0.0)
    assert np.all(np.isfinite(drift))
    assert np.array_equal(drift, -0.3 * ref.grad_u(cloud))


def test_drift_matches_triple_loop_oracle(rng):
    kernel = GaussianConvolutionKernel([0.4, 0.8])
    ref = ReferenceMeasure.gaussian([0.1, -0.2], [0.7, 1.3])
    alpha, eta = 0.15, 0.01
    xs = rng.normal(size=(5, 2))
    ys = rng.normal(size=(4, 2))
    drift = drift_empirical(xs, ys, kernel, ref, alpha, eta)
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
        drift = drift_empirical(xs, ys, kernel, ref, alpha, eta)
        bound = (kernel.bound_M / eta
                 + alpha * ref.lipschitz * np.linalg.norm(xs, axis=1)
                 + alpha * np.linalg.norm(ref.grad_u(np.zeros(1))))
        assert np.all(np.linalg.norm(drift, axis=1) <= bound + 1e-9)


def test_tamed_step_pure_diffusion(rng):
    cloud = rng.normal(size=(6, 2))
    noise = rng.standard_normal((6, 2))
    gamma, alpha = 0.05, 0.3
    out = tamed_step(cloud, np.zeros((6, 2)), gamma, alpha, noise)
    assert np.allclose(out, cloud + np.sqrt(2 * alpha * gamma) * noise)


def test_tamed_step_hand_value():
    cloud = np.zeros((1, 2))
    drift = np.array([[3.0, 4.0]])
    out = tamed_step(cloud, drift, gamma=0.1, alpha=1.0, noise=np.zeros((1, 2)))
    assert np.allclose(out, [[0.2, 4.0 / 15.0]], rtol=1e-15)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 2), elements=st.floats(-1e6, 1e6)),
       st.floats(1e-4, 10.0))
# subnormal squares: sqrt(x² + y²) is off by 2e-10 relative there, hypot is not
@example(np.array([[3.8e-158, 3.8e-158], [0.0, 0.0], [0.0, 0.0]]), 0.5)
@example(np.array([[3.8e-158, 0.0], [0.0, 0.0], [0.0, 0.0]]), 2.0)
def test_taming_bound_property(drift, gamma):
    cloud = np.zeros((3, 2))
    out = tamed_step(cloud, drift, gamma, alpha=0.0, noise=np.zeros((3, 2)))
    inc = np.hypot.reduce(out - cloud, axis=1)
    norms = np.hypot.reduce(drift, axis=1)
    assert np.all(inc < 1.0)
    assert np.all(inc <= gamma * norms * (1.0 + 1e-12) + 1e-300)
    assert np.allclose(inc, gamma * norms / (1.0 + gamma * norms), rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_tamed_step_takes_the_limit_where_gamma_norm_overflows(d, rng):
    # rows 0-2: γ‖b‖ overflows at γ = 1e300, rows 3-5: ‖b‖ itself overflows (at
    # d ≥ 2), the rest: γ‖b‖ finite; the suite turns every overflow warning
    # into an error
    drift = rng.normal(size=(9, d))
    drift[:3] *= 1e10
    drift[3:6] = np.sign(drift[3:6]) * 1.5e308
    drift[6:] *= [[1e-200], [1.0], [1e-310]]
    for gamma in (1e300, 0.5):
        cloud = rng.normal(size=(9, d))
        out = tamed_step(cloud, drift, gamma, alpha=0.0, noise=np.zeros((9, d)))
        inc = out - cloud
        assert np.all(np.isfinite(inc))
        # the limit b/‖b‖ is a unit vector up to the rounding of its entries
        norms = np.hypot.reduce(inc, axis=1)
        assert np.all(norms <= 1.0 + 4 * np.finfo(float).eps)
        over = [i for i in range(9) if i < 6 and (gamma > 1.0 or d > 1 and i >= 3)]
        for i in over:
            b = drift[i] / 1e300
            np.testing.assert_allclose(inc[i], b / np.hypot.reduce(b), rtol=1e-14, atol=0)
        with np.errstate(over="ignore"):
            fine = np.isfinite(gamma * np.hypot.reduce(drift, axis=1))
        assert np.array_equal(np.flatnonzero(~fine), over)
        # where γ‖b‖ is finite, the formula and its bits are today's
        want = cloud[fine] + gamma * drift[fine] / (
            1.0 + gamma * np.hypot.reduce(drift[fine], axis=1, keepdims=True))
        assert np.array_equal(out[fine], want)


def test_minibatch_full_sample_when_m_large(rng):
    full = rng.normal(size=(4, 1))
    out = draw_minibatch(full, 10, stream(0, 99))
    assert out is full
    out = draw_minibatch(full, 4, stream(0, 99))
    assert out is full


def test_minibatch_without_replacement_distinct(rng):
    full = np.arange(20.0)[:, None]
    batch = draw_minibatch(full, 8, stream(3, 99))
    assert len(batch) == 8
    assert len(np.unique(batch)) == 8
    # an (m, p) array of rows of the sample
    assert batch.shape == (8, 1) and np.isin(batch, full).all()


def test_minibatch_reproducible():
    full = np.arange(50.0)[:, None]
    a = draw_minibatch(full, 10, stream(7, 123))
    b = draw_minibatch(full, 10, stream(7, 123))
    assert np.array_equal(a, b)


def _small_setup(seed=0, n=30, steps=8):
    kernel = GaussianConvolutionKernel([0.25])
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    config = SolverConfig(alpha=0.1, gamma=0.01, n_particles=n, n_steps=steps, seed=seed)
    gen = np.random.default_rng(11)
    init = gen.normal(size=(n, 1))
    obs = gen.normal(size=(60, 1))
    return config, kernel, ref, init, obs


def test_run_zero_steps_returns_init():
    config, kernel, ref, init, obs = _small_setup(steps=0)
    cloud, trace = run(config, kernel, ref, init, obs)
    assert np.array_equal(cloud, init)
    assert len(trace) == 1


class ColumnCountingKernel(GaussianConvolutionKernel):
    """The Gaussian kernel, recording the batch size of every ``eval_matrix`` call."""

    def __init__(self, noise_sd):
        super().__init__(noise_sd)
        self.columns = []

    def eval_matrix(self, xs, ys, out=None, plane=None, work=None):
        self.columns.append(np.atleast_2d(ys).shape[0])
        return super().eval_matrix(xs, ys, out, plane, work)


def test_run_zero_steps_scores_the_step_zero_batch():
    # m = 30 of M = 60: the only row reads the batch that row 0 of a longer run reads
    config, kernel, ref, init, obs = _small_setup(steps=0)
    counting = ColumnCountingKernel(kernel.noise_sd)
    _, trace_0 = run(config, counting, ref, init, obs)
    assert counting.columns == [config.batch_size(len(obs))] == [30]
    _, trace_1 = run(dataclasses.replace(config, n_steps=1), kernel, ref, init, obs)
    for name in ("g_hat", "g_hat_data", "g_hat_kl"):
        assert np.isfinite(trace_0.column(name)[0])
        assert np.array_equal(trace_0.column(name), trace_1.column(name)[:1])


def test_run_deterministic_bitwise():
    config, kernel, ref, init, obs = _small_setup()
    cloud_a, trace_a = run(config, kernel, ref, init, obs)
    cloud_b, trace_b = run(config, kernel, ref, init, obs)
    assert np.array_equal(cloud_a, cloud_b)
    assert np.array_equal(trace_a.column("g_hat"), trace_b.column("g_hat"), equal_nan=True)
    assert np.array_equal(trace_a.column("drift_max"), trace_b.column("drift_max"),
                          equal_nan=True)


def test_run_trace_length_bound():
    config, kernel, ref, init, obs = _small_setup(steps=8)
    _, trace = run(config, kernel, ref, init, obs)
    assert len(trace) == config.n_steps + 1
    assert np.array_equal(trace.column("step"), np.arange(config.n_steps + 1))


def test_run_exchangeability(rng, monkeypatch):
    # the permuted cloud draws its noise rows permuted: the same noise per particle
    config, kernel, ref, init, obs = _small_setup()
    perm = rng.permutation(len(init))
    cloud_a, _ = run(config, kernel, ref, init, obs)

    class PermutedRows:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, size):
            return self.gen.standard_normal(size)[perm]

    def permuted_noise(seed, role, step=0):
        gen = stream(seed, role, step)
        return PermutedRows(gen) if role == ROLE_NOISE else gen

    monkeypatch.setattr(solver._rng, "stream", permuted_noise)
    cloud_b, _ = run(config, kernel, ref, init[perm], obs)
    assert np.allclose(cloud_b, cloud_a[perm], rtol=1e-12, atol=1e-14)


def test_run_early_stopping_truncates_trace():
    config, kernel, ref, init, obs = _small_setup(steps=200)
    config = dataclasses.replace(config, stop_tol=0.5, stop_window=3)
    _, trace = run(config, kernel, ref, init, obs)
    assert len(trace) < 201


def test_run_early_stop_is_a_prefix_of_the_full_run():
    # the stopped run records the state it stopped at, with the drift statistics of
    # the step it did not take, and no extra final row
    preset = get_preset("toy_gaussian")
    obs = preset.sample_observations(200, seed=3)
    ref = preset.make_reference(obs)
    full_config = dataclasses.replace(preset.solver, n_particles=200, minibatch=200,
                                      n_steps=200, seed=4)
    init = build_initial_cloud(preset, full_config, obs, ref)
    full_clouds = []
    _, full = run(full_config, preset.kernel, ref, init, obs,
                  monitor=lambda step, cloud, est: full_clouds.append(cloud))
    steps = []
    config = dataclasses.replace(full_config, stop_tol=0.05, stop_window=3)
    cloud, trace = run(config, preset.kernel, ref, init, obs,
                       monitor=lambda step, cloud, est: steps.append(step))
    n = len(trace)
    assert 2 * config.stop_window <= n < len(full) == 201
    assert np.array_equal(trace.rows, full.rows[:n], equal_nan=True)
    # it stops at the first row where the rule holds
    g_hat = full.column("g_hat")
    assert [solver._should_stop(g_hat[:rows], config.stop_tol, config.stop_window)
            for rows in range(1, n + 1)] == [False] * (n - 1) + [True]
    assert np.isfinite(trace.column("drift_mean")[-1])
    assert np.array_equal(cloud, full_clouds[n - 1])
    assert steps == list(range(n))


def test_run_rejects_wrong_particle_count():
    config, kernel, ref, init, obs = _small_setup()
    bad = dataclasses.replace(config, n_particles=len(init) + 1)
    with pytest.raises(ValueError):
        run(bad, kernel, ref, init, obs)


def test_run_non_finite_init_fails_before_any_step():
    config, kernel, ref, init, obs = _small_setup(steps=3)
    counting = ColumnCountingKernel(kernel.noise_sd)
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = init.copy()
        poisoned[17, 0] = bad
        with pytest.raises(NumericalFailure, match="particle cloud") as err:
            run(config, counting, ref, poisoned, obs,
                monitor=lambda *args: pytest.fail("a state was recorded"))
        assert (err.value.step, err.value.index) == (0, 17)
    assert counting.columns == []


class GradientBreakingKernel(ConstantInXKernel):
    """ConstantInXKernel whose gradient row 2 turns NaN after ``breaks_after`` calls."""

    def __init__(self, breaks_after=np.inf):
        super().__init__(1)
        self.breaks_after = breaks_after
        self.calls = 0

    def weighted_grad1(self, ys, k, plane, w, work=None):
        out = super().weighted_grad1(ys, k, plane, w, work)
        self.calls += 1
        if self.calls > self.breaks_after:
            out[2] = np.nan
        return out


@pytest.mark.parametrize("s", [0, 3, 7])
def test_drift_failure_names_the_loop_step(s):
    # the loop's step keys the streams, the trace and the monitor: a drift that
    # turns non-finite in step s fails at s, after the monitor saw 0..s-1
    config, _, ref, init, obs = _small_setup(steps=8)
    clean = GradientBreakingKernel()
    run(config, clean, ref, init, obs)
    per_step, rest = divmod(clean.calls, config.n_steps)
    assert per_step >= 1 and rest == 0
    steps = []
    with pytest.raises(NumericalFailure, match="non-finite drift") as err:
        run(config, GradientBreakingKernel(s * per_step), ref, init, obs,
            monitor=lambda step, cloud, est: steps.append(step))
    assert (err.value.step, err.value.index) == (s, 2)
    assert steps == list(range(s))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_observation_fails_at_entry_with_its_row(bad):
    # a library caller's sample is checked where it enters, before any step
    config, kernel, ref, init, obs = _small_setup(steps=3)
    counting = ColumnCountingKernel(kernel.noise_sd)
    poisoned = obs.copy()
    poisoned[37, 0] = bad
    with pytest.MonkeyPatch.context() as patch, \
            pytest.raises(NumericalFailure, match="observation sample") as err:
        patch.setattr(solver, "tamed_step", lambda *args: pytest.fail("a step ran"))
        run(config, counting, ref, init, poisoned)
    assert err.value.index == 37 and counting.columns == []
    with pytest.raises(NumericalFailure, match="observation sample") as err:
        drift_empirical(init, poisoned, kernel, ref, alpha=0.1, eta=0.0)
    assert err.value.index == 37
    # a nested list is a sample too
    cloud, trace = run(config, kernel, ref, init, obs.tolist())
    want_cloud, want_trace = run(config, kernel, ref, init, obs)
    assert np.array_equal(cloud, want_cloud)
    assert np.array_equal(trace.rows, want_trace.rows, equal_nan=True)
    assert np.array_equal(drift_empirical(init, obs[:5].tolist(), kernel, ref, 0.1, 0.0),
                          drift_empirical(init, obs[:5], kernel, ref, 0.1, 0.0))


def test_ou_stationary_variance():
    # kernel constant in x: the dynamics is an OU process with drift -alpha x
    # and diffusion sqrt(2 alpha); its stationary variance is 1 for a unit
    # gaussian reference
    kernel = ConstantInXKernel(1)
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    config = SolverConfig(alpha=0.5, gamma=0.02, n_particles=600, n_steps=1500, seed=5)
    gen = np.random.default_rng(2)
    init = gen.normal(size=(600, 1))
    obs = gen.normal(size=(50, 1))
    variances = []
    run(config, kernel, ref, init, obs,
        monitor=lambda step, cloud, est: variances.append(cloud.var())
        if step >= 700 else None)
    assert np.mean(variances) == pytest.approx(1.0, rel=0.10)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=-0.1, gamma=0.1, n_particles=10, n_steps=1)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.1, gamma=0.0, n_particles=10, n_steps=1)


def test_drift_failure_carries_particle_index():
    kernel = GradientBreakingKernel(breaks_after=0)
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    cloud = np.zeros((5, 1))
    batch = np.zeros((3, 1))
    with pytest.raises(NumericalFailure) as err:
        drift_empirical(cloud, batch, kernel, ref, alpha=0.1, eta=0.0)
    assert err.value.index == 2


def test_tamed_step_non_finite_noise_fails():
    cloud = np.zeros((2, 1))
    noise = np.array([[0.0], [np.inf]])
    with pytest.raises(NumericalFailure, match="particle cloud") as err:
        tamed_step(cloud, np.zeros((2, 1)), 0.1, 0.5, noise, step=4)
    assert (err.value.step, err.value.index) == (4, 1)


def test_trace_columns_are_read_only_views():
    config, kernel, ref, init, obs = _small_setup(steps=3)
    _, trace = run(config, kernel, ref, init, obs)
    assert trace.rows.shape == (4, len(trace.columns))
    with pytest.raises(ValueError):
        trace.column("g_hat")[0] = 0.0
    with pytest.raises(KeyError, match="mean_1"):
        trace.column("g_total")


def test_readme_library_example_runs_as_written(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    # the trace's columns and last objective, then the variances
    assert len(capsys.readouterr().out.splitlines()) == 2
