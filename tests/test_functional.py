import dataclasses

import numpy as np
import pytest

from fredholm_flow import (GaussianConvolutionKernel, ReferenceMeasure, ToyGaussianSpec,
                           g_hat, run, toy_closed_form_g, toy_optimal_beta)
from fredholm_flow.problems import (TOY_SIGMA_K_SQ, TOY_SIGMA_PI_SQ,
                                    build_initial_cloud, preset_gaussian_mixture_1d)
from fredholm_flow.rng import stream


def test_alpha_zero_total_is_data_term(rng):
    kernel = GaussianConvolutionKernel([0.3])
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    est = g_hat(rng.normal(size=(5, 1)), rng.normal(size=(7, 1)), kernel, ref, alpha=0.0)
    assert est.kl_term == 0.0
    assert est.total == est.data_term


def test_degenerate_sums():
    kernel = GaussianConvolutionKernel([0.3])
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    x, y = 0.2, 0.9
    est = g_hat(np.asarray([[x]]), np.asarray([[y]]), kernel, ref, alpha=0.0)
    assert est.data_term == pytest.approx(-np.log(kernel.eval([x], [y])), rel=1e-14)


def test_total_is_sum_of_terms(rng):
    kernel = GaussianConvolutionKernel([0.3])
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    est = g_hat(rng.normal(size=(50, 1)), rng.normal(size=(30, 1)), kernel, ref, alpha=0.2)
    assert est.total == est.data_term + est.kl_term


def test_matches_toy_closed_form_at_minimizer(rng):
    spec = ToyGaussianSpec(TOY_SIGMA_PI_SQ, TOY_SIGMA_K_SQ, 0.3874, alpha=0.02)
    beta = toy_optimal_beta(spec)
    kernel = GaussianConvolutionKernel([np.sqrt(TOY_SIGMA_K_SQ)])
    ref = ReferenceMeasure.gaussian([0.0], [spec.sigma0_sq])
    n, m = 4000, 4000
    points = np.sqrt(beta) * rng.standard_normal((n, 1))
    obs = np.sqrt(spec.sigma_mu_sq) * rng.standard_normal((m, 1))
    est = g_hat(points, obs, kernel, ref, spec.alpha)
    assert est.total == pytest.approx(toy_closed_form_g(spec, beta), rel=0.05)


def test_flat_reference_with_penalty_raises(rng):
    kernel = GaussianConvolutionKernel([0.3])
    with pytest.raises(ValueError):
        g_hat(rng.normal(size=(5, 1)), rng.normal(size=(5, 1)),
              kernel, ReferenceMeasure.flat(1), alpha=0.1)


def test_floored_flag_on_distant_observations():
    kernel = GaussianConvolutionKernel([0.01])
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    est = g_hat(np.asarray([[0.0]]), np.asarray([[100.0]]), kernel, ref, alpha=0.0, eta=0.0)
    assert est.floored
    assert np.isfinite(est.data_term)


def test_kl_term_vanishes_on_reference_draws():
    # cloud drawn from the reference itself: plug-in KL of the KDE against it
    # shrinks with N
    alpha = 0.3
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    kernel = GaussianConvolutionKernel([0.3])
    pts = ref.sample(10_000, stream(99, 1))
    est = g_hat(pts, pts[:100], kernel, ref, alpha)
    assert abs(est.kl_term) <= 0.05 * alpha


def test_monitor_trend_on_mixture_preset():
    # start away from the optimum so there is a descent for the monitor to see
    preset = preset_gaussian_mixture_1d()
    obs = preset.sample_observations(1000, seed=3)
    ref = preset.make_reference(obs)
    config = dataclasses.replace(preset.solver, seed=4)
    init = build_initial_cloud(preset, config, obs, ref, mode="uniform",
                               box=[[-0.2, 1.2]])
    _, trace = run(config, preset.kernel, ref, init, obs)
    g = trace.column("g_hat")
    assert np.all(np.isfinite(g))
    window = 10
    assert np.mean(g[-window:]) <= np.mean(g[:window])
