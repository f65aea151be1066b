"""Acceptance gate.

One test per criterion of the build contract; each prints a pass/fail line
with its runtime against the stated budget (run with ``pytest -s`` to see
them).  Tolerances are fixed here, not calibrated.
"""
import dataclasses
import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import fredholm_flow as ff
from fredholm_flow.cli import main
from fredholm_flow.problems import (TOY_SIGMA_K_SQ, TOY_SIGMA_PI_SQ,
                                    build_initial_cloud, preset_gaussian_mixture_1d,
                                    preset_toy_gaussian)
from fredholm_flow.rng import ROLE_INIT, derive_seed, stream

from test_baselines import SIGMA0_RESOLVED, random_grid_problem, simplex_mass_oracle
from test_density import naive_kde


def _gate(num, description, condition, started, budget_s):
    elapsed = time.perf_counter() - started
    ok = bool(condition) and elapsed < budget_s
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s of {budget_s:.0f}s): {description}")
    assert condition, f"criterion {num} failed: {description}"
    assert elapsed < budget_s, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_1_analytic_toy_optimum(tmp_path):
    started = time.perf_counter()
    cfg = tmp_path / "toy.json"
    cfg.write_text(json.dumps({"baseline": "toy", "alpha_grid": [0.0, 0.5, 1.0]}))
    out = tmp_path / "out"
    rc = main(["baseline", "--config", str(cfg), "--out", str(out)])
    lines = (out / "toy_sweep.csv").read_text().strip().splitlines()[1:]
    rows = [tuple(map(float, line.split(","))) for line in lines]
    beta0, beta1 = rows[0][1], rows[-1][1]
    spec0 = ff.ToyGaussianSpec(TOY_SIGMA_PI_SQ, TOY_SIGMA_K_SQ, SIGMA0_RESOLVED, 0.0)
    ok = (rc == 0
          and abs(beta0 - 0.1849) < 1e-12
          and ff.toy_cubic_residual(spec0, beta0) <= 1e-10
          and abs(beta1 - 0.44) < 0.01)
    _gate(1, "toy sweep returns beta(0)=0.1849 and beta(1)=0.44±0.01 at the "
             "resolved sigma0^2", ok, started, 1.0)


def test_criterion_2_particle_analytic_agreement():
    started = time.perf_counter()
    preset = preset_toy_gaussian()
    obs = preset.sample_observations(preset.n_observations, seed=101)
    ref = preset.make_reference(obs)
    spec = ff.ToyGaussianSpec(TOY_SIGMA_PI_SQ, TOY_SIGMA_K_SQ,
                              float(ref.variances[0]), preset.solver.alpha)
    beta_star = ff.toy_optimal_beta(spec)

    def one(seed):
        config = dataclasses.replace(preset.solver, seed=seed)
        init = build_initial_cloud(preset, config, obs, ref)
        cloud, _ = ff.run(config, preset.kernel, ref, init, obs)
        return float(cloud.points.var())

    with ThreadPoolExecutor(max_workers=2) as pool:
        variances = list(pool.map(one, range(20)))
    ratio = float(np.median(variances)) / beta_star
    ok = abs(ratio - 1.0) <= 0.15
    _gate(2, f"median final particle variance / analytic optimum = {ratio:.3f} "
             f"within 15%", ok, started, 60.0)


def _mixture_ise(preset, n_particles, seed):
    config = dataclasses.replace(preset.solver, n_particles=n_particles, seed=seed)
    obs = preset.sample_observations(1000, seed=derive_seed(seed, 31))
    ref = preset.make_reference(obs)
    init = build_initial_cloud(preset, config, obs, ref)
    cloud, _ = ff.run(config, preset.kernel, ref, init, obs)
    grid = preset.metric_grid
    est = ff.GaussianKde(cloud.points).evaluate(grid.nodes())
    return ff.ise(grid, est, preset.truth_pdf(grid.nodes()))


def test_criterion_3_deconvolution_improves_with_n():
    started = time.perf_counter()
    preset = preset_gaussian_mixture_1d()
    seeds = [300 + r for r in range(20)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        small = list(pool.map(lambda s: _mixture_ise(preset, 100, s), seeds))
        large = list(pool.map(lambda s: _mixture_ise(preset, 1000, s), seeds))
    ok = np.median(large) < np.median(small)
    _gate(3, f"median ISE at N=1000 ({np.median(large):.3f}) < N=100 "
             f"({np.median(small):.3f}) over 20 replicates", ok, started, 300.0)


def test_criterion_4_oslem_optimality():
    started = time.perf_counter()
    gen = np.random.default_rng(404)
    ok = True
    for _ in range(3):
        problem = random_grid_problem(gen)
        state = ff.oslem_solve(problem, 0.1, 500)
        achieved = ff.discrete_objective(state, problem, 0.1)
        oracle = simplex_mass_oracle(problem, 0.1)
        ok = ok and abs(achieved - oracle) <= 1e-6
    _gate(4, "500 one-step-late EM iterations reach the brute-force discrete "
             "optimum within 1e-6 on random 3-bin problems", ok, started, 10.0)


def test_criterion_5_oracle_equivalences():
    started = time.perf_counter()
    gen = np.random.default_rng(505)
    ok = True

    kernel = ff.GaussianConvolutionKernel([0.4, 0.8])
    ref = ff.ReferenceMeasure.gaussian([0.0, 0.1], [0.9, 1.1])
    for _ in range(100):
        xs = gen.normal(size=(4, 2))
        ys = gen.normal(size=(3, 2))
        alpha, eta = gen.uniform(0.01, 0.5), gen.uniform(0.0, 0.1)
        drift = ff.drift_empirical(ff.ParticleCloud(xs), ff.ObservationSample(ys),
                                   kernel, ref, alpha, eta)
        for k in range(4):
            row = np.zeros(2)
            for j in range(3):
                lam = sum(kernel.eval(xs[l], ys[j]) for l in range(4)) / 4
                row += kernel.grad1(xs[k], ys[j]) / (lam + eta)
            row = row / 3 - alpha * ref.grad_u(xs[k])
            ok = ok and np.allclose(drift[k], row, rtol=1e-12, atol=0)

    for _ in range(100):
        d = int(gen.integers(1, 3))
        pts = gen.normal(size=(int(gen.integers(2, 7)), d))
        diag = gen.uniform(0.1, 1.5, size=d)
        x = gen.normal(size=d)
        mine = ff.GaussianKde(ff.ParticleCloud(pts), diag).evaluate(x)[0]
        ok = ok and np.isclose(mine, naive_kde(pts, diag, x), rtol=1e-12, atol=0)

    kernel1 = ff.GaussianConvolutionKernel([0.3])
    grid = ff.EvaluationGrid(((-1.5, 1.5, 9),))
    for _ in range(100):
        pts = gen.normal(size=(int(gen.integers(1, 6)), 1))
        rec = ff.reconvolve(pts, kernel1, grid)
        for i, node in enumerate(grid.nodes()):
            oracle = sum(kernel1.eval(p, node) for p in pts) / len(pts)
            ok = ok and np.isclose(rec[i], oracle, rtol=1e-12, atol=0)

    for _ in range(100):
        a, b = gen.normal(size=4), gen.normal(size=4)
        brute = min(np.mean(np.abs(a - b[list(p)]))
                    for p in itertools.permutations(range(4)))
        ok = ok and np.isclose(ff.wasserstein1_1d(a, b), brute, rtol=1e-12, atol=0)

    _gate(5, "drift, KDE, reconvolution and W1 match brute-force oracles to "
             "1e-12 relative on 100 random instances each", ok, started, 10.0)


def test_criterion_6_gradients_normalization_taming():
    started = time.perf_counter()
    gen = np.random.default_rng(606)
    ok = True

    def fd(f, x, h=1e-5):
        out = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            out[i] = (f(x + e) - f(x - e)) / (2 * h)
        return out

    kernels = [ff.GaussianConvolutionKernel([0.3]),
               ff.GaussianConvolutionKernel([0.4, 0.9]),
               ff.GaussianMixtureDelayKernel((0.595, 0.405), (8.63, 15.24), (2.56, 5.39))]
    for kernel in kernels:
        for _ in range(25):
            x = gen.normal(size=kernel.dim_x)
            y = x + gen.normal(11.0, 4.0, size=1) if kernel.dim_y == 1 and \
                isinstance(kernel, ff.GaussianMixtureDelayKernel) else \
                x + gen.normal(0.0, 0.5, size=kernel.dim_y)
            diff = np.abs(kernel.grad1(x, y) - fd(lambda z: kernel.eval(z, y), x))
            ok = ok and np.max(diff) < 1e-6
    ref = ff.ReferenceMeasure.gaussian([0.2, -0.3], [0.8, 1.4])
    for _ in range(25):
        x = gen.normal(size=2)
        diff = np.abs(ref.grad_u(x) - fd(lambda z: -ref.log_density(z), x))
        ok = ok and np.max(diff) < 1e-6

    pts = gen.normal(size=(60, 1)) * 0.4
    bw = ff.silverman_bandwidth(ff.ParticleCloud(pts))
    grid = ff.EvaluationGrid(((-6.0, 6.0, 3001),))
    vals = ff.GaussianKde(ff.ParticleCloud(pts), bw).on_grid(grid)
    ok = ok and abs(grid.trapezoid_weights() @ vals - 1.0) <= 1e-3
    rec = ff.reconvolve(pts, ff.GaussianConvolutionKernel([0.3]), grid)
    ok = ok and abs(grid.trapezoid_weights() @ rec - 1.0) <= 1e-3

    preset = preset_gaussian_mixture_1d()
    for seed in (1, 2):
        obs = preset.sample_observations(500, seed=seed)
        refp = preset.make_reference(obs)
        config = dataclasses.replace(preset.solver, seed=seed, n_steps=60)
        init = build_initial_cloud(preset, config, obs, refp)
        _, trace = ff.run(config, preset.kernel, refp, init, obs)
        norms = trace.column("drift_max")[:-1]
        increments = config.gamma * norms / (1.0 + config.gamma * norms)
        ok = ok and np.all(increments < 1.0)
        ok = ok and np.all(increments <= np.minimum(1.0, config.gamma * norms))
    _gate(6, "finite-difference, normalization and taming-bound suite",
          ok, started, 30.0)


def test_criterion_7_observation_count_stability_trend():
    started = time.perf_counter()
    preset = preset_gaussian_mixture_1d()
    ref = ff.ReferenceMeasure.gaussian([13.0 / 30.0], [0.0123])
    sizes = (250, 1000, 4000)
    reference_size = 64_000

    def final_cloud(pool_points, seed):
        m_total = pool_points.shape[0]
        config = dataclasses.replace(preset.solver, n_particles=100, n_steps=40,
                                     seed=seed, minibatch=m_total)
        init = ff.ParticleCloud(ref.sample(100, stream(seed, ROLE_INIT)))
        cloud, _ = ff.run(config, preset.kernel, ref, init,
                          ff.ObservationSample(pool_points))
        return cloud.points

    def discrepancies(seed):
        pool = preset.sample_observations(reference_size,
                                          seed=derive_seed(700, seed)).points
        target = final_cloud(pool, seed)
        return [np.mean(np.abs(final_cloud(pool[:m], seed) - target)) for m in sizes]

    with ThreadPoolExecutor(max_workers=2) as poolx:
        rows = list(poolx.map(discrepancies, range(10)))
    means = np.mean(rows, axis=0)
    ok = means[0] > means[1] > means[2]
    _gate(7, f"coupled-run discrepancy decreases in the observation count: "
             f"{means[0]:.2e} > {means[1]:.2e} > {means[2]:.2e}", ok, started, 300.0)


def test_criterion_8_stability_at_eta_zero():
    started = time.perf_counter()
    preset = preset_gaussian_mixture_1d()
    assert preset.solver.eta == 0.0
    ok = True
    for seed in range(50):
        obs = preset.sample_observations(1000, seed=derive_seed(800, seed))
        ref = preset.make_reference(obs)
        config = dataclasses.replace(preset.solver, seed=seed)
        init = build_initial_cloud(preset, config, obs, ref)
        cloud, trace = ff.run(config, preset.kernel, ref, init, obs)
        ok = ok and cloud.step_index == 100
        ok = ok and np.all(np.isfinite(cloud.points))
        ok = ok and np.all(np.isfinite(trace.column("g_hat")))
        ok = ok and np.all(np.isfinite(trace.column("drift_max")[:-1]))
    _gate(8, "the mixture preset completes 100 steps at eta=0 with finite "
             "values across 50 seeds", ok, started, 120.0)


def test_criterion_9_byte_determinism_across_workers(tmp_path):
    started = time.perf_counter()
    payload = {
        "preset": "gaussian_mixture_1d",
        "observations": {"n_samples": 300, "seed": 9},
        "solver": {"n_particles": 100, "n_steps": 20},
        "replicates": 3,
        "seed_base": 77,
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(payload))

    def run_to(out, workers):
        rc = main(["run", "--config", str(cfg), "--out", str(out),
                   "--workers", str(workers)])
        assert rc == 0
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(Path(out).rglob("*")) if p.is_file()}

    tree_a = run_to(tmp_path / "w1", 1)
    tree_b = run_to(tmp_path / "w4", 4)
    tree_c = run_to(tmp_path / "w1b", 1)
    # more workers than cores start no thread of their own
    tree_d = run_to(tmp_path / "wmany", os.cpu_count() + 3)
    ok = tree_a == tree_b == tree_c == tree_d
    _gate(9, "byte-identical artifacts for repeated runs regardless of workers",
          ok, started, 60.0)
