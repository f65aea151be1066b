"""The row-blocked step: same bits for any block cut and thread count, bounded memory."""
import os
import signal
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fredholm_flow import (GaussianConvolutionKernel, GaussianKde, GaussianMixtureDelayKernel,
                           RadonAlignmentKernel, ReferenceMeasure, blocks, g_hat)
from fredholm_flow.solver import _drift


class InlinePool:
    """Runs every block in the calling thread, in order."""

    def map(self, fn, items):
        return map(fn, items)


class NoPool:
    def map(self, fn, items):
        raise AssertionError("a block was submitted to the pool")


def kernel_batch(name, rng, n, m):
    if name == "radon":
        kernel = RadonAlignmentKernel(sigma=0.2)
        ys = np.column_stack([rng.uniform(0, 2 * np.pi, m), rng.normal(0.0, 0.3, m)])
        return kernel, rng.normal(0.0, 0.3, (n, 2)), ys
    if name == "delay":
        kernel = GaussianMixtureDelayKernel((0.595, 0.405), (8.63, 15.24), (2.56, 5.39))
        return kernel, rng.normal(0.0, 3.0, (n, 1)), rng.normal(11.0, 5.0, (m, 1))
    kernel = GaussianConvolutionKernel([0.3, 0.5, 0.8])
    return kernel, rng.normal(0.0, 0.5, (n, 3)), rng.normal(0.0, 0.5, (m, 3))


@pytest.mark.parametrize("name", ["gauss-d3", "delay", "radon"])
def test_kernel_rows_do_not_depend_on_the_block(name, rng):
    kernel, xs, ys = kernel_batch(name, rng, 37, 53)
    w = rng.uniform(0.1, 2.0, ys.shape[0])
    full = kernel.eval_matrix(xs, ys)
    grad = kernel.weighted_grad1(xs, ys, full, w)
    for rows in (slice(0, 1), slice(5, 17), slice(36, 37), slice(0, 37)):
        part = kernel.eval_matrix(xs[rows], ys)
        assert np.array_equal(part, full[rows])
        out = np.full_like(part, np.nan)
        assert kernel.eval_matrix(xs[rows], ys, out=out) is out
        assert np.array_equal(out, full[rows])
        assert np.array_equal(kernel.weighted_grad1(xs[rows], ys, part, w), grad[rows])


def gaussian_step(rng, n, m):
    kernel = GaussianConvolutionKernel([0.4, 0.7])
    ref = ReferenceMeasure.gaussian([0.1, -0.2], [0.7, 1.3])
    return kernel, rng.normal(size=(n, 2)), rng.normal(size=(m, 2)), ref


def test_blocked_step_is_the_same_bits_for_any_thread_count(rng, monkeypatch):
    n, m = 1001, 700
    assert n % (blocks.BLOCK_PAIRS // m) and n % (blocks.BLOCK_PAIRS // n)
    kernel, xs, ys, ref = gaussian_step(rng, n, m)
    k = kernel.eval_matrix(xs, ys)
    k_mean = k.mean(axis=0)
    weights = 1.0 / (m * np.maximum(k_mean + 0.01, 1e-30))
    want = kernel.weighted_grad1(xs, ys, k, weights) - 0.3 * ref.grad_u(xs)
    monkeypatch.setattr(blocks, "_pool", InlinePool())
    want_kde = GaussianKde(xs).at_particles()
    np.testing.assert_allclose(want_kde, GaussianKde(xs).evaluate(xs), rtol=1e-12, atol=0)
    for threads in (1, 3):
        with ThreadPoolExecutor(threads) as pool:
            monkeypatch.setattr(blocks, "_pool", pool)
            got_mean, got = _drift(kernel, xs, ys, ref, 0.3, 0.01, 1e-30, step=0)
            assert np.array_equal(got_mean, k_mean)
            assert np.array_equal(got, want)
            assert np.array_equal(GaussianKde(xs).at_particles(), want_kde)


def test_concurrent_callers_share_the_pool(rng, monkeypatch):
    # more callers than pool threads and cores, switching threads every microsecond:
    # a workspace or buffer row shared between threads would change some result
    kernel, xs, ys, ref = gaussian_step(rng, 1001, 700)
    clouds = [xs + 0.01 * i for i in range(8)]

    def step(points):
        k_mean, drift = _drift(kernel, points, ys, ref, 0.3, 0.0, 1e-30, step=0)
        return k_mean, drift, GaussianKde(points).at_particles()

    monkeypatch.setattr(blocks, "_pool", InlinePool())
    want = [step(points) for points in clouds]
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(3) as pool:
        monkeypatch.setattr(blocks, "_pool", pool)
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                futures = [callers.submit(step, points) for points in clouds]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
    for have, expected in zip(got, want):
        for a, b in zip(have, expected):
            assert np.array_equal(a, b)


def test_drift_holds_one_kernel_matrix(rng, monkeypatch):
    n = m = 2000
    kernel, xs, ys, ref = gaussian_step(rng, n, m)
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(blocks, "_pool", pool)
        tracemalloc.start()
        _drift(kernel, xs, ys, ref, 0.3, 0.0, 1e-30, step=0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # the k buffer plus a few block workspaces per thread, not three N×m matrices
    assert peak <= 1.5 * 8 * n * m


def test_one_block_runs_inline(rng, monkeypatch):
    n, m = 300, 200
    assert len(blocks.row_blocks(n, m)) == len(blocks.row_blocks(n, n)) == 1
    kernel, xs, ys, ref = gaussian_step(rng, n, m)
    monkeypatch.setattr(blocks, "_pool", NoPool())
    k_mean, _ = _drift(kernel, xs, ys, ref, 0.3, 0.0, 1e-30, step=0)
    assert np.array_equal(k_mean, kernel.eval_matrix(xs, ys).mean(axis=0))
    g_hat(xs, ys, kernel, ref, 0.3, k_mean=k_mean)
    GaussianKde(xs).evaluate(ys)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_pool(rng):
    # a child has none of the parent's pool threads; reusing the pool would hang
    pts = rng.normal(size=(2000, 2))
    assert len(blocks.row_blocks(2000, 2000)) > 1
    want = GaussianKde(pts).at_particles()
    pid = os.fork()
    if pid == 0:
        os._exit(0 if np.array_equal(GaussianKde(pts).at_particles(), want) else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
