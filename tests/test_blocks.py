"""The blocked step: same bits for any block cut and thread count, bounded memory."""
import os
import signal
import sys
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fredholm_flow import (EvaluationGrid, GaussianConvolutionKernel, GaussianKde,
                           GaussianMixtureDelayKernel, RadonAlignmentKernel, ReferenceMeasure,
                           blocks, g_hat, reconvolve)
from fredholm_flow.solver import _drift


class InlinePool:
    """Runs every block in the calling thread, in order."""

    def map(self, fn, items):
        return map(fn, items)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class NoPool:
    def map(self, fn, items):
        raise AssertionError("a block was submitted to the pool")

    def submit(self, fn, *args):
        raise AssertionError("a block was submitted to the pool")


def kernel_batch(name, rng, n, m, d=3):
    if name == "radon":
        kernel = RadonAlignmentKernel(sigma=0.2)
        ys = np.column_stack([rng.uniform(0, 2 * np.pi, m), rng.normal(0.0, 0.3, m)])
        return kernel, rng.normal(0.0, 0.3, (n, 2)), ys
    if name == "delay":
        kernel = GaussianMixtureDelayKernel((0.595, 0.405), (8.63, 15.24), (2.56, 5.39))
        return kernel, rng.normal(0.0, 3.0, (n, 1)), rng.normal(11.0, 5.0, (m, 1))
    kernel = GaussianConvolutionKernel([0.3, 0.5, 0.8][:d])
    return kernel, rng.normal(0.0, 0.5, (n, d)), rng.normal(0.0, 0.5, (m, d))


def sweep(kernel, xs, ys):
    """(k, gradient plane) from one eval_matrix sweep; the plane is k when the kernel says so."""
    plane = np.full((xs.shape[0], ys.shape[0]), np.nan)
    k = kernel.eval_matrix(xs, ys, plane=plane)
    return k, k if kernel.plane_is_k else plane


def blocked_rows(kernel, xs, ys, plane, w):
    """The in-order sum, over the column blocks, of each block's weighted_grad1 rows."""
    rows = None
    for c in blocks.column_blocks(xs.shape[0], ys.shape[0]):
        part = kernel.weighted_grad1(xs, ys[c], np.ascontiguousarray(plane[:, c]), w[c])
        rows = part if rows is None else rows + part
    return rows


def assert_near_single_block(got, single):
    # the column blocks change only the order in which the rows are summed
    assert np.max(np.abs(got - single)) <= 1e-13 * np.max(np.abs(single))


@pytest.mark.parametrize("name", ["gauss-d3", "delay", "radon"])
def test_kernel_rows_do_not_depend_on_the_block(name, rng):
    kernel, xs, ys = kernel_batch(name, rng, 37, 53)
    w = rng.uniform(0.1, 2.0, ys.shape[0])
    full, plane = sweep(kernel, xs, ys)
    # writing the plane changes no bit of k
    assert np.array_equal(kernel.eval_matrix(xs, ys), full)
    grad = kernel.weighted_grad1(xs, ys, plane, w)
    for rows in (slice(0, 1), slice(5, 17), slice(36, 37), slice(0, 37)):
        part = kernel.eval_matrix(xs[rows], ys)
        assert np.array_equal(part, full[rows])
        out, part_plane = np.full_like(part, np.nan), np.full_like(part, np.nan)
        assert kernel.eval_matrix(xs[rows], ys, out=out, plane=part_plane) is out
        assert np.array_equal(out, full[rows])
        if kernel.plane_is_k:
            part_plane = out
        assert np.array_equal(part_plane, plane[rows])
        assert np.array_equal(kernel.weighted_grad1(xs[rows], ys, part_plane, w), grad[rows])
    for cols in (slice(0, 1), slice(5, 17), slice(52, 53), slice(0, 53)):
        out, part_plane = np.full((2, 37, cols.stop - cols.start), np.nan)
        assert kernel.eval_matrix(xs, ys[cols], out=out, plane=part_plane) is out
        assert np.array_equal(out, full[:, cols])
        if kernel.plane_is_k:
            part_plane = out
        assert np.array_equal(part_plane, plane[:, cols])


@pytest.fixture(scope="module")
def pools():
    pools = [ThreadPoolExecutor(1), ThreadPoolExecutor(3)]
    yield [InlinePool(), *pools]
    for pool in pools:
        pool.shutdown()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["gauss", "delay", "radon"]), n=st.integers(1, 60),
       m=st.integers(1, 40), d=st.integers(1, 3), block_pairs=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_block_contract(pools, name, n, m, d, block_pairs, seed):
    # any block cut and pool: the column means are k.mean(axis=0), the drift
    # rows are the in-order sum of the column blocks' weighted_grad1 rows, and
    # the KDE at the particles is one set of bits, all bit for bit
    kernel, xs, ys = kernel_batch(name, np.random.default_rng(seed), n, m, d)
    k, plane = sweep(kernel, xs, ys)
    want_mean = k.mean(axis=0)

    def weights(k_mean):
        return 1.0 / (m * np.maximum(k_mean + 0.01, 1e-30))
    single = kernel.weighted_grad1(xs, ys, plane, weights(want_mean))
    kde = GaussianKde(xs) if name == "gauss" and n >= 2 else None
    want_kde = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blocks, "BLOCK_PAIRS", block_pairs)
        cols = blocks.column_blocks(n, m)
        assert [c.start for c in cols] == [0] + [c.stop for c in cols[:-1]]
        assert cols[-1].stop == m
        widths = [c.stop - c.start for c in cols]
        assert max(widths) <= max(3, block_pairs // n)
        # numpy sums a lone column pairwise, not row after row
        assert m == 1 or min(widths) >= 2
        want = blocked_rows(kernel, xs, ys, plane, weights(want_mean))
        assert_near_single_block(want, single)
        for pool in pools:
            patch.setattr(blocks, "_pool", pool)
            assert np.array_equal(blocks.column_means(kernel, xs, ys), want_mean)
            got_mean, got = blocks.drift_rows(kernel, xs, ys, weights)
            assert np.array_equal(got_mean, want_mean)
            assert np.array_equal(got, want)
            if kde is not None:
                got_kde = kde.at_particles()
                if want_kde is None:   # the first pool runs every block inline
                    want_kde = got_kde
                    np.testing.assert_allclose(want_kde, kde.evaluate(xs), rtol=1e-12, atol=0)
                assert np.array_equal(got_kde, want_kde)


def gaussian_step(rng, n, m):
    kernel = GaussianConvolutionKernel([0.4, 0.7])
    ref = ReferenceMeasure.gaussian([0.1, -0.2], [0.7, 1.3])
    return kernel, rng.normal(size=(n, 2)), rng.normal(size=(m, 2)), ref


def test_blocked_step_is_the_same_bits_for_any_thread_count(rng, monkeypatch):
    n, m = 1001, 700
    assert len(blocks.column_blocks(n, m)) > 1 and n % (blocks.BLOCK_PAIRS // n)
    kernel, xs, ys, ref = gaussian_step(rng, n, m)
    k = kernel.eval_matrix(xs, ys)
    k_mean = k.mean(axis=0)
    weights = 1.0 / (m * np.maximum(k_mean + 0.01, 1e-30))
    want = blocked_rows(kernel, xs, ys, k, weights) - 0.3 * ref.grad_u(xs)
    assert_near_single_block(want, kernel.weighted_grad1(xs, ys, k, weights)
                             - 0.3 * ref.grad_u(xs))
    monkeypatch.setattr(blocks, "_pool", InlinePool())
    want_kde = GaussianKde(xs).at_particles()
    np.testing.assert_allclose(want_kde, GaussianKde(xs).evaluate(xs), rtol=1e-12, atol=0)
    for threads in (1, 3):
        with ThreadPoolExecutor(threads) as pool:
            monkeypatch.setattr(blocks, "_pool", pool)
            got_mean, got = _drift(kernel, xs, ys, ref, 0.3, 0.01, step=0)
            assert np.array_equal(got_mean, k_mean)
            assert np.array_equal(got, want)
            assert np.array_equal(GaussianKde(xs).at_particles(), want_kde)


def fused_step(name, rng, n, m):
    kernel, xs, ys = kernel_batch(name, rng, n, m, d=2)
    if name == "delay":
        return kernel, xs, ys, ReferenceMeasure.gaussian([1.0], [4.0])
    return kernel, xs, ys, ReferenceMeasure.gaussian([0.1, -0.2], [0.7, 1.3])


@pytest.mark.parametrize("name", ["delay", "radon"])
def test_fused_drift_is_the_two_method_drift(name, rng, monkeypatch):
    n, m = 1001, 700
    kernel, xs, ys, ref = fused_step(name, rng, n, m)
    k, plane = sweep(kernel, xs, ys)
    k_mean = k.mean(axis=0)
    weights = 1.0 / (m * np.maximum(k_mean + 0.01, 1e-30))
    want = blocked_rows(kernel, xs, ys, plane, weights) - 0.3 * ref.grad_u(xs)
    assert_near_single_block(want, kernel.weighted_grad1(xs, ys, plane, weights)
                             - 0.3 * ref.grad_u(xs))
    block_cols = sorted(c.stop - c.start for c in blocks.column_blocks(n, m))
    assert len(block_cols) > 1
    sweeps = []
    eval_matrix = kernel.eval_matrix

    def counted(xs, ys, out=None, plane=None):
        assert plane is not None, "the drift swept k without its gradient plane"
        sweeps.append(ys.shape[0])
        return eval_matrix(xs, ys, out=out, plane=plane)

    monkeypatch.setattr(kernel, "eval_matrix", counted)
    pools = [InlinePool(), ThreadPoolExecutor(1), ThreadPoolExecutor(3)]
    try:
        for pool in pools:
            monkeypatch.setattr(blocks, "_pool", pool)
            for _ in range(2):   # fresh workspaces, then reused as by run
                sweeps.clear()
                got_mean, got = _drift(kernel, xs, ys, ref, 0.3, 0.01, 0)
                assert np.array_equal(got_mean, k_mean)
                assert np.array_equal(got, want)
                # one sweep per block gives both k and the plane
                assert sorted(sweeps) == block_cols
    finally:
        for pool in pools[1:]:
            pool.shutdown()


def test_concurrent_callers_share_the_pool(rng, monkeypatch):
    # more callers than pool threads and cores, switching threads every microsecond:
    # a workspace shared between threads would change some result
    kernel, xs, ys, ref = gaussian_step(rng, 1001, 700)
    clouds = [xs + 0.01 * i for i in range(8)]

    radon = RadonAlignmentKernel(sigma=0.2)

    def step(points):
        k_mean, drift = _drift(kernel, points, ys, ref, 0.3, 0.0, step=0)
        radon_mean, radon_drift = _drift(radon, points, ys, ref, 0.3, 0.0, step=0)
        return k_mean, drift, radon_mean, radon_drift, GaussianKde(points).at_particles()

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


@pytest.mark.parametrize("name", ["gauss", "delay", "radon"])
def test_drift_holds_a_few_blocks_per_thread(name, rng, monkeypatch):
    for n in (2000, 4000):
        kernel, xs, ys, ref = fused_step(name, rng, n, n)
        with ThreadPoolExecutor(2) as pool:   # fresh workspaces
            monkeypatch.setattr(blocks, "_pool", pool)
            tracemalloc.start()
            _drift(kernel, xs, ys, ref, 0.3, 0.0, step=0)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # k, the gradient plane and the kernel's temporaries, one block each per
        # pool thread, whatever N·m: no N×m matrix
        assert peak <= 12 * 8 * blocks.BLOCK_PAIRS


def test_particle_reconvolution_memory_does_not_grow_with_the_cloud(rng, monkeypatch):
    kernel = RadonAlignmentKernel(sigma=0.2)
    grid = EvaluationGrid(((0.0, 2 * np.pi, 51), (-1.5, 1.5, 51)))
    for n in (2000, 8000):
        pts = rng.normal(0.0, 0.3, (n, 2))
        with ThreadPoolExecutor(2) as pool, ThreadPoolExecutor(1) as caller:
            monkeypatch.setattr(blocks, "_pool", pool)
            tracemalloc.start()
            caller.submit(reconvolve, pts, kernel, grid).result(timeout=120)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # a k block and a block workspace per pool thread, whatever N
        assert peak <= 8 * 8 * blocks.BLOCK_PAIRS


def test_one_block_runs_inline(rng, monkeypatch):
    n, m = 300, 200
    assert len(blocks.column_blocks(n, m)) == len(blocks.row_blocks(n, n)) == 1
    kernel, xs, ys, ref = gaussian_step(rng, n, m)
    monkeypatch.setattr(blocks, "_pool", NoPool())
    k_mean, _ = _drift(kernel, xs, ys, ref, 0.3, 0.0, step=0)
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
