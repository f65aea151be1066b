"""The blocked step: same bits for any block cut and thread count, bounded memory."""
import os
import signal
import sys
import threading
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
    kernel = GaussianConvolutionKernel(np.resize([0.3, 0.5, 0.8], d))
    return kernel, rng.normal(0.0, 0.5, (n, d)), rng.normal(0.0, 0.5, (m, d))


def sweep(kernel, xs, ys):
    """(k, gradient plane) of one observation-major sweep, (m, n) and (planes, m, n)."""
    plane = np.full((kernel.planes, ys.shape[0], xs.shape[0]), np.nan)
    return kernel.eval_matrix(*blocks.by_observation(xs, ys), plane=plane), plane


def blocked_rows(kernel, xs, ys, k, plane, w, cut=None):
    """The in-order sum, over the tasks of ``cut`` (by default the drift's), of
    each task's rows: the in-order sum of its observation blocks'
    weighted_grad1 rows."""
    xv, yv = blocks.by_observation(xs, ys)

    def block_rows(c):
        return kernel.weighted_grad1(xv, yv[c], k[c], np.ascontiguousarray(plane[:, c]), w[c])

    rows = None
    for task in cut or blocks.drift_blocks(ys.shape[0], xs.shape[0], kernel.planes):
        part = block_rows(task[0])
        for c in task[1:]:
            part = part + block_rows(c)
        rows = part if rows is None else rows + part
    return rows


def even_cut(start, stop, most):
    """[start, stop) cut evenly into the fewest slices of at most ``most``."""
    count = -(-(stop - start) // most)
    return [slice(start + i * (stop - start) // count, start + (i + 1) * (stop - start) // count)
            for i in range(count)]


def assert_near_single_block(got, single):
    # the observation blocks change only the order in which the rows are summed
    assert np.max(np.abs(got - single)) <= 1e-13 * np.max(np.abs(single))


@pytest.mark.parametrize("name", ["gauss-d3", "delay", "radon"])
def test_kernel_rows_do_not_depend_on_the_block(name, rng):
    kernel, xs, ys = kernel_batch(name, rng, 37, 53)
    w = rng.uniform(0.1, 2.0, ys.shape[0])
    full, plane = sweep(kernel, xs, ys)
    # writing the plane changes no bit of k, and either orientation is the same bits
    assert np.array_equal(kernel.eval_matrix(*blocks.by_observation(xs, ys)), full)
    assert np.array_equal(kernel.eval_matrix(xs, ys), full.T)
    xv, yv = blocks.by_observation(xs, ys)
    grad = kernel.weighted_grad1(xv, yv, full, plane, w)
    for rows in (slice(0, 1), slice(5, 17), slice(36, 37), slice(0, 37)):
        part = kernel.eval_matrix(xs[rows], ys)
        assert np.array_equal(part, full[:, rows].T)
        part, part_plane = sweep(kernel, xs[rows], ys)
        assert np.array_equal(part, full[:, rows])
        assert np.array_equal(part_plane, plane[:, :, rows])
        part_xv, part_yv = blocks.by_observation(xs[rows], ys)
        part_grad = kernel.weighted_grad1(part_xv, part_yv, part, part_plane, w)
        assert np.array_equal(part_grad, grad[rows])
    for cols in (slice(0, 1), slice(5, 17), slice(52, 53), slice(0, 53)):
        width = cols.stop - cols.start
        out = np.full((width, 37), np.nan)
        part_plane = np.full((kernel.planes, width, 37), np.nan)
        assert kernel.eval_matrix(xv, yv[cols], out=out, plane=part_plane) is out
        assert np.array_equal(out, full[cols])
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
    # any block cut and pool: the means are the rows' means of the whole
    # observation-major k, the drift rows are the in-order sum of the blocks'
    # weighted_grad1 rows, and the KDE at the particles is one set of bits,
    # all bit for bit
    kernel, xs, ys = kernel_batch(name, np.random.default_rng(seed), n, m, d)
    k, plane = sweep(kernel, xs, ys)
    want_mean = k.mean(axis=1)

    def weights(k_mean):
        return 1.0 / (m * np.maximum(k_mean + 0.01, 1e-30))
    xv, yv = blocks.by_observation(xs, ys)
    single = kernel.weighted_grad1(xv, yv, k, plane, weights(want_mean))
    kde = GaussianKde(xs) if name == "gauss" and n >= 2 else None
    want_kde = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blocks, "BLOCK_PAIRS", block_pairs)
        # tasks of at most BLOCK_PAIRS pairs, cut evenly, and within each the
        # blocks whose plane fits one workspace, unless one observation's does not
        cut = blocks.drift_blocks(m, n, kernel.planes)
        assert [slice(task[0].start, task[-1].stop) for task in cut] == \
            even_cut(0, m, max(1, block_pairs // n))
        for task in cut:
            assert task == even_cut(task[0].start, task[-1].stop,
                                    max(1, block_pairs // (kernel.planes * n)))
        want = blocked_rows(kernel, xs, ys, k, plane, weights(want_mean))
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


def gaussian_step(rng, n, m, d=2):
    kernel = GaussianConvolutionKernel(np.linspace(0.4, 0.7, d))
    ref = ReferenceMeasure.gaussian(np.linspace(0.1, -0.2, d), np.linspace(0.7, 1.3, d))
    return kernel, rng.normal(size=(n, d)), rng.normal(size=(m, d)), ref


def test_blocked_step_is_the_same_bits_for_any_thread_count(rng, monkeypatch):
    for d in (2, 10):
        assert_blocked_step_is_the_same_bits_for_any_thread_count(d, rng, monkeypatch)


def assert_blocked_step_is_the_same_bits_for_any_thread_count(d, rng, monkeypatch):
    n, m = 1001, 700
    kernel, xs, ys, ref = gaussian_step(rng, n, m, d)
    # a task of BLOCK_PAIRS pairs is cut into blocks of w observations whose d
    # planes of differences, d·w·n entries, fit one workspace
    cut = [even_cut(task.start, task.stop, blocks.BLOCK_PAIRS // (d * n))
           for task in even_cut(0, m, blocks.BLOCK_PAIRS // n)]
    assert len(cut) > 1 and all(len(task) > 1 for task in cut)
    k, plane = sweep(kernel, xs, ys)
    k_mean = k.mean(axis=1)
    weights = 1.0 / (m * np.maximum(k_mean + 0.01, 1e-30))
    want = blocked_rows(kernel, xs, ys, k, plane, weights, cut) - 0.3 * ref.grad_u(xs)
    xv, yv = blocks.by_observation(xs, ys)
    assert_near_single_block(want, kernel.weighted_grad1(xv, yv, k, plane, weights)
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
    kernel, xs, ys = kernel_batch(name, rng, n, m, d=10 if name == "gauss-d10" else 2)
    if name == "delay":
        return kernel, xs, ys, ReferenceMeasure.gaussian([1.0], [4.0])
    d = xs.shape[1]
    return kernel, xs, ys, ReferenceMeasure.gaussian(np.resize([0.1, -0.2], d),
                                                     np.resize([0.7, 1.3], d))


@pytest.mark.parametrize("name", ["delay", "radon"])
def test_fused_drift_is_the_two_method_drift(name, rng, monkeypatch):
    n, m = 1001, 700
    kernel, xs, ys, ref = fused_step(name, rng, n, m)
    k, plane = sweep(kernel, xs, ys)
    k_mean = k.mean(axis=1)
    weights = 1.0 / (m * np.maximum(k_mean + 0.01, 1e-30))
    want = blocked_rows(kernel, xs, ys, k, plane, weights) - 0.3 * ref.grad_u(xs)
    xv, yv = blocks.by_observation(xs, ys)
    assert_near_single_block(want, kernel.weighted_grad1(xv, yv, k, plane, weights)
                             - 0.3 * ref.grad_u(xs))
    block_cols = sorted(c.stop - c.start for task in blocks.drift_blocks(m, n, kernel.planes)
                        for c in task)
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


def test_jobs_run_their_own_queued_blocks(rng, monkeypatch):
    # on a one-thread pool a job that waited for a queued block would wait for
    # ever; with more jobs than pool threads and cores, switching threads every
    # microsecond, every job's results are still the same bits
    kernel, xs, ys, ref = gaussian_step(rng, 2000, 700)
    assert len(blocks.row_blocks(2000, 2000)) > 1 and len(blocks.drift_blocks(700, 2000)) > 1
    clouds = [xs + 0.01 * i for i in range(4)]

    def job(points):
        return (*_drift(kernel, points, ys, ref, 0.3, 0.0, step=0),
                GaussianKde(points).at_particles())

    monkeypatch.setattr(blocks, "_pool", InlinePool())
    want = [job(points) for points in clouds]
    interval = sys.getswitchinterval()
    for threads, workers in ((1, 2), (3, os.cpu_count() + 3)):
        got = []
        pool = ThreadPoolExecutor(threads)
        monkeypatch.setattr(blocks, "_pool", pool)
        caller = threading.Thread(target=lambda: got.extend(blocks.map_jobs(job, clouds, workers)),
                                  daemon=True)
        sys.setswitchinterval(1e-6)
        try:
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=False)   # a hung pool thread must not hang the test too
        assert not caller.is_alive(), "a job waited for a queued block"
        for have, expected in zip(got, want, strict=True):
            for a, b in zip(have, expected):
                assert np.array_equal(a, b)


def test_map_jobs_keeps_at_most_workers_jobs_in_flight(monkeypatch):
    running, most, lock = [0], [0], threading.Lock()

    def job(i):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        time.sleep(0.01)
        with lock:
            running[0] -= 1
        if i in (2, 5):
            raise ValueError(i)
        return i

    with ThreadPoolExecutor(4) as pool:
        monkeypatch.setattr(blocks, "_pool", pool)
        for workers in (2, 3, 100):
            most[0] = 0
            # every job runs to its end, and the lowest-index failure is raised
            done = []
            with pytest.raises(ValueError, match="^2$"):
                blocks.map_jobs(lambda i: done.append(job(i)), range(8), workers)
            assert sorted(done) == [0, 1, 3, 4, 6, 7]
            assert most[0] <= min(workers, 4)
            assert blocks.map_jobs(lambda i: i * i, range(8), workers) == [i * i for i in range(8)]


@pytest.mark.parametrize("name", ["gauss", "gauss-d10", "delay", "radon"])
def test_drift_holds_a_few_blocks_per_thread(name, rng, monkeypatch):
    for n in (2000, 4000):
        kernel, xs, ys, ref = fused_step(name, rng, n, n)
        with ThreadPoolExecutor(2) as pool:   # fresh workspaces
            monkeypatch.setattr(blocks, "_pool", pool)
            tracemalloc.start()
            _drift(kernel, xs, ys, ref, 0.3, 0.0, step=0)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # k, the gradient plane (all d planes of the Gaussian kernel's block
        # together) and the kernel's temporaries, one block each per pool
        # thread, whatever N·m and d: no N×m matrix; the Radon kernel's
        # temporaries live in k and the plane, two workspaces per thread
        assert peak <= (5 if name == "radon" else 12) * 8 * blocks.BLOCK_PAIRS


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


@pytest.mark.parametrize("name, names", [("radon", ["k", "plane"]),
                                         ("delay", ["a", "b", "k", "plane"]),
                                         ("kde-d2", ["k", "plane"]),
                                         ("kde-d3", ["k", "plane"])])
def test_a_pool_thread_holds_k_the_plane_and_the_temporaries(name, names, rng, monkeypatch):
    # a drift, then the KDE at the particles, on a pool of one thread: two
    # jobs, each running every block of its own; a sweep without a plane
    # takes its first temporary from "plane", so the KDE's differences and
    # the Radon kernel's term need no workspace of their own, while the
    # delay kernel takes "a" and "b"; the KDE alone also evaluates queries
    monkeypatch.setattr(blocks, "_cores", lambda: 1)
    monkeypatch.setattr(blocks, "_pool", None)
    kde_only = name.startswith("kde")
    kernel, xs, ys = kernel_batch("gauss" if kde_only else name, rng, 2000, 2000,
                                  d=int(name[-1]) if kde_only else 3)
    assert len(blocks.drift_blocks(2000, 2000)) > 1 and len(blocks.row_blocks(2000, 2000)) > 1

    def job(_):
        if kde_only:
            GaussianKde(xs).evaluate(ys)
        else:
            blocks.drift_rows(kernel, xs, ys, weights=np.sqrt)
        GaussianKde(xs).at_particles()
        return sorted(key for key, value in vars(blocks._local).items()
                      if isinstance(value, np.ndarray))

    try:
        assert blocks.map_jobs(job, range(2), workers=2) == [names, names]
    finally:
        blocks._shared_pool().shutdown()


def test_one_block_runs_inline(rng, monkeypatch):
    n, m = 300, 200
    kernel, xs, ys, ref = gaussian_step(rng, n, m)
    assert len(blocks.drift_blocks(m, n, kernel.planes)) == len(blocks.row_blocks(n, n)) == 1
    monkeypatch.setattr(blocks, "_pool", NoPool())
    k_mean, _ = _drift(kernel, xs, ys, ref, 0.3, 0.0, step=0)
    assert np.array_equal(k_mean, sweep(kernel, xs, ys)[0].mean(axis=1))
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
