"""Blocks of pairwise work on one process-wide thread pool.

Every O(N·m) pass of a solver step is cut by ``row_blocks`` into the
fewest blocks, cut evenly, whose arrays fit one thread's arena (see
below): a block of a sweep that holds ``arrays`` block-shaped arrays has
at most ``BLOCK_PAIRS // arrays`` pairs.  A kernel states how many such
arrays one sweep holds, without and with its plane (``KernelModel.arrays``):
k, the plane and the temporaries.  Every kernel's sweep holds more arrays
than its plane, so the plane fits ``BLOCK_PAIRS`` entries too.  The cut
depends on the shape and the kernel only, never on the thread count.
``map_blocks`` runs one task per block and yields the results in block
order, so a caller that adds them in that order gets the same bits for any
number of threads.  A single task runs inline, with no pool call.

The KDE at the particles is row-separable: row i reads all of the
particles, but particle i alone, so ``row_blocks`` cuts it into rows.  The
drift needs the mean over all N particles of k(·, y_j) for each
observation, so ``drift_rows`` cuts it into blocks of observations: a
block holds w observations against every particle, the (w, N) k of one
``eval_matrix`` sweep, and each particle coordinate is one contiguous row.
``drift_blocks`` gives the cut: one task per ``BLOCK_PAIRS`` pairs of
observations, like the KDE's, and within a task the blocks whose arrays
fit the arena.  A task sweeps each of its blocks' k and gradient plane,
reduces each observation's mean along one contiguous row, weights the
block's own means and adds the block's (N, d) share of the drift rows to
its own in block order; the calling thread adds the tasks' shares in task
order.  So no (N, m) matrix is ever held, the drift is one sweep with no
second pass, and the calling thread adds one (N, d) share per
``BLOCK_PAIRS`` pairs whatever d is.  ``column_means`` is the same sweep
without the gradient, and every other particle mean (1/N) Σ_i k(X_i, y)
runs it: the monitor's denominators, the KDE at arbitrary queries (the
queries as observations) and the reconvolution.  A mean reads one whole
row, so it is the same bits for any cut.

``arena`` gives each thread one reusable arena of ``BLOCK_PAIRS`` floats
(2 MB, one core's L2 on the hosts this was tuned on), allocated on its
first block and kept, so a block costs the same whatever the allocator's
state (a fresh 2 MB array sits at glibc's dynamic mmap threshold and may be
mapped and unmapped on every call).  A block takes consecutive views of
it: k first, then the gradient plane, then the kernel's temporaries, which
the kernel receives as an argument.  So a thread holds 2 MB whatever the
kernel, and a block of a sweep of ``arrays`` arrays has ``BLOCK_PAIRS //
arrays`` pairs at most: 2^17 for the Radon drift and for the KDE and every
``column_means`` of two arrays, 2^16 for the delay drift, with its plane
and two temporaries, and ``BLOCK_PAIRS // (d + 2)`` for the Gaussian drift.
A block whose arrays cannot fit the arena, one observation against more
than ``BLOCK_PAIRS // arrays`` particles, gets fresh arrays.

The pool has one thread per core this process may run on.  It is shared by
every caller, the jobs of ``map_jobs`` (replicates, cv cells) included, so
no thread count is passed down and only pool threads hold arenas.  A
job marks its thread while it runs.  On a marked thread ``map_blocks``
submits the blocks and then takes them in block order: it runs every block
that no thread has started (``Future.cancel()`` succeeds) itself, and waits
only for a block that another thread has started.  A block never waits on
anything, so no job waits on a queued task, and no deadlock can occur
whatever ``--workers`` and the core count are.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# pairs per pool task, and floats in each thread's arena: 2 MB of float64,
# which holds a block's k, plane and temporaries, so a block's working set
# fits a 2 MB L2.  An arena of 1 MB, or blocks of 2**15 pairs or fewer, were
# the same bits but slower end to end (ROADMAP, "Tried")
BLOCK_PAIRS = 2**18

_pool = None
_pool_lock = threading.Lock()
_local = threading.local()


def row_blocks(n: int, m: int, arrays: int = 1) -> list[slice]:
    """Row slices of an (n, m) pairwise pass: the fewest blocks (at least one
    row each), cut evenly so that their row counts differ by one at most,
    whose ``arrays`` arrays of (rows, m) fit the arena, so at most
    ``BLOCK_PAIRS // arrays`` pairs each."""
    count = -(-n // max(1, BLOCK_PAIRS // arrays // m))
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


def drift_blocks(m: int, n: int, arrays: int = 1) -> list[list[slice]]:
    """The drift's cut of m observations against n particles: one task per
    ``row_blocks(m, n)`` block of ``BLOCK_PAIRS`` pairs, each cut by
    ``row_blocks`` again into observation blocks of ``arrays`` arrays."""
    return [[slice(task.start + c.start, task.start + c.stop)
             for c in row_blocks(task.stop - task.start, n, arrays)]
            for task in row_blocks(m, n)]


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_cores(), thread_name_prefix="fredholm-block")
        return _pool


def _forget_pool():
    # a forked child has none of the parent's threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_blocks(fn, blocks):
    """``fn(block)`` for every block, in block order; inline for a single block.

    On a thread running a ``map_jobs`` job, the blocks no pool thread has
    started run on that thread."""
    if len(blocks) == 1:
        return [fn(blocks[0])]
    pool = _shared_pool()
    if not getattr(_local, "job", False):
        return pool.map(fn, blocks)
    return _run_or_wait(fn, blocks, [pool.submit(fn, block) for block in blocks])


def _run_or_wait(fn, blocks, futures):
    try:
        for block, future in zip(blocks, futures):
            yield fn(block) if future.cancel() else future.result()
    finally:
        for future in futures:
            future.cancel()


def _attempt(fn, job):
    try:
        return fn(job), None
    except Exception as exc:
        return None, exc


def map_jobs(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]`` on the shared pool, at most ``workers`` jobs at
    a time, or in turn on the calling thread when one worker or one job is left
    to run.

    Every job runs to its end, whatever the others do; then the exception of
    the lowest-index failed job, if any, is raised."""
    if min(workers, len(jobs)) <= 1:
        outcomes = [_attempt(fn, job) for job in jobs]
    else:
        in_flight = threading.Semaphore(workers)

        def run(job):
            _local.job = True
            try:
                return _attempt(fn, job)
            finally:
                _local.job = False
                in_flight.release()

        pool, futures = _shared_pool(), []
        for job in jobs:
            in_flight.acquire()
            futures.append(pool.submit(run, job))
        outcomes = [future.result() for future in futures]
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _ in outcomes]


def arena(shape: tuple, *counts: int) -> list[np.ndarray]:
    """Consecutive float views of this thread's arena, one (count, *shape)
    stack per count, contents undefined; fresh arrays if they do not fit it."""
    size = math.prod(shape)
    total = size * sum(counts)
    buf = getattr(_local, "arena", None)
    if total > BLOCK_PAIRS:
        buf = np.empty(total)
    elif buf is None or buf.size < total:
        buf = _local.arena = np.empty(BLOCK_PAIRS)
    views, start = [], 0
    for count in counts:
        views.append(buf[start:start + count * size].reshape(count, *shape))
        start += count * size
    return views


def column_means(kernel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The means (1/n) Σ_i k(x_i, y_j) over the particles xs (n, d), one per
    observation of ys (m, p), as ``drift_rows`` gives them."""
    return drift_rows(kernel, xs, ys)[0]


def drift_rows(kernel, xs: np.ndarray, ys: np.ndarray, weights=None):
    """``(means, rows)``: the means (1/n) Σ_i k(x_i, y_j) over the particles, one
    per observation, and the (n, d) rows Σ_j w_j ∇₁k(x_i, y_j) for
    ``w = weights(means)``, or None without ``weights``.

    Each block of observations is one ``eval_matrix`` sweep, (w, n), which
    gives its k and, with ``weights``, the kernel's gradient plane, all in
    the thread's arena, the kernel's temporaries after them.  The
    particles are copied once, coordinate by coordinate, so each coordinate
    is one contiguous row and no block copies them.  A mean is
    ``np.add.reduce`` of one contiguous row of k, bit for bit
    ``k.mean(axis=1)`` of the whole (m, n) sweep, and
    ``kernel.weighted_grad1`` turns the plane and the weights of the block's
    own means into its rows.  ``weights`` is called once per block, so it
    must be elementwise.  The rows are the sum, in task order, of each
    ``drift_blocks`` task's rows, its blocks' rows added in block order."""
    n = xs.shape[0]
    planes = 0 if weights is None else kernel.planes
    arrays = kernel.arrays[weights is not None]
    xs = np.asfortranarray(xs)

    def block(c):
        k, plane, work = arena((c.stop - c.start, n), 1, planes, arrays - 1 - planes)
        k = kernel.eval_matrix(xs, ys[c], out=k[0], plane=plane if planes else None,
                               work=work)
        means = np.add.reduce(k, axis=1) / n
        if not planes:
            return means, None
        return means, kernel.weighted_grad1(ys[c], k, plane, weights(means), work)

    def task(cut):
        return _add_in_order(block(c) for c in cut)

    return _add_in_order(map_blocks(task, drift_blocks(ys.shape[0], n, arrays)))


def _add_in_order(parts):
    """The concatenated means and the in-order sum of the rows of (means, rows)
    parts; no parts (no observations) are no means and no rows."""
    means, rows = [], None
    for part_means, part_rows in parts:
        means.append(part_means)
        if part_rows is not None:
            rows = part_rows if rows is None else np.add(rows, part_rows, out=rows)
    return (np.concatenate(means) if means else np.empty(0)), rows
