"""Blocks of pairwise work on one process-wide thread pool.

Every O(N·m) pass of a solver step is cut into blocks of about
``BLOCK_PAIRS`` pairs, and the cut depends on (n, m) only, never on the
thread count.  ``map_blocks`` runs one task per block and yields the results
in block order, so a caller that adds them in that order gets the same bits
for any number of threads.  A single block runs inline, with no pool call.

The KDE at the particles and at arbitrary queries is row-separable: row i
reads all of the other point set, but particle i alone, so ``row_blocks``
cuts it into rows.  The drift needs the mean of each column of k over all N
particles, so ``column_blocks`` cuts it into columns instead: a block holds
every particle and a slice of the batch.  One task of ``drift_rows`` sweeps
its block's k and gradient plane, reduces its column sums, weights its own
means and returns them with its (n, d) share of the drift rows; the calling
thread adds the shares in block order.  So no (n, m) matrix is ever held,
and the drift is one sweep with no second pass.  ``column_means`` is the
same cut without the gradient.

``scratch`` gives each thread reusable block-sized workspaces: a block costs
the same whatever the allocator's state (a fresh 2 MB array sits at glibc's
dynamic mmap threshold and may be mapped and unmapped on every call).  One
step holds, per thread, the k block (the KDE's workspace), the gradient
plane of a kernel whose plane is not k, and the kernel's temporaries.

The pool has one thread per core this process may run on.  It is shared by
every caller, the ``--workers`` threads of ``map_jobs`` (replicates, cv
cells) included, so no thread count is passed down.  A task never submits
to the pool, so no task waits on another.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# pairs per block: 2 MB of float64.  A step keeps three or four such
# workspaces per thread (k, the plane, the kernel's temporaries), so a
# block's working set is beyond a 2 MB L2; row tiles of 2**15 pairs inside
# each block were the same bits but slower end to end (ROADMAP, "Tried")
BLOCK_PAIRS = 2**18

_pool = None
_pool_lock = threading.Lock()
_local = threading.local()


def row_blocks(n: int, m: int) -> list[slice]:
    """Row slices of an (n, m) pairwise pass, each at most ``BLOCK_PAIRS`` pairs."""
    rows = max(1, BLOCK_PAIRS // m)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def column_blocks(n: int, m: int) -> list[slice]:
    """Column slices of an (n, m) pairwise pass, as even as can be, each at most
    ``BLOCK_PAIRS`` pairs (at least three columns wide).

    With blocks of three columns or more, an even cut of m ≥ 2 columns leaves
    no block one column wide: numpy sums a lone column pairwise, and the
    other blocks' columns row after row, as ``k.sum(axis=0)`` does."""
    count = -(-m // max(3, BLOCK_PAIRS // n))
    return [slice(m * j // count, m * (j + 1) // count) for j in range(count)]


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
    """``fn(block)`` for every block, in block order; inline for a single block."""
    if len(blocks) == 1:
        return [fn(blocks[0])]
    return _shared_pool().map(fn, blocks)


def _attempt(fn, job):
    try:
        return fn(job), None
    except Exception as exc:
        return None, exc


def map_jobs(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]`` on ``workers`` threads of their own, or on the
    calling thread when one worker or one job is left to run.

    Every job runs to its end, whatever the others do; then the exception of
    the lowest-index failed job, if any, is raised."""
    if min(workers, len(jobs)) <= 1:
        outcomes = [_attempt(fn, job) for job in jobs]
    else:
        with ThreadPoolExecutor(workers) as pool:
            outcomes = list(pool.map(lambda job: _attempt(fn, job), jobs))
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _ in outcomes]


def scratch(key: str, n: int, m: int) -> np.ndarray:
    """This thread's reusable (n, m) float workspace ``key``, contents undefined.

    Workspaces of more than ``BLOCK_PAIRS`` entries are not kept."""
    if n * m > BLOCK_PAIRS:
        return np.empty((n, m))
    buf = getattr(_local, key, None)
    if buf is None or buf.size < n * m:
        buf = np.empty(BLOCK_PAIRS)
        setattr(_local, key, buf)
    return buf[:n * m].reshape(n, m)


def column_means(kernel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Column means of k = kernel.eval_matrix(xs, ys), bit for bit
    ``k.mean(axis=0)``, from the column blocks of ``column_blocks``."""
    n = xs.shape[0]

    def block(c):
        k = kernel.eval_matrix(xs, ys[c], out=scratch("k", n, c.stop - c.start))
        return np.add.reduce(k, axis=0) / n

    return np.concatenate(list(map_blocks(block, column_blocks(n, ys.shape[0]))))


def drift_rows(kernel, xs: np.ndarray, ys: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """``(means, rows)``: the column means of k = kernel.eval_matrix(xs, ys), as
    ``column_means`` gives them, and the (n, d) rows Σ_j w_j ∇₁k(x_i, y_j) for
    ``w = weights(means)``.

    Each column block is one ``eval_matrix`` sweep, which gives k and the
    kernel's gradient plane, and hands the plane (k itself when
    ``plane_is_k``) to ``kernel.weighted_grad1`` with the weights of its own
    means.  ``weights`` is called once per block, so it must be elementwise.
    The rows are the blocks' rows added in block order."""
    n = xs.shape[0]

    def block(c):
        width = c.stop - c.start
        plane = None if kernel.plane_is_k else scratch("plane", n, width)
        k = kernel.eval_matrix(xs, ys[c], out=scratch("k", n, width), plane=plane)
        means = np.add.reduce(k, axis=0) / n
        return means, kernel.weighted_grad1(xs, ys[c], k if plane is None else plane,
                                            weights(means))

    means, rows = [], None
    for block_means, block_rows in map_blocks(block, column_blocks(n, ys.shape[0])):
        means.append(block_means)
        rows = block_rows if rows is None else np.add(rows, block_rows, out=rows)
    return np.concatenate(means), rows
