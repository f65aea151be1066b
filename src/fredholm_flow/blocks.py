"""Row blocks of pairwise work on one process-wide thread pool.

Every O(N·m) pass of a solver step (the kernel matrix and its weighted
gradient, and the KDE at the particles) is row-separable: row i reads all of
the other point set, but particle i alone.  ``row_blocks`` cuts the rows into
blocks of at most ``BLOCK_PAIRS`` pairs (at least one row each); the cut
depends on (n, m) only, never on the thread count.  ``map_blocks`` runs one
task per block and yields the results in block order, so a caller that folds
them in that order gets the same bits for any number of threads.  A single
block runs inline, with no pool call.

The pool has one thread per core this process may run on.  It is shared by
every caller, the ``--workers`` threads of ``map_jobs`` (replicates, cv
cells) included, so no thread count is passed down.  A task never submits
to the pool, so no task waits on another.

``column_means`` and ``drift_rows`` hold the two-pass shape of the drift.
Pass 1 folds the column sums of k block by block, in block order, on the
calling thread.  A kernel's k goes either into an (n, m) ``matrix_buffer``
that pass 2 reads back, or into a ring of ``ring_depth()`` block buffers of
the calling thread, when nothing reads k again: the column sums of
``column_means`` without a buffer, and the drift of a kernel whose gradient
plane is not k, whose buffer holds that plane instead.  Block j + R is
submitted only after block j is folded, so the ring is never overwritten
early, and the fold is the same either way.

``scratch`` gives each thread reusable block-sized workspaces: a block costs
the same whatever the allocator's state (a fresh 2 MB array sits at glibc's
dynamic mmap threshold and may be mapped and unmapped on every call).  The
ring is kept per thread for the same reason.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait

import numpy as np

# pairs per block: 2 MB of float64, one core's L2 cache
BLOCK_PAIRS = 2**18

_pool = None
_pool_lock = threading.Lock()
_local = threading.local()


def row_blocks(n: int, m: int) -> list[slice]:
    """Row slices of an (n, m) pairwise pass, each at most ``BLOCK_PAIRS`` pairs."""
    rows = max(1, BLOCK_PAIRS // m)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ring_depth() -> int:
    """Blocks in flight in one fold: one per pool thread, plus the one being folded."""
    return _cores() + 1


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


def map_jobs(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]`` on ``workers`` threads of their own, or on the
    calling thread when one worker or one job is left to run."""
    if min(workers, len(jobs)) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, jobs))


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


def _ring(depth: int, size: int) -> list:
    """This thread's ``depth`` reusable flat buffers of at least ``size`` floats.

    Buffers of more than two blocks (a row longer than ``BLOCK_PAIRS``) are not kept."""
    if size > 2 * BLOCK_PAIRS:
        return [np.empty(size) for _ in range(depth)]
    ring = getattr(_local, "ring", [])
    if len(ring) < depth or ring[0].size < size:
        ring = _local.ring = [np.empty(size) for _ in range(depth)]
    return ring


def matrix_buffer(n: int, m: int) -> np.ndarray:
    """Storage for an (n, m) matrix in the row blocks of ``row_blocks(n, m)``,
    with one spare row before each block."""
    return np.empty((n + len(row_blocks(n, m)), m))


def _buffer_slots(buf, n, m, rows):
    """Block j's spare row and rows in ``buf``, an (n, m) ``matrix_buffer`` (new
    if it is None or of another shape)."""
    if buf is None or buf.shape != (n + len(rows), m):
        buf = matrix_buffer(n, m)
    return [buf[r.start + j:r.stop + j + 1] for j, r in enumerate(rows)]


def _ring_slots(rows, m):
    """Block j's spare row and rows in slot j mod R of this thread's ring."""
    depth = min(ring_depth(), len(rows))
    longest = max(r.stop - r.start for r in rows) + 1
    ring = _ring(depth, longest * m)
    return [ring[j % depth][:(r.stop - r.start + 1) * m].reshape(-1, m)
            for j, r in enumerate(rows)]


def _run_inline(fn, *args) -> Future:
    future = Future()
    future.set_result(fn(*args))
    return future


def _fold(fill, slots) -> np.ndarray:
    """The column sums of the blocks that ``fill(j, out)`` writes into
    ``out = slots[j][1:]``.

    The calling thread folds each block into the running sums as it arrives,
    in block order: the sums are copied into the spare row ``slots[j][0]``, and
    one reduction adds the block's rows to them one after another, as
    ``k.sum(axis=0)`` does.  Block j + ``ring_depth()`` is submitted only after
    block j is folded, so slots j and j + ``ring_depth()`` may share memory."""
    submit = _run_inline if len(slots) == 1 else _shared_pool().submit
    depth = ring_depth()
    futures = [submit(fill, j, slots[j][1:]) for j in range(min(depth, len(slots)))]
    column = []
    try:
        for j, slot in enumerate(slots):
            futures[j].result()
            if slot.shape[1] == 1:
                # numpy sums a single column pairwise, not row after row
                column.append(slot[1:, 0].copy())
            elif j == 0:
                sums = np.add.reduce(slot[1:], axis=0)
            else:
                slot[0] = sums
                np.add.reduce(slot, axis=0, out=sums)
            if j + depth < len(slots):
                futures.append(submit(fill, j + depth, slots[j + depth][1:]))
    finally:
        # no block may still write into a slot once the fold has returned or raised
        for future in futures:
            future.cancel()
        wait(futures)
    if column:
        sums = np.add.reduce(np.concatenate(column))[None]
    return sums


def column_means(kernel, xs: np.ndarray, ys: np.ndarray,
                 buf: np.ndarray | None = None) -> np.ndarray:
    """Column means of k = kernel.eval_matrix(xs, ys), bit for bit
    ``k.mean(axis=0)``, with k written in row blocks into ``buf`` (a
    ``matrix_buffer`` of this shape) or, without one, into this thread's ring."""
    n, m = xs.shape[0], ys.shape[0]
    rows = row_blocks(n, m)
    slots = _ring_slots(rows, m) if buf is None else _buffer_slots(buf, n, m, rows)
    return _fold(lambda j, out: kernel.eval_matrix(xs[rows[j]], ys, out=out), slots) / n


def drift_rows(kernel, xs: np.ndarray, ys: np.ndarray, weights,
               buf: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(means, rows)``: the column means of k = kernel.eval_matrix(xs, ys), as
    ``column_means`` gives them, and the (n, d) rows Σ_j w_j ∇₁k(x_i, y_j) for
    ``w = weights(means)``.

    ``buf`` is a ``matrix_buffer`` of this shape that a caller may reuse
    across calls.  Pass 1 writes each block's gradient plane into ``buf`` and
    k into the ring, from one ``eval_matrix`` sweep per block; a kernel whose
    plane is k (``plane_is_k``) writes k into ``buf`` alone.  Pass 2 hands
    each block of the plane to ``kernel.weighted_grad1``."""
    n, m = xs.shape[0], ys.shape[0]
    rows = row_blocks(n, m)
    slots = _buffer_slots(buf, n, m, rows)
    planes = [slot[1:] for slot in slots]
    sums = _fold(lambda j, out: kernel.eval_matrix(xs[rows[j]], ys, out=out, plane=planes[j]),
                 slots if kernel.plane_is_k else _ring_slots(rows, m))
    means = sums / n
    w = weights(means)
    return means, np.concatenate(list(map_blocks(
        lambda j: kernel.weighted_grad1(xs[rows[j]], ys, planes[j], w), range(len(rows)))))
