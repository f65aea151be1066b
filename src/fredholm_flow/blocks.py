"""Row blocks of pairwise work on one process-wide thread pool.

Every O(N·m) pass of a solver step (the kernel matrix, its weighted gradient
and the KDE at the particles) is row-separable: row i reads all of the other
point set, but particle i alone.  ``row_blocks`` cuts the rows into blocks of
at most ``BLOCK_PAIRS`` pairs (at least one row each); the cut depends on
(n, m) only, never on the thread count.  ``map_blocks`` runs one task per
block and yields the results in block order, so a caller that folds them in
that order gets the same bits for any number of threads.  A single block
runs inline, with no pool call.

The pool has one thread per core this process may run on.  It is shared by
every caller, the replicate threads of ``--workers`` included, so no thread
count is passed down.  A task never submits to the pool, so no task waits on
another.

``scratch`` gives each thread reusable block-sized workspaces: a block costs
the same whatever the allocator's state (a fresh 2 MB array sits at glibc's
dynamic mmap threshold and may be mapped and unmapped on every call).
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

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


def matrix_buffer(n: int, m: int) -> np.ndarray:
    """Storage for an (n, m) matrix held by ``column_means``: the row blocks, one
    spare row before each block after the first."""
    return np.empty((n + len(row_blocks(n, m)) - 1, m))


def column_means(kernel, xs: np.ndarray, ys: np.ndarray, buf: np.ndarray | None = None):
    """``(blocks, means)``: k = kernel.eval_matrix(xs, ys) in row blocks and its
    column means, bit for bit ``k.mean(axis=0)``.

    ``blocks`` lists ``(rows, k[rows])``, views into ``buf`` (a ``matrix_buffer``
    of this shape, or a new one).  The calling thread folds each block's rows
    into the running column sums as the block arrives, in block order: the
    sums are copied into the spare row before the block, and one reduction
    adds the block's rows to them one after another, as ``k.sum(axis=0)`` does.
    """
    n, m = xs.shape[0], ys.shape[0]
    rows = row_blocks(n, m)
    if buf is None or buf.shape != (n + len(rows) - 1, m):
        buf = matrix_buffer(n, m)
    blocks = [(r, buf[r.start + j:r.stop + j]) for j, r in enumerate(rows)]
    sums = np.empty(m)
    done = map_blocks(lambda block: kernel.eval_matrix(xs[block[0]], ys, out=block[1]), blocks)
    for j, _ in enumerate(done):
        first = rows[j].start + j
        if j:
            first -= 1
            buf[first] = sums
        np.add.reduce(buf[first:rows[j].stop + j], axis=0, out=sums)
    return blocks, sums / n
