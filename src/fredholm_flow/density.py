"""Gaussian kernel density readout of a particle cloud.

Diagonal bandwidths only; the rule of thumb is Silverman's.  The KDE with
bandwidth H is the particle mean of the Gaussian convolution kernel with
variances diag(H), so all evaluation goes through its ``eval_matrix``.  It
asks for no gradient plane, so the kernel forms one coordinate difference
at a time, the first in the k block and the others in one temporary, both
in the thread's arena of ``BLOCK_PAIRS`` floats: a block needs no d planes,
and holds ``BLOCK_PAIRS // 2`` pairs at most, ``BLOCK_PAIRS`` at d = 1,
where there is no temporary.  There are three evaluations:

- ``evaluate(xs)``: arbitrary queries, as ``blocks.column_means`` of the
  kernel, the drift's mean sweep with the queries in place of the
  observations;
- ``at_particles()``: the cloud at its own points, summing the symmetric N×N
  matrix by upper-triangular row blocks (at least two), each block's rows
  swept as the observations of ``eval_matrix``, so about half the exps are
  computed (3/4 when the square is one band); a pool task of ``blocks``
  sweeps the row blocks of one band of ``BLOCK_PAIRS`` pairs, and the
  calling thread adds their row sums and the column sums below the
  diagonal in block order, so the result is the same bits for any thread
  count;
- ``on_grid(grid)``: a tensor-product grid; at d = 1 it is ``evaluate`` of
  the nodes, a node block at a time, and at d ≥ 2 the diagonal Gaussian
  factorizes over coordinates, so one 1-D (n_i, N) factor per axis, the
  axis's nodes swept as observations, is contracted by GEMM (in 2-D,
  A₁ A₂ᵀ / N) in place of one exp per (node, particle) pair, a particle
  chunk at a time, with every factor block and leading-node product within
  an eighth of a block.

Direct summation (no binning) keeps the estimator exact relative to its
definition; the three paths differ only in summation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BLOCK_PAIRS, arena, column_means, map_blocks, row_blocks
from .kernels import GaussianConvolutionKernel

# entries of each 1-D factor block and leading-node product of the grid
# readout: an eighth of a block, so the readout adds a few small arrays
# to a run's peak, not blocks as large as a step's
_GRID_PAIRS = BLOCK_PAIRS // 8
# coordinates of each row block of ``EvaluationGrid.map_nodes``: 32 KB of
# nodes, so a whole-grid truth density adds its values and a few such blocks
_NODE_BLOCK = _GRID_PAIRS // 8


def _points_of(cloud_or_points) -> np.ndarray:
    pts = getattr(cloud_or_points, "points", cloud_or_points)
    return np.atleast_2d(np.asarray(pts, dtype=float))


@dataclass(frozen=True)
class EvaluationGrid:
    """Tensor-product grid, per-dimension (lo, hi, n_points), nodes row-major."""

    spans: tuple

    def __post_init__(self):
        spans = tuple((float(lo), float(hi), int(n)) for lo, hi, n in self.spans)
        for lo, hi, n in spans:
            if not math.isfinite(hi - lo):
                raise ValueError("grid bounds and their span must be finite")
            if not lo < hi:
                raise ValueError("grid requires lo < hi")
            if n < 2:
                raise ValueError("grid requires at least 2 points per dimension")
        object.__setattr__(self, "spans", spans)

    @property
    def dim(self) -> int:
        return len(self.spans)

    @property
    def shape(self) -> tuple:
        return tuple(n for _, _, n in self.spans)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, n) for lo, hi, n in self.spans]

    def map_nodes(self, fn) -> np.ndarray:
        """``fn`` of the (n_nodes, d) node list in row-major order, for a row-wise
        ``fn`` of (rows, d) nodes, one value per row, evaluated on row blocks of
        at most ``_NODE_BLOCK`` coordinates into one (n_nodes,) array, so the
        whole node list is never held."""
        axes, n = self.axes(), math.prod(self.shape)
        step = max(1, _NODE_BLOCK // self.dim)
        out = np.empty(n)
        for start in range(0, n, step):
            index = np.unravel_index(np.arange(start, min(start + step, n)), self.shape)
            out[start:start + step] = fn(np.column_stack([a[i] for a, i in zip(axes, index)]))
        return out

    def trapezoid_weights(self) -> np.ndarray:
        """Flattened tensor-product trapezoid quadrature weights."""
        w = None
        for lo, hi, n in self.spans:
            h = (hi - lo) / (n - 1)
            w1 = np.full(n, h)
            w1[0] = w1[-1] = h / 2
            w = w1 if w is None else np.multiply.outer(w, w1)
        return w.ravel()


def silverman_bandwidth(cloud) -> np.ndarray:
    """Rule-of-thumb diagonal of H, the variances h_i² with
    h_i = (4/(d+2))^{1/(d+4)} N^{-1/(d+4)} σ̂_i."""
    pts = _points_of(cloud)
    n, d = pts.shape
    if n < 2:
        raise ValueError("bandwidth selection needs at least 2 particles")
    factor = (4.0 / (d + 2)) ** (1.0 / (d + 4)) * n ** (-1.0 / (d + 4))
    with np.errstate(over="ignore"):   # a spread beyond the float range is rejected below
        sd = pts.std(axis=0, ddof=1)
        diag = (factor * sd) ** 2
    for bad, what in ((sd <= 0, "zero sample variance"),
                      (~np.isfinite(diag), "a sample spread beyond the float range")):
        if bad.any():
            raise ValueError(f"coordinate {np.argmax(bad)} has {what}")
    return diag


class GaussianKde:
    """Fitted KDE handle: the cloud, the diagonal of its bandwidth H (Silverman's
    by default), and evaluation at arbitrary queries, at the particles themselves
    and on a tensor-product grid."""

    def __init__(self, cloud, bandwidth=None):
        self.points = _points_of(cloud)
        diag = silverman_bandwidth(self.points) if bandwidth is None else \
            np.atleast_1d(np.asarray(bandwidth, dtype=float))
        if not np.all(diag > 0):   # NaN too; the kernel rejects an infinite entry
            raise ValueError(f"bandwidth diagonal {diag.tolist()} must be positive")
        self._kernel = GaussianConvolutionKernel(np.sqrt(diag))

    def evaluate(self, xs) -> np.ndarray:
        """(1/N) Σ_k det(H)^{-1/2} φ(H^{-1/2}(x − X_k)) at each row x of ``xs``."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return column_means(self._kernel, self.points, xs)

    def at_particles(self) -> np.ndarray:
        """``evaluate(points)`` from the upper triangle: k(X_i, X_j) == k(X_j, X_i)
        bit for bit, since (a − b)² == (b − a)², so only the summation order changes:
        each row block is swept as observations against the particles from its
        first row on."""
        pts = self.points
        n = pts.shape[0]
        arrays = self._kernel.arrays[0]
        # a task per row band of BLOCK_PAIRS pairs, swept in row blocks whose k
        # and temporary, against the particles from the band's first row on,
        # fit the arena
        tasks = [[slice(band.start + r.start, band.start + r.stop)
                  for r in row_blocks(band.stop - band.start, n - band.start, arrays)]
                 for band in row_blocks(n, n)]
        if len(tasks) == 1 and n > 1:
            # a square of one band still sweeps its triangle in two row blocks,
            # 3/4 of the pairs, in one task
            tasks = [[slice(0, n // 2), slice(n // 2, n)]]

        def sums(task):
            # k and the kernel's temporary in this thread's arena
            parts = []
            for r in task:
                k, work = arena((r.stop - r.start, n - r.start), 1, arrays - 1)
                k = self._kernel.eval_matrix(pts[r.start:], pts[r], out=k[0], work=work)
                parts.append((r, k.sum(axis=1), k[:, r.stop - r.start:].sum(axis=0)))
            return parts

        out = np.zeros(n)
        for task in map_blocks(sums, tasks):
            for r, row_sums, col_sums in task:
                out[r] += row_sums
                out[r.stop:] += col_sums
        return out / n

    def on_grid(self, grid: EvaluationGrid) -> np.ndarray:
        """KDE at every grid node, flattened row-major, as a product of 1-D factors."""
        if grid.dim != self.points.shape[1]:
            raise ValueError(f"grid has dimension {grid.dim}, expected {self.points.shape[1]}")
        if grid.dim == 1:
            return grid.map_nodes(self.evaluate)
        factor_kernels = [GaussianConvolutionKernel(s) for s in self._kernel.noise_sd]
        axes = [a[:, None] for a in grid.axes()]
        lead_shape, n_last = grid.shape[:-1], grid.shape[-1]
        n_lead = math.prod(lead_shape)
        # particles per block keep every (n_i, block) factor within _GRID_PAIRS;
        # leading nodes per block keep their row products within it too
        p_block = max(1, _GRID_PAIRS // max(grid.shape))
        r_block = max(1, _GRID_PAIRS // p_block)
        out = np.zeros((n_lead, n_last))
        for p0 in range(0, self.points.shape[0], p_block):
            chunk = self.points[p0:p0 + p_block]
            factors = [kern.eval_matrix(chunk[:, i:i + 1], axis)
                       for i, (kern, axis) in enumerate(zip(factor_kernels, axes))]
            for r0 in range(0, n_lead, r_block):
                idx = np.unravel_index(np.arange(r0, min(r0 + r_block, n_lead)), lead_shape)
                lead = factors[0][idx[0]]
                for f, j in zip(factors[1:-1], idx[1:]):
                    lead *= f[j]
                out[r0:r0 + r_block] += lead @ factors[-1].T
        return out.ravel() / self.points.shape[0]
