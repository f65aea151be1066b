"""Gaussian kernel density readout of a particle cloud.

Diagonal bandwidths only; the rule of thumb is Silverman's.  The KDE with
bandwidth H is the particle mean of the Gaussian convolution kernel with
variances diag(H), so all evaluation goes through its ``eval_matrix``, and no
pairwise block holds more than ``BLOCK_PAIRS`` entries.  Each evaluation uses
its structure:

- ``evaluate(xs)``: arbitrary queries, in row blocks on the shared pool of
  ``blocks``;
- ``at_particles()``: the cloud at its own points, summing the symmetric N×N
  matrix by upper-triangular row blocks, so about half the exps are computed;
  the blocks run on the shared pool, and the calling thread adds their row
  sums and the column sums below the diagonal in block order, so the result
  is the same bits for any thread count;
- ``on_grid(grid)``: a tensor-product grid; the diagonal Gaussian factorizes
  over coordinates, so one 1-D (n_i, N) factor per axis is contracted by GEMM
  (in 2-D, A₁ A₂ᵀ / N) in place of one exp per (node, particle) pair.

Direct summation (no binning) keeps the estimator exact relative to its
definition; the three paths differ only in summation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BLOCK_PAIRS, map_blocks, row_blocks, scratch
from .kernels import GaussianConvolutionKernel


def _points_of(cloud_or_points) -> np.ndarray:
    pts = getattr(cloud_or_points, "points", cloud_or_points)
    return np.atleast_2d(np.asarray(pts, dtype=float))


@dataclass(frozen=True)
class BandwidthMatrix:
    """Diagonal of the (positive definite) bandwidth matrix H."""

    diag: np.ndarray

    def __post_init__(self):
        diag = np.atleast_1d(np.asarray(self.diag, dtype=float))
        if not np.all(np.isfinite(diag)):
            raise ValueError("bandwidth diagonal must be finite")
        if np.any(diag <= 0):
            raise ValueError("bandwidth diagonal must be strictly positive")
        object.__setattr__(self, "diag", diag)

    @property
    def dim(self) -> int:
        return self.diag.size


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

    def nodes(self) -> np.ndarray:
        """Flattened (n_nodes, d) node list in row-major order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def trapezoid_weights(self) -> np.ndarray:
        """Flattened tensor-product trapezoid quadrature weights."""
        w = None
        for lo, hi, n in self.spans:
            h = (hi - lo) / (n - 1)
            w1 = np.full(n, h)
            w1[0] = w1[-1] = h / 2
            w = w1 if w is None else np.multiply.outer(w, w1)
        return w.ravel()


def silverman_bandwidth(cloud) -> BandwidthMatrix:
    """Rule-of-thumb diagonal bandwidth, h_i = (4/(d+2))^{1/(d+4)} N^{-1/(d+4)} σ̂_i."""
    pts = _points_of(cloud)
    n, d = pts.shape
    if n < 2:
        raise ValueError("bandwidth selection needs at least 2 particles")
    sd = pts.std(axis=0, ddof=1)
    degenerate = np.nonzero(sd <= 0)[0]
    if degenerate.size:
        raise ValueError(f"coordinate {degenerate[0]} has zero sample variance")
    factor = (4.0 / (d + 2)) ** (1.0 / (d + 4)) * n ** (-1.0 / (d + 4))
    return BandwidthMatrix((factor * sd) ** 2)


class GaussianKde:
    """Fitted KDE handle: the cloud, a bandwidth, and evaluation at arbitrary
    queries, at the particles themselves and on a tensor-product grid."""

    def __init__(self, cloud, bandwidth: BandwidthMatrix | None = None):
        self.points = _points_of(cloud)
        self.bandwidth = silverman_bandwidth(self.points) if bandwidth is None else bandwidth
        self._kernel = GaussianConvolutionKernel(np.sqrt(self.bandwidth.diag))

    def _block(self, xs, ys) -> np.ndarray:
        """k(xs, ys) for one block, in this thread's workspace."""
        return self._kernel.eval_matrix(xs, ys, out=scratch("kde", xs.shape[0], ys.shape[0]))

    def evaluate(self, xs) -> np.ndarray:
        """(1/N) Σ_k det(H)^{-1/2} φ(H^{-1/2}(x − X_k)) at each row x of ``xs``."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        rows = row_blocks(xs.shape[0], self.points.shape[0])
        out = np.empty(xs.shape[0])
        means = map_blocks(lambda r: self._block(xs[r], self.points).mean(axis=1), rows)
        for r, mean in zip(rows, means):
            out[r] = mean
        return out

    def at_particles(self) -> np.ndarray:
        """``evaluate(points)`` from the upper triangle: k(X_i, X_j) == k(X_j, X_i)
        bit for bit, since (a − b)² == (b − a)², so only the summation order changes."""
        pts = self.points
        n = pts.shape[0]
        rows = row_blocks(n, n)

        def sums(r):
            k = self._block(pts[r], pts[r.start:])
            return k.sum(axis=1), k[:, r.stop - r.start:].sum(axis=0)

        out = np.zeros(n)
        for r, (row_sums, col_sums) in zip(rows, map_blocks(sums, rows)):
            out[r] += row_sums
            out[r.stop:] += col_sums
        return out / n

    def on_grid(self, grid: EvaluationGrid) -> np.ndarray:
        """KDE at every grid node, flattened row-major, as a product of 1-D factors."""
        if grid.dim != self.points.shape[1]:
            raise ValueError(f"grid has dimension {grid.dim}, expected {self.points.shape[1]}")
        if grid.dim == 1:
            return self.evaluate(grid.nodes())
        factor_kernels = [GaussianConvolutionKernel(s) for s in self._kernel.noise_sd]
        axes = [a[:, None] for a in grid.axes()]
        lead_shape, n_last = grid.shape[:-1], grid.shape[-1]
        n_lead = int(np.prod(lead_shape))
        # particles per block keep every (n_i, block) factor within the cap;
        # leading nodes per block keep their row products within it too
        p_block = max(1, BLOCK_PAIRS // max(grid.shape))
        r_block = max(1, BLOCK_PAIRS // p_block)
        out = np.zeros((n_lead, n_last))
        for p0 in range(0, self.points.shape[0], p_block):
            chunk = self.points[p0:p0 + p_block]
            factors = [kern.eval_matrix(axis, chunk[:, i:i + 1])
                       for i, (kern, axis) in enumerate(zip(factor_kernels, axes))]
            for r0 in range(0, n_lead, r_block):
                idx = np.unravel_index(np.arange(r0, min(r0 + r_block, n_lead)), lead_shape)
                lead = factors[0][idx[0]]
                for f, j in zip(factors[1:-1], idx[1:]):
                    lead = lead * f[j]
                out[r0:r0 + r_block] += lead @ factors[-1].T
        return out.ravel() / self.points.shape[0]
