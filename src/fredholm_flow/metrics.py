"""Accuracy metrics: integrated square error, 1-D Wasserstein-1 and
reconvolution of a particle estimate through the kernel.

All of them are plain numpy: the 1-D Wasserstein-1 distance is computed here
from sorted samples, so importing this module loads no scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import column_means
from .density import EvaluationGrid
from .kernels import KernelModel


@dataclass(frozen=True)
class DensityOnGrid:
    """Density values on the flattened nodes of an evaluation grid."""

    grid: EvaluationGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        n_nodes = int(np.prod(self.grid.shape))
        if values.size != n_nodes:
            raise ValueError(f"{values.size} values for a grid of {n_nodes} nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        object.__setattr__(self, "values", values)

    def integral(self) -> float:
        return float(self.grid.trapezoid_weights() @ self.values)


def ise(estimate: DensityOnGrid, truth: DensityOnGrid) -> float:
    """Trapezoid quadrature of (truth − estimate)² over the common grid."""
    if estimate.grid.spans != truth.grid.spans:
        raise ValueError("ISE requires identical grids")
    diff = truth.values - estimate.values
    return float(estimate.grid.trapezoid_weights() @ diff**2)


def wasserstein1_1d(sample_a, sample_b) -> float:
    """W₁ between two empirical measures on the line.

    Equal sizes use the optimal sorted coupling (1/n) Σ |a_(i) − b_(i)|.
    Unequal sizes use the exact CDF form ∫ |F_a − F_b|: both empirical CDFs
    are step functions, constant between consecutive points of the merged
    sorted support, so the integral is a dot product with the gaps.
    """
    a = np.asarray(sample_a, dtype=float).ravel()
    b = np.asarray(sample_b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if a.size == b.size:
        return float(np.mean(np.abs(np.sort(a) - np.sort(b))))
    support = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(np.sort(a), support[:-1], "right") / a.size
    cdf_b = np.searchsorted(np.sort(b), support[:-1], "right") / b.size
    return float(np.abs(cdf_a - cdf_b) @ np.diff(support))


def reconvolve(source, kernel: KernelModel, y_grid: EvaluationGrid) -> DensityOnGrid:
    """Push a particle estimate of the solution back through the kernel: the
    particle mean (1/N) Σ_k k(X_k, y) at every node y of ``y_grid``.

    ``source`` is a particle cloud or a raw (N, d) point matrix.
    """
    if kernel.dim_x != kernel.dim_y:
        raise ValueError("reconvolution needs a kernel with matching input/output dimension")
    pts = np.atleast_2d(getattr(source, "points", source))
    return DensityOnGrid(y_grid, column_means(kernel, pts, y_grid.nodes()))
