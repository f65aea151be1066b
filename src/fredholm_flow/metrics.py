"""Accuracy metrics: integrated square error, 1-D Wasserstein-1 and
reconvolution of a particle estimate through the kernel.

All of them are plain numpy: the 1-D Wasserstein-1 distance is computed here
from sorted samples, so importing this module loads no scipy.
"""
from __future__ import annotations

import numpy as np

from .blocks import column_means
from .density import EvaluationGrid
from .kernels import KernelModel


def ise(grid: EvaluationGrid, estimate, truth) -> float:
    """Trapezoid quadrature over ``grid`` of (truth − estimate)², both given as
    their values at the flattened grid nodes."""
    nodes = (int(np.prod(grid.shape)),)
    if np.shape(estimate) != nodes or np.shape(truth) != nodes:
        raise ValueError(f"values of shape {np.shape(estimate)} and {np.shape(truth)} "
                         f"for a grid of {nodes[0]} nodes")
    return float(grid.trapezoid_weights() @ (truth - estimate) ** 2)


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


def reconvolve(points, kernel: KernelModel, y_grid: EvaluationGrid) -> np.ndarray:
    """Push a particle estimate of the solution back through the kernel: the
    particle mean (1/N) Σ_k k(X_k, y) at every node y of ``y_grid``, from the
    (N, d) point matrix ``points``."""
    if kernel.dim_x != kernel.dim_y:
        raise ValueError("reconvolution needs a kernel with matching input/output dimension")
    return column_means(kernel, np.atleast_2d(points), y_grid.nodes())
