"""Monte Carlo estimate of the regularized objective.

The estimate splits into the data term, −(1/M) Σ_j log((1/N) Σ_k k(X_k, y_j) + η),
and the penalty term, (α/N) Σ_k [log π̂(X_k) − log π₀(X_k)], where π̂ is the
plug-in KDE of the current cloud (Silverman bandwidth) evaluated at the
particles themselves through ``GaussianKde.at_particles``, which sums the
symmetric N×N kernel matrix once per pair.  The data term reads only the
column means of k(X_k, y_j); the solver passes the drift's.  It drives the
trace, the stopping rule and cross-validation scoring.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import column_means
from .density import GaussianKde
from .kernels import KernelModel
from .reference import ReferenceMeasure

# smallest value of a denominator λ[k(·, y)] + η, in the drift weights and the
# data term: at η = 0 an underflowed column mean divides by it, not by zero
DENOM_FLOOR = 1e-30


@dataclass(frozen=True)
class FunctionalEstimate:
    data_term: float
    kl_term: float
    floored: bool = False

    @property
    def total(self) -> float:
        return self.data_term + self.kl_term


def g_hat(points, observations, kernel: KernelModel, ref: ReferenceMeasure,
          alpha: float, eta: float = 0.0, k_mean: np.ndarray | None = None) -> FunctionalEstimate:
    """Objective estimate for (N, d) particle ``points`` against (M, p) ``observations``.

    For ``alpha > 0`` the penalty needs a gaussian reference; the KDE is
    fitted on ``points`` with the default bandwidth rule.  A zero mean-kernel
    at η = 0 is clamped at ``DENOM_FLOOR`` and the estimate is flagged as
    floored.  ``k_mean`` may carry the precomputed column means
    (1/N) Σ_i k(X_i, y_j) for these exact inputs.
    """
    points = np.atleast_2d(points)
    if k_mean is None:
        k_mean = column_means(kernel, points, np.atleast_2d(observations))
    mean_k = k_mean + eta
    floored = bool(np.any(mean_k < DENOM_FLOOR))
    data_term = float(-np.mean(np.log(np.maximum(mean_k, DENOM_FLOOR))))

    if alpha == 0.0:
        return FunctionalEstimate(data_term, 0.0, floored)
    if ref.kind != "gaussian":
        raise ValueError("the penalty term needs a proper (gaussian) reference")
    log_density = np.log(GaussianKde(points).at_particles())
    with np.errstate(over="ignore"):   # a sum beyond the float range reads inf
        kl = float(np.mean(log_density - ref.log_density(points)))
    return FunctionalEstimate(data_term, alpha * kl, floored)
