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


@dataclass(frozen=True)
class FunctionalEstimate:
    data_term: float
    kl_term: float
    floored: bool = False

    @property
    def total(self) -> float:
        return self.data_term + self.kl_term


def g_hat(cloud, observations, kernel: KernelModel, ref: ReferenceMeasure,
          alpha: float, eta: float = 0.0, denom_floor: float = 1e-30,
          k_mean: np.ndarray | None = None) -> FunctionalEstimate:
    """Objective estimate for a cloud against an observation sample.

    For ``alpha > 0`` the penalty needs a gaussian reference; the KDE is
    fitted on ``cloud`` with the default bandwidth rule.  A zero mean-kernel
    at η = 0 is clamped at ``denom_floor`` and the estimate is flagged as
    floored.  ``k_mean`` may carry the precomputed column means
    (1/N) Σ_i k(X_i, y_j) for these exact inputs.
    """
    x = np.atleast_2d(getattr(cloud, "points", cloud))
    y = np.atleast_2d(getattr(observations, "points", observations))
    if k_mean is None:
        k_mean = column_means(kernel, x, y)
    mean_k = k_mean + eta
    floored = bool(np.any(mean_k < denom_floor))
    data_term = float(-np.mean(np.log(np.maximum(mean_k, denom_floor))))

    if alpha == 0.0:
        return FunctionalEstimate(data_term, 0.0, floored)
    if ref.kind != "gaussian":
        raise ValueError("the penalty term needs a proper (gaussian) reference")
    log_density = np.log(GaussianKde(x).at_particles())
    kl = float(np.mean(log_density - ref.log_density(x)))
    return FunctionalEstimate(data_term, alpha * kl, floored)
