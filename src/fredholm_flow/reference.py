"""Reference measures π₀ given through their potential U.

Two kinds are supported: a diagonal Gaussian (the only proper reference any
shipped experiment uses) and an improper flat reference with ∇U ≡ 0.  Each
stores the Lipschitz constant of ∇U for diagnostics; it is never enforced at
runtime.
"""
from __future__ import annotations

import numpy as np

_LOG_2PI = np.log(2.0 * np.pi)


class ReferenceMeasure:
    """π₀(x) ∝ exp(−U(x)) with ∇U supplied to the drift.

    Parameters
    ----------
    dim : int
        Ambient dimension d.
    kind : {"gaussian", "flat"}
    mean, variances : array_like, shape (d,)
        Required for the gaussian kind; ``variances`` are the diagonal of the
        covariance.
    """

    def __init__(self, dim: int, kind: str = "gaussian", mean=None, variances=None):
        if kind not in ("gaussian", "flat"):
            raise ValueError(f"unknown reference kind {kind!r}")
        self.dim = int(dim)
        self.kind = kind
        if kind == "gaussian":
            self.mean = np.broadcast_to(np.asarray(mean, dtype=float), (self.dim,)).copy()
            self.variances = np.broadcast_to(np.asarray(variances, dtype=float), (self.dim,)).copy()
            if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.variances))):
                raise ValueError("mean and variances must be finite")
            if np.any(self.variances <= 0):
                raise ValueError("variances must be positive")
            with np.errstate(over="ignore"):
                self.lipschitz = float(np.max(1.0 / self.variances))
            if not np.isfinite(self.lipschitz):
                raise ValueError("variances must not be so small that 1/variance overflows")
        else:
            self.mean = None
            self.variances = None
            self.lipschitz = 0.0

    @classmethod
    def gaussian(cls, mean, variances) -> "ReferenceMeasure":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        return cls(mean.size, "gaussian", mean=mean, variances=variances)

    @classmethod
    def flat(cls, dim: int) -> "ReferenceMeasure":
        return cls(dim, "flat")

    @classmethod
    def from_sample(cls, points, mean_shift=0.0) -> "ReferenceMeasure":
        """Gaussian reference with the sample's moments, optionally mean-shifted."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] < 2:
            raise ValueError("a reference from a sample needs at least 2 points")
        with np.errstate(all="ignore"):   # an overflow is a non-finite moment, rejected below
            mean = pts.mean(axis=0) + np.asarray(mean_shift, dtype=float)
            var = pts.var(axis=0, ddof=1)
        return cls.gaussian(mean, var)

    def _check(self, xs) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if xs.shape[1] != self.dim:
            raise ValueError(f"points have dimension {xs.shape[1]}, expected {self.dim}")
        return xs

    def grad_u(self, xs) -> np.ndarray:
        """∇U at each row of ``xs``; zero for the flat kind."""
        single = np.asarray(xs).ndim == 1
        xs = self._check(xs)
        if self.kind == "flat":
            out = np.zeros_like(xs)
        else:
            out = (xs - self.mean) / self.variances
        return out[0] if single else out

    def log_density(self, xs) -> np.ndarray:
        """Normalized log π₀; undefined for the flat kind."""
        if self.kind == "flat":
            raise ValueError("flat reference has no normalizable density")
        single = np.asarray(xs).ndim == 1
        xs = self._check(xs)
        with np.errstate(over="ignore"):   # beyond the float range, the density is 0
            quad = np.sum((xs - self.mean) ** 2 / self.variances, axis=1)
        const = np.sum(np.log(self.variances)) + self.dim * _LOG_2PI
        out = -0.5 * (quad + const)
        return float(out[0]) if single else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "flat":
            raise ValueError("cannot sample from the improper flat reference")
        return self.mean + rng.standard_normal((n, self.dim)) * np.sqrt(self.variances)
