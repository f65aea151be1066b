"""The particle cloud, and the finiteness check of every point set.  An
observation sample is a plain (M, p) float array, checked where it enters."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure


def _finite_matrix(arr, name: str, step: int | None = None) -> np.ndarray:
    out = np.atleast_2d(np.asarray(arr, dtype=float))
    if out.ndim != 2 or out.size < 1:
        raise ValueError(f"{name} must be a nonempty 2-D array")
    # NaN propagates through min and ±inf shows in min or max: no whole-array temporary
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        bad = int(np.argwhere(~np.all(np.isfinite(out), axis=1))[0, 0])
        raise NumericalFailure(f"non-finite entries in {name}", step=step, index=bad)
    return out


@dataclass(frozen=True)
class ParticleCloud:
    """State of the solver: N points in R^d plus the step index that produced them."""

    points: np.ndarray
    step_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", _finite_matrix(self.points, "particle cloud",
                                                          step=self.step_index))

    @property
    def n_particles(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]
