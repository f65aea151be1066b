"""The finiteness check of every point set.  A particle cloud is a plain (N, d)
float array and an observation sample a plain (M, p) one, each checked where it
is made or enters."""
from __future__ import annotations

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
