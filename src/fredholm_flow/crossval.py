"""L-fold cross-validation of the penalty weight α.

For each α and fold j the solver is fitted on the observations outside fold j
and scored with the objective estimate against fold j.  Scores use the full
penalized estimate by default; a data-term-only score is available.  Cells
are independent jobs; the solver stream of a cell is keyed by α only, so runs
across folds share noise (common random numbers) and symmetric folds score
identically.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng as _rng
from .blocks import map_jobs
from .errors import NumericalFailure
from .functional import g_hat
from .problems import ExperimentPreset, build_initial_cloud
from .solver import SolverConfig, run
from .state import _finite_matrix

SCORE_KINDS = ("penalized", "data_only")


@dataclass(frozen=True)
class CvPlan:
    alpha_grid: tuple
    n_folds: int = 5
    seed: int = 0
    score: str = "penalized"

    def __post_init__(self):
        grid = tuple(float(a) for a in self.alpha_grid)
        if len(grid) < 1 or any(not 0 < a < np.inf for a in grid):
            raise ValueError("alpha_grid must be nonempty, positive and finite")
        if list(grid) != sorted(set(grid)):
            raise ValueError("alpha_grid must be strictly increasing")
        if self.n_folds < 2:
            raise ValueError("need at least 2 folds")
        if self.score not in SCORE_KINDS:
            raise ValueError(f"score must be one of {SCORE_KINDS}")
        object.__setattr__(self, "alpha_grid", grid)


@dataclass(frozen=True)
class CvCell:
    alpha: float
    fold: int
    value: float
    status: str


@dataclass(frozen=True)
class CvResult:
    plan: CvPlan
    cells: tuple

    def summary(self) -> list[tuple[float, float, int]]:
        """(alpha, mean score over ok folds, number of ok folds) per alpha."""
        out = []
        for alpha in self.plan.alpha_grid:
            vals = [c.value for c in self.cells if c.alpha == alpha and c.status == "ok"]
            mean = float(np.mean(vals)) if vals else float("nan")
            out.append((alpha, mean, len(vals)))
        return out

    def selected_alpha(self) -> float:
        rows = [(mean, alpha) for alpha, mean, n_ok in self.summary() if n_ok > 0]
        if not rows:
            raise NumericalFailure("every cross-validation cell failed")
        return min(rows)[1]


def make_folds(n_samples: int, n_folds: int, seed: int) -> list[np.ndarray]:
    """Seeded uniform partition into near-equal folds (a true partition)."""
    if n_samples < n_folds:
        raise ValueError("need at least one observation per fold")
    perm = _rng.stream(seed, _rng.ROLE_FOLDS).permutation(n_samples)
    return [np.sort(part) for part in np.array_split(perm, n_folds)]


def _run_cell(plan, preset, observations, base_config, folds, alpha_index, fold_index,
              init):
    alpha = plan.alpha_grid[alpha_index]
    fold = folds[fold_index]
    train, heldout = np.delete(observations, fold, axis=0), observations[fold]
    config = replace(base_config, alpha=alpha,
                     seed=_rng.derive_seed(plan.seed, alpha_index))
    try:
        ref = preset.make_reference(train)
        start = build_initial_cloud(preset, config, train, ref, **init)
        cloud, _ = run(config, preset.kernel, ref, start, train)
        est = g_hat(cloud, heldout, preset.kernel, ref, alpha, config.eta)
        value = est.total if plan.score == "penalized" else est.data_term
        return CvCell(alpha, fold_index, float(value), "ok")
    except NumericalFailure as failure:
        return CvCell(alpha, fold_index, float("nan"), f"failed: {failure}")


def cv_score(plan: CvPlan, preset: ExperimentPreset, observations: np.ndarray,
             base_config: SolverConfig | None = None, workers: int = 1,
             folds: list | None = None, init: dict | None = None) -> CvResult:
    """Score every (α, fold) cell of the (M, p) ``observations`` and collect the table.

    The sample is checked finite before any cell runs.  ``folds`` may be
    given explicitly (index arrays forming a partition); otherwise a seeded
    near-equal partition is drawn.  ``init`` holds the initialization keys
    ``mode`` (default "auto"), ``point`` and ``box``, as
    ``build_initial_cloud`` takes them.  Cells run as jobs on the block pool,
    at most ``workers`` at a time (``blocks.map_jobs``); results are identical
    for any worker count.
    """
    observations = _finite_matrix(observations, "observation sample")
    base_config = preset.solver if base_config is None else base_config
    init = init or {}
    if folds is None:
        folds = make_folds(len(observations), plan.n_folds, plan.seed)
    if len(folds) != plan.n_folds:
        raise ValueError("number of folds does not match the plan")
    jobs = [(ai, fi) for ai in range(len(plan.alpha_grid)) for fi in range(plan.n_folds)]
    cells = map_jobs(lambda job: _run_cell(plan, preset, observations, base_config, folds,
                                           *job, init), jobs, workers)
    return CvResult(plan, tuple(cells))
