"""Library types reject non-finite and out-of-range values with a ValueError,
so a bad number is a config error at the CLI, never a numerical failure."""
import numpy as np
import pytest

from fredholm_flow import (CvPlan, GaussianConvolutionKernel, ReferenceMeasure,
                           SolverConfig, ToyGaussianSpec, oslem_solve, toy_sweep)
from fredholm_flow.baselines import grid_problem_from_continuous

NAN, INF = float("nan"), float("inf")
SOLVER = dict(alpha=0.1, gamma=0.1, n_particles=10, n_steps=1)
TOY = ToyGaussianSpec(0.2, 0.2, 0.5, 1.0)


def _grid(n_bins=10, lo=0.0, hi=1.0):
    kernel = GaussianConvolutionKernel([0.1])
    return grid_problem_from_continuous(kernel, lambda x: np.ones(len(x)),
                                        ReferenceMeasure.gaussian([0.5], [1.0]), n_bins, lo, hi)


@pytest.mark.parametrize("build", [
    lambda: SolverConfig(**dict(SOLVER, alpha=NAN)),
    lambda: SolverConfig(**dict(SOLVER, gamma=INF)),
    lambda: SolverConfig(**dict(SOLVER, eta=NAN)),
    lambda: SolverConfig(**dict(SOLVER, denom_floor=INF)),
    lambda: SolverConfig(**dict(SOLVER, stop_tol=NAN)),
    lambda: SolverConfig(**dict(SOLVER, n_particles=1)),
    lambda: CvPlan(alpha_grid=(0.1, NAN)),
    lambda: CvPlan(alpha_grid=(0.1, INF)),
    lambda: toy_sweep(TOY, [0.5, NAN]),
    lambda: ToyGaussianSpec(INF, 0.2, 0.5, 1.0),
    lambda: _grid(n_bins=0),
    lambda: _grid(lo=-INF),
    lambda: _grid(hi=NAN),
    lambda: _grid(lo=1.0, hi=1.0),
    lambda: oslem_solve(_grid(), 0.01, -1),
], ids=["alpha-nan", "gamma-inf", "eta-nan", "denom-floor-inf", "stop-tol-nan",
        "one-particle", "cv-alpha-nan", "cv-alpha-inf", "toy-alpha-nan", "toy-sigma-inf",
        "no-bins", "lo-inf", "hi-nan", "empty-span", "negative-iterations"])
def test_library_types_reject_bad_values(build):
    with pytest.raises(ValueError):
        build()
