"""Library types reject non-finite and out-of-range values with a ValueError,
so a bad number is a config error at the CLI, never a numerical failure."""
import numpy as np
import pytest

from fredholm_flow import (CvPlan, EvaluationGrid, GaussianConvolutionKernel, GaussianKde,
                           GaussianMixtureDelayKernel, RadonAlignmentKernel, ReferenceMeasure,
                           SolverConfig, ToyGaussianSpec, oslem_solve, toy_sweep)
from fredholm_flow.baselines import grid_problem_from_continuous

NAN, INF = float("nan"), float("inf")
SOLVER = dict(alpha=0.1, gamma=0.1, n_particles=10, n_steps=1)
TOY = ToyGaussianSpec(0.2, 0.2, 0.5, 1.0)


def _delay(weights=(0.5, 0.5), means=(1.0, 2.0), sds=(1.0, 1.0)):
    return GaussianMixtureDelayKernel(weights, means, sds)


def _grid(n_bins=10, lo=0.0, hi=1.0):
    kernel = GaussianConvolutionKernel([0.1])
    return grid_problem_from_continuous(kernel, lambda x: np.ones(len(x)),
                                        ReferenceMeasure.gaussian([0.5], [1.0]), n_bins, lo, hi)


@pytest.mark.parametrize("build", [
    lambda: SolverConfig(**dict(SOLVER, alpha=NAN)),
    lambda: SolverConfig(**dict(SOLVER, gamma=INF)),
    lambda: SolverConfig(**dict(SOLVER, eta=NAN)),
    lambda: SolverConfig(**dict(SOLVER, stop_tol=NAN)),
    lambda: SolverConfig(**dict(SOLVER, n_particles=1)),
    lambda: CvPlan(alpha_grid=(0.1, NAN)),
    lambda: CvPlan(alpha_grid=(0.1, INF)),
    lambda: toy_sweep(TOY, [0.5, NAN]),
    lambda: ToyGaussianSpec(INF, 0.2, 0.5, 1.0),
    lambda: _grid(n_bins=0),
    lambda: _grid(n_bins=2**63),
    lambda: _grid(n_bins=2.5),
    lambda: _grid(lo=-INF),
    lambda: _grid(hi=NAN),
    lambda: _grid(lo=1.0, hi=1.0),
    lambda: oslem_solve(_grid(), 0.01, -1),
    lambda: GaussianConvolutionKernel([NAN]),
    lambda: GaussianConvolutionKernel([INF]),
    lambda: GaussianConvolutionKernel([1e-200]),
    lambda: GaussianConvolutionKernel([1e-165, 1e200]),
    lambda: _delay(weights=[NAN, 1.0]),
    lambda: _delay(means=[0.0, NAN]),
    lambda: _delay(sds=[NAN, 1.0]),
    lambda: _delay(sds=[1e-320, 1.0]),
    lambda: _delay(weights=[1.0, 0.0], sds=[1.0, 1e-200]),
    lambda: RadonAlignmentKernel(sigma=NAN),
    lambda: RadonAlignmentKernel(sigma=1e-300),
    lambda: RadonAlignmentKernel(sigma=0.05, xi_max=INF),
    lambda: ReferenceMeasure(2),
    lambda: ReferenceMeasure.gaussian([0.0], [INF]),
    lambda: ReferenceMeasure.gaussian([0.0], [1e-320]),
    lambda: ReferenceMeasure.from_sample([[0.3]]),
    lambda: ReferenceMeasure.from_sample([[1e200], [-1e200]]),
    lambda: GaussianKde([[0.0], [1.0]], [NAN]),
    lambda: EvaluationGrid(((0.0, INF, 5),)),
    lambda: EvaluationGrid(((-1e308, 1e308, 5),)),
], ids=["alpha-nan", "gamma-inf", "eta-nan", "stop-tol-nan",
        "one-particle", "cv-alpha-nan", "cv-alpha-inf", "toy-alpha-nan", "toy-sigma-inf",
        "no-bins", "bins-2^63", "fractional-bins", "lo-inf", "hi-nan", "empty-span", "negative-iterations",
        "noise-sd-nan", "noise-sd-inf", "noise-sd-bound-overflows",
        "noise-sd-variance-out-of-range", "delay-weight-nan", "delay-mean-nan", "delay-sd-nan",
        "delay-normaliser-overflows", "delay-unweighted-sd-overflows", "radon-sigma-nan",
        "radon-quadrature-too-fine", "radon-xi-max-inf", "reference-without-moments",
        "reference-variance-inf", "reference-variance-subnormal",
        "reference-from-one-point", "reference-variance-overflows",
        "bandwidth-nan", "grid-hi-inf", "grid-span-overflows"])
def test_library_types_reject_bad_values(build):
    with pytest.raises(ValueError):
        build()
