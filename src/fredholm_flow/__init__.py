"""Particle-based solver for Fredholm integral equations of the first kind.

The package simulates an interacting particle system whose empirical measure
descends a cross-entropy-regularized data-fit objective, plus the analytic
and grid baselines, density readout, metrics and cross-validation around it.
"""
from .baselines import (GridProblem, ToyGaussianSpec, discrete_objective,
                        oslem_solve, oslem_step, resolve_toy_sigma0_sq,
                        toy_closed_form_g, toy_cubic_coefficients,
                        toy_cubic_residual, toy_optimal_beta, toy_sweep)
from .crossval import CvPlan, CvResult, cv_score, make_folds
from .density import EvaluationGrid, GaussianKde, silverman_bandwidth
from .errors import ConfigError, NumericalFailure
from .functional import FunctionalEstimate, g_hat
from .kernels import (GaussianConvolutionKernel, GaussianMixtureDelayKernel,
                      KernelModel, RadonAlignmentKernel)
from .metrics import ise, reconvolve, wasserstein1_1d
from .problems import ExperimentPreset, build_initial_cloud, get_preset
from .reference import ReferenceMeasure
from .solver import (SolverConfig, SolverTrace, draw_minibatch, drift_empirical,
                     run, tamed_step)
from .state import ObservationSample, ParticleCloud

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CvPlan", "CvResult", "EvaluationGrid", "ExperimentPreset",
    "FunctionalEstimate", "GaussianConvolutionKernel", "GaussianKde",
    "GaussianMixtureDelayKernel", "GridProblem", "KernelModel", "NumericalFailure",
    "ObservationSample", "ParticleCloud", "RadonAlignmentKernel", "ReferenceMeasure",
    "SolverConfig", "SolverTrace", "ToyGaussianSpec", "build_initial_cloud", "cv_score",
    "discrete_objective", "draw_minibatch", "drift_empirical", "g_hat", "get_preset", "ise",
    "make_folds", "oslem_solve", "oslem_step", "reconvolve", "resolve_toy_sigma0_sq", "run",
    "silverman_bandwidth", "tamed_step", "toy_closed_form_g", "toy_cubic_coefficients",
    "toy_cubic_residual", "toy_optimal_beta", "toy_sweep", "wasserstein1_1d",
]
