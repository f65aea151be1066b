"""Particle-based solver for Fredholm integral equations of the first kind.

The package simulates an interacting particle system whose empirical measure
descends a cross-entropy-regularized data-fit objective, plus the analytic
and grid baselines, density readout, metrics and cross-validation around it.

The namespace is lazy (PEP 562): importing the package loads nothing, numpy
included, and a public name loads its module on first access.  So the
command line can pin BLAS threads before numpy starts (see ``cli``), and a
run loads only the modules it uses.
"""
import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULES = {
    **dict.fromkeys(("GridProblem", "ToyGaussianSpec", "discrete_objective", "oslem_solve",
                     "oslem_step", "resolve_toy_sigma0_sq", "toy_closed_form_g",
                     "toy_cubic_coefficients", "toy_cubic_residual", "toy_optimal_beta",
                     "toy_sweep"), "baselines"),
    **dict.fromkeys(("CvPlan", "CvResult", "cv_score", "make_folds"), "crossval"),
    **dict.fromkeys(("EvaluationGrid", "GaussianKde", "silverman_bandwidth"), "density"),
    **dict.fromkeys(("ConfigError", "NumericalFailure"), "errors"),
    **dict.fromkeys(("FunctionalEstimate", "g_hat"), "functional"),
    **dict.fromkeys(("GaussianConvolutionKernel", "GaussianMixtureDelayKernel", "KernelModel",
                     "RadonAlignmentKernel"), "kernels"),
    **dict.fromkeys(("ise", "reconvolve", "wasserstein1_1d"), "metrics"),
    **dict.fromkeys(("ExperimentPreset", "build_initial_cloud", "get_preset"), "problems"),
    "ReferenceMeasure": "reference",
    **dict.fromkeys(("SolverConfig", "SolverTrace", "draw_minibatch", "drift_empirical", "run",
                     "tamed_step"), "solver"),
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value   # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
