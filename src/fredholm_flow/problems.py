"""Experiment presets: closed-form targets, samplers and solver defaults.

A preset bundles the kernel, the rule that builds the reference measure from
the observed sample and default solver settings; a shipped one adds a truth
density (for metrics) and an observation sampler, which the CLI's inline
problem lacks.  Samplers are deterministic given their seed; all randomness
flows through the keyed streams.  The normal CDF and its inverse come from
``math.erfc`` and ``statistics.NormalDist``, so the module needs numpy alone;
``statistics`` is imported only when the incidence sampler runs, so a run of
another preset does not load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as _rng
from .blocks import row_blocks
from .density import EvaluationGrid
from .kernels import (GaussianConvolutionKernel, GaussianMixtureDelayKernel,
                      KernelModel, RadonAlignmentKernel)
from .reference import ReferenceMeasure
from .solver import SolverConfig
from .state import _finite_matrix

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# delay mixture fitted to infection-to-death data: weights, means, sds in days
DELAY_WEIGHTS = (0.595, 0.405)
DELAY_MEANS = (8.63, 15.24)
DELAY_SDS = (2.56, 5.39)
DELAY_MEAN_DAYS = float(np.dot(DELAY_WEIGHTS, DELAY_MEANS))
REPORTING_SHIFT_DAYS = 9.0

TOY_SIGMA_PI_SQ = 0.43**2
TOY_SIGMA_K_SQ = 0.45**2


def _gauss_pdf(x, mean, sd):
    z = (x - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)


def _iso_mixture_pdf(points, weights, means, sds):
    """Σ_i w_i ∏_j N(x_j; m_i, s_i²) for isotropic components."""
    points = np.atleast_2d(points)
    out = np.zeros(points.shape[0])
    for w, m, s in zip(weights, means, sds):
        with np.errstate(over="ignore"):   # where z² overflows, the density is 0
            z = (points - m) / s
            out += w * np.exp(-0.5 * np.sum(z * z, axis=1)) / (s * _SQRT_2PI) ** points.shape[1]
    return out


def _mixture_sampler(weights, means, sds, dim) -> Callable:
    """``sample_truth(m, seed)`` for ``_iso_mixture_pdf``'s mixture in ``dim`` dimensions.

    A component label per row (none with one component), then an (m, dim)
    standard-normal block, drawn in ``row_blocks(m, dim)`` row blocks into
    the result and scaled and shifted there: the same stream, in the same
    order, as one draw, and the same bits as ``means[label] + sds[label] * z``
    with no whole-sample temporary.
    ``means`` holds a scalar or a ``dim``-vector per component; scalars
    broadcast over the coordinates.
    """
    thresholds = np.cumsum(weights)[:-1]
    means = np.asarray(means, dtype=float).reshape(len(weights), -1)
    sds = np.asarray(sds, dtype=float)

    def sample_truth(m, seed):
        gen = _rng.stream(seed, _rng.ROLE_OBSERVATIONS)
        label = np.searchsorted(thresholds, gen.random(m), side="right") \
            if thresholds.size else np.zeros(m, dtype=int)
        out = np.empty((m, dim))
        for r in row_blocks(m, dim):
            z = gen.standard_normal(out=out[r])
            z *= sds[label[r], None]
            z += means[label[r]]
        return out

    return sample_truth


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    kernel: KernelModel
    solver: SolverConfig
    make_reference: Callable
    n_observations: int | None = None
    truth_pdf: Callable | None = None
    sample_observations: Callable | None = None
    sample_truth: Callable | None = None
    metric_grid: EvaluationGrid | None = None
    observed_pdf: Callable | None = None
    init_shift: float | None = 0.0
    default_metrics: tuple = ("ise",)
    observation_grid: EvaluationGrid | None = None

    @property
    def dim(self) -> int:
        return self.kernel.dim_x

    def init_mode(self, mode: str = "auto") -> str:
        """``mode``, with ``auto`` resolved: "observations" (resampled through the
        deconvolution shift) when the preset has a shift, else "reference"."""
        auto = "observations" if self.init_shift is not None else "reference"
        return auto if mode == "auto" else mode


def build_initial_cloud(preset: ExperimentPreset, config: SolverConfig,
                        observations: np.ndarray, ref: ReferenceMeasure,
                        mode: str = "auto", point=None, box=None) -> np.ndarray:
    """Initial (N, d) particle positions in ``preset.init_mode(mode)``: "observations",
    "reference", "point" or "uniform"; checked finite, a failure at step 0."""
    gen = _rng.stream(config.seed, _rng.ROLE_INIT)
    n = config.n_particles
    mode = preset.init_mode(mode)
    if mode == "observations":
        if observations.shape[1] != ref.dim:
            raise ValueError("cannot initialize from observations when p differs from d")
        idx = gen.integers(0, len(observations), size=n)
        points = observations[idx] + (preset.init_shift or 0.0)
    elif mode == "reference":
        points = ref.sample(n, gen)
    elif mode == "point":
        if point is None or np.shape(point) != (ref.dim,):
            raise ValueError(f"point initialization needs a point of dimension {ref.dim}")
        points = np.tile(np.asarray(point, dtype=float), (n, 1))
    elif mode == "uniform":
        if box is None or np.shape(box) != (ref.dim, 2) or not np.all(np.isfinite(box)):
            raise ValueError(f"uniform initialization needs a box of {ref.dim} finite [lo, hi] pairs")
        box = np.asarray(box, dtype=float)
        points = gen.uniform(box[:, 0], box[:, 1], size=(n, box.shape[0]))
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    return _finite_matrix(points, "particle cloud", step=0)


# ---------------------------------------------------------------------------
# isotropic Gaussian mixtures under additive Gaussian noise
# ---------------------------------------------------------------------------

def _additive_noise_preset(name, weights, means, sds, noise_sd, dim=1,
                           **fields) -> ExperimentPreset:
    """An isotropic Gaussian mixture in d = ``dim`` dimensions observed through
    additive N(0, noise_sd² I) noise; ``fields`` are the remaining preset fields."""
    obs_sds = tuple(np.hypot(s, noise_sd) for s in sds)
    sample_truth = _mixture_sampler(weights, means, sds, dim)

    def sample_observations(m, seed):
        """The truth plus noise_sd times its own standard-normal stream, added in
        the truth's row blocks: the same bits as adding one (m, dim) draw.

        Every block is drawn into one buffer of the largest block's rows (the
        blocks differ by a row at most): one allocation, handed back to the
        system when freed, where a fresh array per block leaves the freed
        blocks resident on the heap."""
        x = sample_truth(m, seed)
        gen = _rng.stream(_rng.derive_seed(seed, 1), _rng.ROLE_OBSERVATIONS)
        blocks = row_blocks(m, dim)
        buf = np.empty((max((r.stop - r.start for r in blocks), default=0), dim))
        for r in blocks:
            noise = gen.standard_normal(out=buf[:r.stop - r.start])
            noise *= noise_sd
            x[r] += noise
        return _finite_matrix(x, "observation sample")

    return ExperimentPreset(
        name=name,
        kernel=GaussianConvolutionKernel([noise_sd] * dim),
        truth_pdf=lambda points: _iso_mixture_pdf(points, weights, means, sds),
        observed_pdf=lambda points: _iso_mixture_pdf(points, weights, means, obs_sds),
        sample_truth=sample_truth,
        sample_observations=sample_observations,
        **fields,
    )


def preset_gaussian_mixture_1d() -> ExperimentPreset:
    """Two-component mixture observed through additive N(0, 0.045²) noise."""
    return _additive_noise_preset(
        "gaussian_mixture_1d", (1.0 / 3.0, 2.0 / 3.0), (0.3, 0.5), (0.015, 0.043), 0.045,
        solver=SolverConfig(alpha=0.01, gamma=1e-3, n_particles=200, n_steps=100),
        n_observations=1000,
        make_reference=ReferenceMeasure.from_sample,
        metric_grid=EvaluationGrid(((-0.25, 1.25, 3001),)),
        default_metrics=("ise", "w1_marginal1"),
    )


def preset_toy_gaussian() -> ExperimentPreset:
    """N(0, 0.43²) signal under N(0, 0.45²) noise; the analytic baseline's twin."""
    return _additive_noise_preset(
        "toy_gaussian", (1.0,), (0.0,), (np.sqrt(TOY_SIGMA_PI_SQ),), np.sqrt(TOY_SIGMA_K_SQ),
        solver=SolverConfig(alpha=0.02, gamma=1e-2, n_particles=500, n_steps=300,
                            minibatch=500),
        n_observations=10_000,
        make_reference=ReferenceMeasure.from_sample,
        metric_grid=EvaluationGrid(((-4.0, 4.0, 2001),)),
        default_metrics=("ise", "w1_marginal1"),
    )


def preset_highdim_mixture(dim: int = 2) -> ExperimentPreset:
    """Product-form generalization of the 1-D mixture to d dimensions."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if dim == 1:
        grid = EvaluationGrid(((-0.3, 1.3, 3201),))
    elif dim == 2:
        grid = EvaluationGrid(((-0.3, 1.3, 321),) * 2)
    else:
        grid = None
    return _additive_noise_preset(
        f"highdim_mixture_{dim}d", (1.0 / 3.0, 2.0 / 3.0), (0.3, 0.7), (0.07, 0.1), 0.15, dim,
        solver=SolverConfig(alpha=0.01, gamma=1e-2, n_particles=1000, n_steps=50),
        n_observations=100_000,
        make_reference=lambda _observations: ReferenceMeasure.gaussian(
            np.full(dim, 0.5), np.full(dim, 0.25**2)),
        metric_grid=grid,
        default_metrics=("w1_marginal1",) if grid is None else ("ise", "w1_marginal1"),
    )


# ---------------------------------------------------------------------------
# synthetic incidence-curve deconvolution
# ---------------------------------------------------------------------------

_INC_SD1 = np.sqrt(1.0 / (2 * 0.05))      # left branch exp(-0.05 (8-x)^2)
_INC_SD2 = np.sqrt(1.0 / (2 * 0.001))     # right branch exp(-0.001 (x-8)^2)
_INC_PEAK = 8.0
_INC_END = 100.0


def _ndtr(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _ndtri(q) -> np.ndarray:
    """Standard normal quantile, elementwise: CPython's C port of Wichura's AS241."""
    import statistics

    return np.frompyfunc(statistics.NormalDist().inv_cdf, 1, 1)(q).astype(float)

# CDF values at the ends of the support, and the branch masses, exact
_INC_Q_LO = _ndtr((0.0 - _INC_PEAK) / _INC_SD1)
_INC_Q_HI = _ndtr((_INC_END - _INC_PEAK) / _INC_SD2)
_INC_Z1 = float(_INC_SD1 * _SQRT_2PI * (0.5 - _INC_Q_LO))
_INC_Z2 = float(_INC_SD2 * _SQRT_2PI * (_INC_Q_HI - 0.5))
_INC_Z = _INC_Z1 + _INC_Z2


def incidence_pdf(points) -> np.ndarray:
    """Normalized piecewise incidence curve on [0, 100]."""
    x = np.atleast_2d(points)[:, 0]
    left = np.exp(-0.05 * (_INC_PEAK - x) ** 2)
    right = np.exp(-0.001 * (x - _INC_PEAK) ** 2)
    vals = np.where(x <= _INC_PEAK, left, right)
    vals = np.where((x < 0.0) | (x > _INC_END), 0.0, vals)
    return vals / _INC_Z


def _sample_incidence(m, gen) -> np.ndarray:
    take_left = gen.random(m) < _INC_Z1 / _INC_Z
    u = gen.random(m)
    q = np.where(take_left, _INC_Q_LO + u * (0.5 - _INC_Q_LO), 0.5 + u * (_INC_Q_HI - 0.5))
    sd = np.where(take_left, _INC_SD1, _INC_SD2)
    return (_INC_PEAK + sd * _ndtri(q))[:, None]


def _affected_days(last_day: int) -> np.ndarray:
    days = np.arange(6, last_day + 1)
    return days[(days % 7 == 6) | (days % 7 == 0)]


def preset_epidemiology_synthetic(misspecified: bool = False) -> ExperimentPreset:
    """Incidence curve observed through the infection-to-death delay mixture.

    The misspecified variant moves a U(0.3, 0.5) fraction of the cases
    recorded on each (6th, 7th) day of every week two days later, mimicking
    weekend reporting delays the kernel does not model.
    """
    def sample_observations(m, seed):
        gen = _rng.stream(seed, _rng.ROLE_OBSERVATIONS)
        x = _sample_incidence(m, gen)[:, 0]
        comp = gen.random(m) < DELAY_WEIGHTS[0]
        mean = np.where(comp, DELAY_MEANS[0], DELAY_MEANS[1])
        sd = np.where(comp, DELAY_SDS[0], DELAY_SDS[1])
        y = x + mean + sd * gen.standard_normal(m)
        if misspecified:
            mgen = _rng.stream(seed, _rng.ROLE_MISSPEC)
            day = np.floor(y).astype(int)
            for d in _affected_days(int(day.max(initial=0))):
                fraction = mgen.uniform(0.3, 0.5)
                on_day = day == d
                moved = on_day & (mgen.random(y.size) < fraction)
                y = np.where(moved, y + 2.0, y)
        return _finite_matrix(y[:, None], "observation sample")

    return ExperimentPreset(
        name="epidemiology_synthetic" + ("_misspecified" if misspecified else ""),
        kernel=GaussianMixtureDelayKernel(DELAY_WEIGHTS, DELAY_MEANS, DELAY_SDS),
        solver=SolverConfig(alpha=1e-3, gamma=1e-1, n_particles=500, n_steps=3000,
                            minibatch=500),
        n_observations=5000,
        truth_pdf=incidence_pdf,
        sample_observations=sample_observations,
        sample_truth=lambda m, seed: _sample_incidence(
            m, _rng.stream(seed, _rng.ROLE_OBSERVATIONS)),
        make_reference=lambda observations: ReferenceMeasure.from_sample(
            observations, mean_shift=-REPORTING_SHIFT_DAYS),
        metric_grid=EvaluationGrid(((0.0, 100.0, 2001),)),
        init_shift=-REPORTING_SHIFT_DAYS,
        default_metrics=("ise", "reconvolution_ise"),
        observation_grid=EvaluationGrid(((0.0, 130.0, 2601),)),
    )


# ---------------------------------------------------------------------------
# tomography phantom
# ---------------------------------------------------------------------------

def preset_ct_phantom() -> ExperimentPreset:
    """Two Gaussian blobs observed through the line-alignment kernel.

    ``reconvolution_ise`` is scored on the (φ, ξ) grid [0, 2π] × [−ξ_max, ξ_max],
    where the observation KDE, not periodic in φ, runs low within a few
    bandwidths of φ = 0 and φ = 2π (about half the density at the edges)."""
    weights = (0.5, 0.5)
    centers = (np.array([-0.3, -0.25]), np.array([0.35, 0.2]))
    blob_sds = (0.12, 0.18)
    kernel = RadonAlignmentKernel(sigma=0.05, xi_max=2.0)
    # integral of the alignment Gaussian over xi, used by the closed-form projections
    slice_mass = kernel.sigma * _SQRT_2PI
    sample_truth = _mixture_sampler(weights, centers, blob_sds, 2)

    def observed_pdf(points):
        points = np.atleast_2d(points)
        phi, xi = points[:, 0], points[:, 1]
        u = np.column_stack([np.cos(phi), np.sin(phi)])
        out = np.zeros(points.shape[0])
        for w, c, s in zip(weights, centers, blob_sds):
            sd = np.hypot(s, kernel.sigma)
            out += w * _gauss_pdf(xi, u @ c, sd)
        return out * slice_mass / kernel.norm_const

    def sample_observations(m, seed):
        x = sample_truth(m, seed)
        gen = _rng.stream(_rng.derive_seed(seed, 1), _rng.ROLE_OBSERVATIONS)
        phi = gen.uniform(0.0, 2.0 * np.pi, m)
        xi = (x[:, 0] * np.cos(phi) + x[:, 1] * np.sin(phi)
              + kernel.sigma * gen.standard_normal(m))
        return _finite_matrix(np.column_stack([phi, xi]), "observation sample")

    return ExperimentPreset(
        name="ct_phantom",
        kernel=kernel,
        solver=SolverConfig(alpha=7e-3, gamma=1e-3, n_particles=2000, n_steps=200),
        n_observations=20_000,
        truth_pdf=lambda points: _iso_mixture_pdf(points, weights, centers, blob_sds),
        observed_pdf=observed_pdf,
        sample_observations=sample_observations,
        sample_truth=sample_truth,
        make_reference=lambda _observations: ReferenceMeasure.gaussian(
            np.zeros(2), np.full(2, 0.35**2)),
        metric_grid=EvaluationGrid(((-1.2, 1.2, 161), (-1.2, 1.2, 161))),
        init_shift=None,
        default_metrics=("ise", "w1_marginal1"),
        observation_grid=EvaluationGrid(((0.0, 2.0 * np.pi, 161),
                                         (-kernel.xi_max, kernel.xi_max, 161))),
    )


# ---------------------------------------------------------------------------
# registry and file input
# ---------------------------------------------------------------------------

PRESETS = {"gaussian_mixture_1d": preset_gaussian_mixture_1d,
           "toy_gaussian": preset_toy_gaussian,
           "highdim_mixture": preset_highdim_mixture,
           "epidemiology_synthetic": preset_epidemiology_synthetic,
           "ct_phantom": preset_ct_phantom}


def get_preset(name: str, **options) -> ExperimentPreset:
    """The preset ``name`` built with its keyword ``options`` (``dim``, ``misspecified``)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    return PRESETS[name](**options)
