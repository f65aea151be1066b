"""Grid and analytic baselines.

Two families live here.  The one-step-late EM iteration (Richardson–Lucy plus
a cross-entropy penalty handled one step late) solves the discretized problem
on a bin grid.  The analytic Gaussian toy model restricts the solution family
to centered Gaussians N(0, β), where the objective has a closed form and the
optimal β is the positive root of a cubic.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalFailure
from .kernels import KernelModel
from .reference import ReferenceMeasure


# ---------------------------------------------------------------------------
# analytic Gaussian toy model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyGaussianSpec:
    """Centered-Gaussian restriction: signal N(0, σ_π²), kernel N(·; x, σ_k²),
    reference N(0, σ₀²), penalty weight α.  σ_μ² = σ_π² + σ_k²."""

    sigma_pi_sq: float
    sigma_k_sq: float
    sigma0_sq: float
    alpha: float

    def __post_init__(self):
        for name in ("sigma_pi_sq", "sigma_k_sq", "sigma0_sq"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.alpha < np.inf:
            raise ValueError("alpha must be nonnegative and finite")

    @property
    def sigma_mu_sq(self) -> float:
        return self.sigma_pi_sq + self.sigma_k_sq


def _finite(compute, *args, index: int | None = None) -> float:
    """``compute(*args)`` of the toy closed form; an overflow, a division by zero,
    an invalid value or a result that is not finite raises NumericalFailure at α
    index ``index``, never a warning."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            value = compute(*args)
    except ArithmeticError as err:   # Python's OverflowError, numpy's FloatingPointError
        raise NumericalFailure(f"toy closed form is not finite ({err.args[-1]})",
                               index=index) from None
    if not math.isfinite(value):
        raise NumericalFailure("toy closed form is not finite", index=index)
    return value


def toy_closed_form_g(spec: ToyGaussianSpec, beta: float) -> float:
    """Objective value of the candidate N(0, β):
    ½log(2π(β+σ_k²)) + σ_μ²/(2(β+σ_k²)) + (α/2)(log(σ₀²/β) + β/σ₀² − 1)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    s = beta + spec.sigma_k_sq
    return float(0.5 * np.log(2 * np.pi * s) + spec.sigma_mu_sq / (2 * s)
                 + spec.alpha / 2 * (np.log(spec.sigma0_sq / beta)
                                     + beta / spec.sigma0_sq - 1.0))


def toy_cubic_coefficients(spec: ToyGaussianSpec) -> tuple[float, float, float, float]:
    """Coefficients (a, b, c, d) of the stationarity cubic aβ³+bβ²+cβ+d = 0,
    obtained from d/dβ of the closed form times 2βσ₀²(β+σ_k²)²."""
    al, k2, s02, mu2 = spec.alpha, spec.sigma_k_sq, spec.sigma0_sq, spec.sigma_mu_sq
    a = al
    b = 2 * al * k2 + (1 - al) * s02
    c = al * k2**2 - mu2 * s02 + s02 * k2 - 2 * al * s02 * k2
    d = -al * s02 * k2**2
    return a, b, c, d


def toy_cubic_residual(spec: ToyGaussianSpec, beta: float) -> float:
    """|P(β)| scaled by the magnitude of the cubic's terms at β."""
    a, b, c, d = toy_cubic_coefficients(spec)
    value = a * beta**3 + b * beta**2 + c * beta + d
    scale = abs(a) * beta**3 + abs(b) * beta**2 + abs(c) * beta + abs(d)
    return abs(value) / max(scale, 1e-300)


def _real_cubic_roots(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Real roots of aβ³+bβ²+cβ+d, a ≠ 0, via the trigonometric/Cardano form."""
    b, c, d = b / a, c / a, d / a
    p = c - b**2 / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    if abs(p) < 1e-300:
        roots = np.array([np.cbrt(-q)])
    else:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
        if disc > 0:
            sq = np.sqrt(disc)
            roots = np.array([np.cbrt(-q / 2.0 + sq) + np.cbrt(-q / 2.0 - sq)])
        else:
            r = np.sqrt(-(p / 3.0) ** 3)
            theta = np.arccos(np.clip(-q / (2.0 * r), -1.0, 1.0))
            roots = 2.0 * np.cbrt(r) * np.cos((theta + 2.0 * np.pi * np.arange(3)) / 3.0)
    return roots + shift


def toy_optimal_beta(spec: ToyGaussianSpec) -> float:
    """Positive root of the stationarity cubic minimizing the closed form.

    α = 0 returns σ_π² directly.  Roots are Newton-polished on the cubic; a
    missing positive root raises NumericalFailure.
    """
    if spec.alpha == 0.0:
        return spec.sigma_pi_sq
    a, b, c, d = toy_cubic_coefficients(spec)
    roots = _real_cubic_roots(a, b, c, d)
    for _ in range(6):
        deriv = 3 * a * roots**2 + 2 * b * roots + c
        step = np.where(deriv != 0, (a * roots**3 + b * roots**2 + c * roots + d) / deriv, 0.0)
        roots = roots - step
    positive = [float(r) for r in roots if r > 0]
    if not positive:
        raise NumericalFailure("stationarity cubic has no positive root")
    return min(positive, key=lambda r: toy_closed_form_g(spec, r))


def resolve_toy_sigma0_sq(beta_target: float, alpha: float,
                          sigma_pi_sq: float, sigma_k_sq: float) -> float:
    """σ₀² that makes ``beta_target`` the optimum at the given α, inverted
    from the stationarity condition."""
    if not 0 < alpha:
        raise ValueError("alpha must be positive")
    ToyGaussianSpec(sigma_pi_sq, sigma_k_sq, 1.0, alpha)   # the variances' range checks
    s = beta_target + sigma_k_sq
    mu2 = sigma_pi_sq + sigma_k_sq
    inv = _finite(lambda: 1.0 / beta_target - 2.0 * (1.0 / (2 * s) - mu2 / (2 * s**2)) / alpha)
    if inv <= 0:
        raise ValueError("no positive sigma0_sq reaches that optimum")
    return _finite(lambda: 1.0 / inv)


def toy_sweep(spec: ToyGaussianSpec, alphas) -> list[tuple[float, float, float]]:
    """(α, β(α), objective at β(α)) rows for a sweep over penalty weights; an
    overflow or a non-finite β or objective raises NumericalFailure at its α index."""
    rows = []
    for i, alpha in enumerate(alphas):
        sub = replace(spec, alpha=float(alpha))
        beta = _finite(toy_optimal_beta, sub, index=i)
        rows.append((float(alpha), beta, _finite(toy_closed_form_g, sub, beta, index=i)))
    return rows


# ---------------------------------------------------------------------------
# one-step-late EM on a bin grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridProblem:
    """Discretized problem: solution bins b, observation bins c.

    ``kernel_matrix`` rows are normalized to sum to one (a discrete Markov
    kernel), ``observed`` and ``reference`` are probability vectors.
    """

    kernel_matrix: np.ndarray
    observed: np.ndarray
    reference: np.ndarray
    bin_centers: np.ndarray | None = None

    def __post_init__(self):
        k = np.asarray(self.kernel_matrix, dtype=float)
        mu = np.asarray(self.observed, dtype=float).ravel()
        pi0 = np.asarray(self.reference, dtype=float).ravel()
        if k.ndim != 2 or k.shape != (pi0.size, mu.size):
            raise ValueError("kernel matrix must be (solution bins, observation bins)")
        if np.any(k < 0) or np.any(mu < 0) or np.any(pi0 <= 0):
            raise ValueError("kernel and observed must be nonnegative, reference positive")
        rows = k.sum(axis=1)
        if np.any(rows <= 0):
            raise ValueError("kernel matrix has an all-zero row")
        object.__setattr__(self, "kernel_matrix", k / rows[:, None])
        object.__setattr__(self, "observed", mu / mu.sum())
        object.__setattr__(self, "reference", pi0 / pi0.sum())
        if self.bin_centers is not None:
            centers = np.asarray(self.bin_centers, dtype=float)
            if centers.ndim == 1:
                centers = centers[:, None]
            if centers.ndim != 2 or centers.shape[0] != pi0.size:
                raise ValueError(f"bin_centers must have one row per solution bin ({pi0.size})")
            object.__setattr__(self, "bin_centers", centers)


def grid_problem_from_continuous(kernel: KernelModel, observed_pdf, ref: ReferenceMeasure,
                                 n_bins: int, lo: float = 0.0, hi: float = 1.0) -> GridProblem:
    """1-D discretization on ``n_bins`` equal bins with centers (b−½)/B scaled
    to [lo, hi]; kernel and densities evaluated at center pairs."""
    try:
        n_bins = operator.index(n_bins)
    except TypeError:
        raise ValueError(f"n_bins must be an integer, not {n_bins!r}") from None
    if not 1 <= n_bins < 2**63:   # np.arange(2**63) is empty
        raise ValueError(f"n_bins must lie in [1, 2**63), not {n_bins}")
    if not -np.inf < lo < hi < np.inf:
        raise ValueError("lo and hi must be finite with lo < hi")
    width = (hi - lo) / n_bins
    centers = lo + (np.arange(n_bins) + 0.5) * width
    pts = centers[:, None]
    k = kernel.eval_matrix(pts, pts) * width
    mu = np.asarray(observed_pdf(pts), dtype=float).ravel() * width
    pi0 = np.exp(ref.log_density(pts)) * width
    return GridProblem(k, mu, pi0, bin_centers=pts)


def oslem_step(state: np.ndarray, problem: GridProblem, alpha: float) -> np.ndarray:
    """One-step-late EM update.

    π_b ← π_b / (1 + α(1 + log π_b − log π₀_b)) · Σ_c μ_c k_bc / λ_c, with
    λ_c = Σ_d π_d k_dc.  Requires a strictly positive state; a nonpositive
    one-step-late denominator aborts with the offending bin index.
    """
    state = np.asarray(state, dtype=float)
    if np.any(state <= 0):
        raise ValueError("state must be strictly positive")
    denom = 1.0 + alpha * (1.0 + np.log(state) - np.log(problem.reference))
    if np.any(denom <= 0):
        raise NumericalFailure("nonpositive one-step-late denominator",
                               index=int(np.argmax(denom <= 0)))
    lam = state @ problem.kernel_matrix
    return state / denom * (problem.kernel_matrix @ (problem.observed / lam))


def oslem_solve(problem: GridProblem, alpha: float, n_iterations: int,
                init: np.ndarray | None = None) -> np.ndarray:
    if n_iterations < 0:
        raise ValueError("n_iterations must be nonnegative")
    state = problem.reference.copy() if init is None else np.asarray(init, dtype=float)
    for i in range(n_iterations):
        try:
            state = oslem_step(state, problem, alpha)
        except NumericalFailure as failure:
            raise NumericalFailure("one-step-late EM failed", step=i,
                                   index=failure.index) from failure
    return state


def discrete_objective(state: np.ndarray, problem: GridProblem, alpha: float) -> float:
    """Discrete objective −Σ_c μ_c log λ_c + α Σ_b π_b log(π_b/π₀_b) + (Σ_b π_b − 1).

    On probability vectors the last term vanishes and this is the plain
    discretized objective; on the nonnegative cone the linear mass term makes
    it exactly the function whose unconstrained minimizer is the fixed point
    of ``oslem_step``.
    """
    state = np.asarray(state, dtype=float)
    lam = state @ problem.kernel_matrix
    data = -float(problem.observed @ np.log(lam))
    kl = float(np.sum(state * np.log(state / problem.reference)))
    return data + alpha * kl + float(state.sum() - 1.0)
