"""Interacting-particle solver: empirical drift, tamed update, main loop.

The state is the empirical measure of N particles, an (N, d) float array.
It follows a gradient-flow dynamics for the regularized objective: each
particle feels an attraction ∇₁k(X, y)/(λ[k(·, y)] + η) averaged over a
batch of observations, a restoring force −α∇U from the reference measure,
and isotropic noise with diffusion coefficient √(2α).
The deterministic part of every step is tamed, γb/(1 + γ‖b‖), so its length
never exceeds min(1, γ‖b‖) regardless of how large the drift gets when the
denominator is small; where γ‖b‖ overflows, it is the limit b/‖b‖.

The drift runs in fixed observation-major blocks on the shared pool of
``blocks`` (``blocks.drift_rows``).  A block holds a slice of the batch
against all N particles, (w, N), so one ``eval_matrix`` sweep gives
its k, the mean of each observation's contiguous row and its gradient
plane (for the Gaussian kernel, its d planes of coordinate differences),
and the weights of those means give its share of the drift rows; the
calling thread adds the shares in block order.  The monitor reads only the
means.  Every result is the same bits for any thread count and any
``--workers``, and a step holds no N×m matrix, only one 2 MB arena per
pool thread.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .blocks import drift_rows
from .errors import NumericalFailure
from .functional import DENOM_FLOOR, FunctionalEstimate, g_hat
from .kernels import KernelModel
from .reference import ReferenceMeasure
from .state import _finite_matrix


@dataclass(frozen=True)
class SolverConfig:
    """All knobs of one solver run.

    ``minibatch=None`` applies the default batch rule m = min(N, M), which
    ``batch_size`` computes.  Every step draws a fresh batch of m
    observations without replacement (``draw_minibatch``), which sets the
    observations it sees.  The stopping rule, the only way to end before
    ``n_steps``, is active only when ``stop_tol`` is set: the run stops once
    the relative decrease of the ``stop_window``-averaged objective estimate
    falls below ``stop_tol``.
    """

    alpha: float
    gamma: float
    n_particles: int
    n_steps: int
    seed: int = 0
    eta: float = 0.0
    minibatch: int | None = None
    stop_tol: float | None = None
    stop_window: int = 10

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:
            raise ValueError("alpha must be nonnegative and finite")
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if self.n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if not 0 <= self.eta < np.inf:
            raise ValueError("eta must be nonnegative and finite")
        if self.minibatch is not None and self.minibatch < 1:
            raise ValueError("minibatch must be at least 1")
        if self.stop_tol is not None and not 0 < self.stop_tol < np.inf:
            raise ValueError("stop_tol must be positive and finite")
        if self.stop_window < 1:
            raise ValueError("stop_window must be at least 1")

    def batch_size(self, n_observations: int) -> int:
        """Observations per step: ``minibatch``, or N by default, and at most M."""
        return min(self.minibatch if self.minibatch is not None else self.n_particles,
                   n_observations)


class SolverTrace:
    """Per-step records as one float table; row n describes the state after n steps.

    The columns are ``step, g_hat, g_hat_data, g_hat_kl, drift_mean,
    drift_max, mean_1…mean_d, var_1…var_d``.  The drift statistics in row n
    belong to the step taken *from* that state; the final row of a run that
    did not stop early has no outgoing step and carries NaN there, as does an
    undefined objective estimate.
    """

    def __init__(self, dim: int):
        self.columns = ("step", "g_hat", "g_hat_data", "g_hat_kl", "drift_mean", "drift_max",
                        *(f"mean_{i + 1}" for i in range(dim)),
                        *(f"var_{i + 1}" for i in range(dim)))
        self._table = np.empty((8, len(self.columns)))   # capacity doubles as rows arrive
        self._n = 0

    def append(self, step, estimate, drift_norms, points):
        if self._n == len(self._table):
            self._table = np.concatenate([self._table, np.empty_like(self._table)])
        g = (np.nan,) * 3 if estimate is None \
            else (estimate.total, estimate.data_term, estimate.kl_term)
        with np.errstate(over="ignore"):   # a statistic beyond the float range reads inf
            drift = (np.nan,) * 2 if drift_norms is None \
                else (drift_norms.mean(), drift_norms.max())
            self._table[self._n] = np.concatenate([(step, *g, *drift), points.mean(axis=0),
                                                   points.var(axis=0)])
        self._n += 1

    @property
    def rows(self) -> np.ndarray:
        """The recorded rows, shape (len(self), len(self.columns)), read-only."""
        view = self._table[:self._n]
        view.flags.writeable = False
        return view

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no trace column {name!r}; the columns are {self.columns}")
        return self.rows[:, self.columns.index(name)]

    def __len__(self) -> int:
        return self._n


def _drift(kernel, points, batch_points, ref, alpha, eta, step):
    """(means of k over the particles, one per observation, drift); the monitor
    reuses the means."""
    def weights(k_mean):
        with np.errstate(over="ignore"):   # an overflowing m(λ + η) weighs 0, its limit
            return 1.0 / (batch_points.shape[0] * np.maximum(k_mean + eta, DENOM_FLOOR))
    k_mean, rows = drift_rows(kernel, points, batch_points, weights)
    with np.errstate(over="ignore"):   # an overflowing α∇U is a non-finite row below
        drift = rows - alpha * ref.grad_u(points)
    finite_rows = np.all(np.isfinite(drift), axis=1)
    if not np.all(finite_rows):
        raise NumericalFailure("non-finite drift", step=step,
                               index=int(np.argmin(finite_rows)))
    return k_mean, drift


def drift_empirical(cloud, batch, kernel: KernelModel, ref: ReferenceMeasure,
                    alpha: float, eta: float) -> np.ndarray:
    """Empirical drift matrix, one row per particle, for a finite (N, d) ``cloud``
    and a finite (m, p) ``batch``.

    Row k is (1/m) Σ_j ∇₁k(X_k, y_j) / (λ[k(·, y_j)] + η) − α ∇U(X_k) with
    λ[k(·, y_j)] = (1/N) Σ_l k(X_l, y_j).  The denominator is clamped below at
    ``functional.DENOM_FLOOR`` so that η = 0 never divides by zero; taming caps
    whatever magnitude results.
    """
    cloud = _finite_matrix(cloud, "particle cloud")
    batch = _finite_matrix(batch, "observation sample")
    if batch.shape[1] != kernel.dim_y:
        raise ValueError(f"batch dimension {batch.shape[1]} does not match kernel output "
                         f"{kernel.dim_y}")
    if cloud.shape[1] != kernel.dim_x:
        raise ValueError(f"cloud dimension {cloud.shape[1]} does not match kernel input "
                         f"{kernel.dim_x}")
    return _drift(kernel, cloud, batch, ref, alpha, eta, None)[1]


def tamed_step(cloud: np.ndarray, drift: np.ndarray, gamma: float, alpha: float,
               noise: np.ndarray, step: int | None = None) -> np.ndarray:
    """One tamed update: X + γb/(1 + γ‖b‖) + √(2αγ)·Z, Z standard normal rows.

    A row whose γ‖b‖ overflows, ‖b‖ itself included, takes the limit b/‖b‖,
    formed from b over its largest entry so that the norm cannot overflow.  The
    new cloud is checked finite; ``step``, the step it is the state of, labels a
    failure."""
    drift = np.asarray(drift, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if drift.shape != cloud.shape or noise.shape != cloud.shape:
        raise ValueError("drift and noise must have the cloud's shape")
    with np.errstate(over="ignore", invalid="ignore"):   # overflowed rows are replaced
        scaled = gamma * np.hypot.reduce(drift, axis=1, keepdims=True)
        increment = gamma * drift / (1.0 + scaled)
    over = np.isinf(scaled[:, 0])
    if over.any():
        unit = drift[over] / np.abs(drift[over]).max(axis=1, keepdims=True)
        increment[over] = unit / np.hypot.reduce(unit, axis=1, keepdims=True)
    return _finite_matrix(cloud + increment + np.sqrt(2.0 * alpha * gamma) * noise,
                          "particle cloud", step=step)


def draw_minibatch(full: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct rows of the checked (M, p) sample ``full`` as an (m, p) array, drawn
    without replacement and not checked again; ``full`` itself when m ≥ M (no RNG)."""
    if m < 1:
        raise ValueError("minibatch size must be at least 1")
    if m >= len(full):
        return full
    idx = rng.choice(len(full), size=m, replace=False)
    return full[idx]


def _monitor_estimate(cloud, batch, kernel, ref, config,
                      k_mean=None) -> FunctionalEstimate | None:
    try:
        return g_hat(cloud, batch, kernel, ref, config.alpha, config.eta, k_mean=k_mean)
    except ValueError:
        # degenerate bandwidth (e.g. point-mass cloud) or improper reference:
        # the monitor is undefined there, the dynamics are not
        return None


def _should_stop(g_values: np.ndarray, tol: float, window: int) -> bool:
    if len(g_values) < 2 * window:
        return False
    prev, cur = g_values[-2 * window:-window], g_values[-window:]
    if not (np.all(np.isfinite(prev)) and np.all(np.isfinite(cur))):
        return False
    prev_mean = prev.mean()
    cur_mean = cur.mean()
    return (prev_mean - cur_mean) / max(abs(prev_mean), 1e-12) < tol


def run(config: SolverConfig, kernel: KernelModel, ref: ReferenceMeasure,
        init, observations, monitor=None) -> tuple[np.ndarray, SolverTrace]:
    """Execute the solver for ``config.n_steps`` steps (or fewer on early stop).

    Parameters
    ----------
    init : array_like
        The (N, d) initial cloud, checked finite before any step (a non-finite
        row is a ``NumericalFailure`` at step 0 with its index).
    observations : array_like
        The (M, p) sample, checked finite before any step (a non-finite row is
        a ``NumericalFailure`` with its index); each step draws its batch.
    monitor : callable, optional
        Called as ``monitor(step, cloud, estimate)`` after each state is
        recorded, ``cloud`` that state's (N, d) array; the estimate may be None
        when it is undefined.  It is the only per-step hook: the benchmark's
        tracer reads its step clock from it, and tests read the cloud of every
        step through it.

    Returns
    -------
    (ndarray, SolverTrace)
        Final (N, d) cloud and the per-step trace; bit-reproducible given the
        config and inputs.  The loop's step is the only step: it keys the batch
        and noise streams, so runs sharing a seed share them, and it labels the
        trace rows, the monitor calls and every failure.
    """
    cloud = _finite_matrix(init, "particle cloud", step=0)
    n, d = cloud.shape
    if n != config.n_particles:
        raise ValueError(f"init has {n} particles, config wants {config.n_particles}")
    if d != kernel.dim_x or ref.dim != d:
        raise ValueError("dimension mismatch between init cloud, kernel and reference")
    observations = _finite_matrix(observations, "observation sample")
    if observations.shape[1] != kernel.dim_y:
        raise ValueError("dimension mismatch between observations and kernel")

    m_eff = config.batch_size(len(observations))
    trace = SolverTrace(d)
    # state n_steps is the final one: it takes no step, so it has no drift
    for step in range(config.n_steps + 1):
        final = step == config.n_steps
        if not final or step == 0:
            # the final state scores the last step's batch; a run of no steps, the
            # batch that step 0 would draw
            batch = draw_minibatch(observations, m_eff,
                                   _rng.stream(config.seed, _rng.ROLE_MINIBATCH, step))
        k_mean = drift = drift_norms = None
        if not final:
            k_mean, drift = _drift(kernel, cloud, batch, ref, config.alpha, config.eta, step)
            drift_norms = np.hypot.reduce(drift, axis=1)
        estimate = _monitor_estimate(cloud, batch, kernel, ref, config, k_mean)
        trace.append(step, estimate, drift_norms, cloud)
        if monitor is not None:
            monitor(step, cloud, estimate)
        # both ends come before the noise draw, so an early stop adds no row
        if final or config.stop_tol is not None and _should_stop(
                trace.column("g_hat"), config.stop_tol, config.stop_window):
            break
        noise = _rng.stream(config.seed, _rng.ROLE_NOISE, step).standard_normal((n, d))
        cloud = tamed_step(cloud, drift, config.gamma, config.alpha, noise, step + 1)
    return cloud, trace
