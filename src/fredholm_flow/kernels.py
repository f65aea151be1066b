"""Markov-kernel densities k(x, y) and their x-gradients.

A kernel implements two batched methods, both on all particles against all
batch observations at once:

- ``eval_matrix(xs, ys)``: the (n, m) matrix k(x_i, y_j);
- ``weighted_grad1(xs, ys, k, w)``: the (n, d) rows Σ_j w_j ∇₁k(x_i, y_j),
  given that matrix ``k`` and weights ``w`` of shape (m,).

The drift needs only that weighted sum, so no (n, m, d) gradient tensor is
ever formed.  Pointwise ``eval`` and ``grad1`` are derived from the two (one
pair, unit weight).  Every kernel is immutable after construction.
``bound_M`` is an analytic uniform bound on both k and ``‖∇₁k‖`` (second
derivatives are bounded too but nothing downstream consumes them).
"""
from __future__ import annotations

import abc

import numpy as np

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _as_points(arr, dim: int, name: str) -> np.ndarray:
    """Coerce to an (n, dim) float array, accepting a single point."""
    out = np.atleast_2d(np.asarray(arr, dtype=float))
    if out.shape[1] != dim:
        raise ValueError(f"{name} has dimension {out.shape[1]}, expected {dim}")
    return out


class KernelModel(abc.ABC):
    """Density of a Markov kernel: k(x, ·) integrates to 1 over R^p."""

    dim_x: int
    dim_y: int
    bound_M: float

    @abc.abstractmethod
    def eval_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """k(x_i, y_j) for xs (n, d) and ys (m, p); returns (n, m)."""

    @abc.abstractmethod
    def weighted_grad1(self, xs: np.ndarray, ys: np.ndarray, k: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
        """Σ_j w_j ∇₁k(x_i, y_j) for k = eval_matrix(xs, ys), w (m,); returns (n, d)."""

    def eval(self, x, y) -> float:
        xs = _as_points(x, self.dim_x, "x")
        ys = _as_points(y, self.dim_y, "y")
        return float(self.eval_matrix(xs, ys)[0, 0])

    def grad1(self, x, y) -> np.ndarray:
        xs = _as_points(x, self.dim_x, "x")
        ys = _as_points(y, self.dim_y, "y")
        return self.weighted_grad1(xs, ys, self.eval_matrix(xs, ys), np.ones(1))[0]


class GaussianConvolutionKernel(KernelModel):
    """k(x, y) = ∏_i N(y_i; x_i, σ_i²), the additive-noise deconvolution kernel."""

    def __init__(self, noise_sd):
        sd = np.atleast_1d(np.asarray(noise_sd, dtype=float))
        if np.any(sd <= 0):
            raise ValueError("noise_sd must be positive")
        self.noise_sd = sd
        self.dim_x = self.dim_y = sd.size
        self._var = sd**2
        self._norm = float(np.prod(1.0 / (sd * _SQRT_2PI)))
        # sup k at y = x; sup ‖∇₁k‖ at a unit displacement of the narrowest axis
        self.bound_M = max(self._norm, self._norm * np.exp(-0.5) / sd.min())

    def eval_matrix(self, xs, ys):
        xs = _as_points(xs, self.dim_x, "x")
        ys = _as_points(ys, self.dim_y, "y")
        sq = np.zeros((xs.shape[0], ys.shape[0]))
        for i in range(self.dim_x):
            sq += (ys[:, i] - xs[:, i, None]) ** 2 / self._var[i]
        return self._norm * np.exp(-0.5 * sq)

    def weighted_grad1(self, xs, ys, k, w):
        # per-coordinate differences, not (k∘w)@Y − x∘rowsum, which cancels
        # when the cloud sits far from the origin
        kw = k * w
        out = np.empty((xs.shape[0], self.dim_x))
        for i in range(self.dim_x):
            out[:, i] = np.sum(kw * (ys[:, i] - xs[:, i, None]), axis=1) / self._var[i]
        return out


class GaussianMixtureDelayKernel(KernelModel):
    """1-D delay kernel k(x, y) = Σ_i w_i N(y − x; m_i, s_i²)."""

    def __init__(self, weights, means, sds):
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        m = np.atleast_1d(np.asarray(means, dtype=float))
        s = np.atleast_1d(np.asarray(sds, dtype=float))
        if not (w.size == m.size == s.size):
            raise ValueError("weights, means, sds must have equal length")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")
        if np.any(s <= 0):
            raise ValueError("sds must be positive")
        self.weights, self.means, self.sds = w, m, s
        self.dim_x = self.dim_y = 1
        peak = float(np.sum(w / (s * _SQRT_2PI)))
        grad_peak = float(np.sum(w * np.exp(-0.5) / (s**2 * _SQRT_2PI)))
        self.bound_M = max(peak, grad_peak)

    def _components(self, xs, ys):
        """Per component: sd s, z = (y − x − m)/s and w·N(y − x; m, s²), (n, m) each."""
        u = ys[:, 0] - xs[:, 0, None]
        for w, m, s in zip(self.weights, self.means, self.sds):
            z = (u - m) / s
            yield s, z, w * (np.exp(-0.5 * z**2) / (s * _SQRT_2PI))

    def eval_matrix(self, xs, ys):
        xs = _as_points(xs, 1, "x")
        ys = _as_points(ys, 1, "y")
        return sum(dens for _, _, dens in self._components(xs, ys))

    def weighted_grad1(self, xs, ys, k, w):
        # d/dx N(y-x; m, s^2) = N * (y-x-m)/s^2
        grad = sum(dens * z / s for s, z, dens in self._components(xs, ys))
        return (grad @ w)[:, None]


class RadonAlignmentKernel(KernelModel):
    """Tomography alignment kernel on (x₁, x₂) → (φ, ξ).

    k(x, (φ, ξ)) ∝ exp(−(x₁cosφ + x₂sinφ − ξ)² / 2σ²), renormalized once by
    2-D trapezoid quadrature over [0, 2π] × [−xi_max, xi_max].  The kernel
    integrates to 1 for fixed x up to Gaussian tail clipping, negligible while
    ‖x‖ ≤ xi_max − 8σ.
    """

    def __init__(self, sigma: float, xi_max: float = 2.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if xi_max <= 0:
            raise ValueError("xi_max must be positive")
        self.sigma = float(sigma)
        self.xi_max = float(xi_max)
        self.dim_x = 2
        self.dim_y = 2
        self.norm_const = self._quadrature_norm()
        self.bound_M = max(1.0 / self.norm_const,
                           np.exp(-0.5) / (self.sigma * self.norm_const))

    def _quadrature_norm(self) -> float:
        n_xi = max(2049, int(np.ceil(2 * self.xi_max / (self.sigma / 8.0))) + 1)
        xi = np.linspace(-self.xi_max, self.xi_max, n_xi)
        vals = np.exp(-0.5 * (xi / self.sigma) ** 2)
        inner = np.trapezoid(vals, xi)          # independent of phi and of the line offset
        return float(2.0 * np.pi * inner)

    def _residual(self, xs, ys):
        phi = ys[:, 0]
        xi = ys[:, 1]
        u = np.column_stack([np.cos(phi), np.sin(phi)])           # (m, 2)
        r = xs @ u.T                                              # (n, m)
        return r - xi[None, :], u

    def eval_matrix(self, xs, ys):
        xs = _as_points(xs, 2, "x")
        ys = _as_points(ys, 2, "y")
        res, _ = self._residual(xs, ys)
        return np.exp(-0.5 * (res / self.sigma) ** 2) / self.norm_const

    def weighted_grad1(self, xs, ys, k, w):
        res, u = self._residual(xs, ys)
        return -((k * w * res) @ u) / self.sigma**2
