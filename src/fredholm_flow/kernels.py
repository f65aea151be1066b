"""Markov-kernel densities k(x, y) and their x-gradients.

A kernel implements two batched methods, both on all particles against all
batch observations at once:

- ``eval_matrix(xs, ys, out=None)``: the (n, m) matrix k(x_i, y_j), written
  into ``out`` when one is given;
- ``weighted_grad1(xs, ys, k, w)``: the (n, d) rows Σ_j w_j ∇₁k(x_i, y_j),
  given that matrix ``k`` and weights ``w`` of shape (m,).

The drift needs only that weighted sum, so no (n, m, d) gradient tensor is
ever formed.  Row i of either result is computed from particle i alone, with
elementwise ufuncs and row sums (no BLAS call), so it is the same bits
whichever rows are evaluated with it: the solver and the KDE run both
methods in row blocks on several threads (see ``blocks``).  Temporaries go
to the calling thread's reusable ``blocks.scratch`` workspaces "a", "b" and
"c", so an ``out`` must not be one of those.  Pointwise
``eval`` and ``grad1`` are derived from the two (one pair, unit weight).
Every kernel is immutable after construction.  ``bound_M`` is an analytic
uniform bound on both k and ``‖∇₁k‖`` (second derivatives are bounded too
but nothing downstream consumes them).
"""
from __future__ import annotations

import abc

import numpy as np

from .blocks import scratch

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
    def eval_matrix(self, xs: np.ndarray, ys: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """k(x_i, y_j) for xs (n, d) and ys (m, p); returns (n, m), ``out`` if given."""

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

    def eval_matrix(self, xs, ys, out=None):
        xs = _as_points(xs, self.dim_x, "x")
        ys = _as_points(ys, self.dim_y, "y")
        sq = np.empty((xs.shape[0], ys.shape[0])) if out is None else out
        for i in range(self.dim_x):
            term = sq if i == 0 else scratch("a", *sq.shape)
            np.subtract(ys[:, i], xs[:, i, None], out=term)
            np.square(term, out=term)
            term /= self._var[i]
            if i:
                sq += term
        sq *= -0.5
        np.exp(sq, out=sq)
        sq *= self._norm
        return sq

    def weighted_grad1(self, xs, ys, k, w):
        # per-coordinate differences, not (k∘w)@Y − x∘rowsum, which cancels
        # when the cloud sits far from the origin
        kw = np.multiply(k, w, out=scratch("b", *k.shape))
        term = scratch("a", *k.shape)
        out = np.empty((xs.shape[0], self.dim_x))
        for i in range(self.dim_x):
            np.subtract(ys[:, i], xs[:, i, None], out=term)
            term *= kw
            out[:, i] = np.sum(term, axis=1) / self._var[i]
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
        """Per component: sd s, z = (y − x − m)/s and w·N(y − x; m, s²), (n, m)
        each, in workspaces that the next component overwrites."""
        z = scratch("a", xs.shape[0], ys.shape[0])
        dens = scratch("b", *z.shape)
        for w, m, s in zip(self.weights, self.means, self.sds):
            np.subtract(ys[:, 0], xs[:, 0, None], out=z)
            z -= m
            z /= s
            np.square(z, out=dens)
            dens *= -0.5
            np.exp(dens, out=dens)
            dens /= s * _SQRT_2PI
            dens *= w
            yield s, z, dens

    def eval_matrix(self, xs, ys, out=None):
        xs = _as_points(xs, 1, "x")
        ys = _as_points(ys, 1, "y")
        out = np.empty((xs.shape[0], ys.shape[0])) if out is None else out
        out.fill(0.0)
        for _, _, dens in self._components(xs, ys):
            out += dens
        return out

    def weighted_grad1(self, xs, ys, k, w):
        # d/dx N(y-x; m, s^2) = N * (y-x-m)/s^2
        grad = scratch("c", *k.shape)
        grad.fill(0.0)
        for s, z, dens in self._components(xs, ys):
            dens *= z
            dens /= s
            grad += dens
        grad *= w
        return np.sum(grad, axis=1)[:, None]


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

    def _residual(self, xs, ys, out):
        """x₁cosφ + x₂sinφ − ξ into ``out``, by broadcasting; returns (cosφ, sinφ)."""
        cos, sin = np.cos(ys[:, 0]), np.sin(ys[:, 0])
        np.multiply(xs[:, 0, None], cos, out=out)
        out += np.multiply(xs[:, 1, None], sin, out=scratch("b", *out.shape))
        out -= ys[:, 1]
        return cos, sin

    def eval_matrix(self, xs, ys, out=None):
        xs = _as_points(xs, 2, "x")
        ys = _as_points(ys, 2, "y")
        res = np.empty((xs.shape[0], ys.shape[0])) if out is None else out
        self._residual(xs, ys, res)
        res /= self.sigma
        np.square(res, out=res)
        res *= -0.5
        np.exp(res, out=res)
        res /= self.norm_const
        return res

    def weighted_grad1(self, xs, ys, k, w):
        res = scratch("a", *k.shape)
        cos, sin = self._residual(xs, ys, res)
        kwr = np.multiply(k, w, out=scratch("b", *k.shape))
        kwr *= res
        rows = [np.sum(np.multiply(kwr, c, out=res), axis=1) for c in (cos, sin)]
        return -np.column_stack(rows) / self.sigma**2
