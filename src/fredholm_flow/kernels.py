"""Markov-kernel densities k(x, y) and their x-gradients.

A kernel implements two batched methods, both on all particles against all
batch observations at once:

- ``eval_matrix(xs, ys, out=None, plane=None)``: the (n, m) matrix k(x_i, y_j),
  written into ``out`` when one is given; when ``plane`` is given, the same
  sweep also writes the kernel's (n, m) gradient plane G into it;
- ``weighted_grad1(xs, ys, plane, w)``: the (n, d) rows Σ_j w_j ∇₁k(x_i, y_j)
  from that plane and weights ``w`` of shape (m,).

The drift needs only that weighted sum, so no (n, m, d) gradient tensor is
ever formed.  The delay kernel's plane is G = ∂ₓk and the Radon kernel's is
G = k·u for the scaled residual u = (x₁cosφ + x₂sinφ − ξ)/σ, so k and G come
from one sweep; their gradients are ∇₁k(x_i, y_j) = G_ij · v_j with per-column
directions v (m, d), v = 1 and v = −(cosφ, sinφ)/σ, and ``weighted_grad1`` is
``plane_rows(plane, w, v)``.  The Gaussian kernel's gradient redoes no exp:
its plane is k itself, which it says with ``plane_is_k = True``, so its
``eval_matrix`` ignores ``plane`` and its ``weighted_grad1`` reads k.

Every constant of a sweep is fixed at construction, so no (n, m) pass
divides and none applies a constant in a second pass: the Gaussian kernel
multiplies each axis's squared difference by −1/(2σᵢ²); the delay kernel
does the same per component with −1/(2s_c²), then w_c/(s_c√2π) and 1/s_c²,
and its first component writes ``out`` and ``plane`` directly, with no zero
fill; the Radon kernel scales each column's cosφ, sinφ and ξ by 1/σ (O(m)
per call) and multiplies by 1/Z.  Differences are formed before any scaling,
y − x first: coordinates scaled first would cancel far from the origin.  A
constructor rejects a width whose folded reciprocal overflows, so no 0·inf
reaches a sweep at the mode.

Row i of every result is computed from particle i alone, with elementwise
ufuncs and row sums (no BLAS call), so it is the same bits whichever rows
are evaluated with it: the KDE runs the methods in row blocks on several
threads (see ``blocks``).  Likewise, column j of k and of the plane is
computed from observation j alone, so it is the same bits whichever columns
are evaluated with it: the drift runs ``eval_matrix`` in column blocks, and
``weighted_grad1`` once per block.  Temporaries go to the calling thread's
reusable ``blocks.scratch`` workspaces "a" to "c", so neither ``out`` nor
``plane`` may be one of those.  Pointwise ``eval`` and ``grad1`` are derived
from the two (one pair, unit weight).  Every kernel is immutable after
construction, and every constructor rejects a parameter that is not finite,
or whose normaliser or ``bound_M`` is not, with a ValueError.  ``bound_M`` is
an analytic uniform bound on both k and ``‖∇₁k‖`` (second derivatives are
bounded too but nothing downstream consumes them).
"""
from __future__ import annotations

import abc

import numpy as np

from .blocks import scratch

_SQRT_2PI = np.sqrt(2.0 * np.pi)
# nodes of the Radon normalizing quadrature past which xi_max / sigma is rejected
_MAX_QUADRATURE_NODES = 2**20


def _as_points(arr, dim: int, name: str) -> np.ndarray:
    """Coerce to an (n, dim) float array, accepting a single point."""
    out = np.atleast_2d(np.asarray(arr, dtype=float))
    if out.shape[1] != dim:
        raise ValueError(f"{name} has dimension {out.shape[1]}, expected {dim}")
    return out


def _finite(value, name: str, positive: bool = False) -> np.ndarray:
    """``value`` as a 1-D float array, or a ValueError naming ``name`` unless every
    entry is finite (and, if ``positive``, above 0)."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if positive and not np.all(arr > 0):
        raise ValueError(f"{name} must be positive")
    return arr


def plane_rows(plane: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (n, d) rows Σ_j w_j G_ij v_j of a gradient plane G (n, m) with
    per-column directions v (m, d): one no-BLAS row reduction per coordinate,
    so row i depends on G's row i alone."""
    return np.column_stack([np.einsum("ij,j->i", plane, w * v[:, i])
                            for i in range(v.shape[1])])


class KernelModel(abc.ABC):
    """Density of a Markov kernel: k(x, ·) integrates to 1 over R^p."""

    dim_x: int
    dim_y: int
    bound_M: float
    plane_is_k = False   # True when the gradient plane is k itself

    @abc.abstractmethod
    def eval_matrix(self, xs: np.ndarray, ys: np.ndarray, out: np.ndarray | None = None,
                    plane: np.ndarray | None = None) -> np.ndarray:
        """k(x_i, y_j) for xs (n, d) and ys (m, p); returns (n, m), ``out`` if given,
        and writes the (n, m) gradient plane into ``plane`` if given."""

    @abc.abstractmethod
    def weighted_grad1(self, xs: np.ndarray, ys: np.ndarray, plane: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
        """Σ_j w_j ∇₁k(x_i, y_j) for the gradient plane of eval_matrix(xs, ys) and
        w (m,); returns (n, d)."""

    def eval(self, x, y) -> float:
        xs = _as_points(x, self.dim_x, "x")
        ys = _as_points(y, self.dim_y, "y")
        return float(self.eval_matrix(xs, ys)[0, 0])

    def grad1(self, x, y) -> np.ndarray:
        xs = _as_points(x, self.dim_x, "x")
        ys = _as_points(y, self.dim_y, "y")
        plane = np.empty((1, 1))
        k = self.eval_matrix(xs, ys, plane=plane)
        return self.weighted_grad1(xs, ys, k if self.plane_is_k else plane, np.ones(1))[0]


class GaussianConvolutionKernel(KernelModel):
    """k(x, y) = ∏_i N(y_i; x_i, σ_i²), the additive-noise deconvolution kernel."""

    plane_is_k = True

    def __init__(self, noise_sd):
        sd = _finite(noise_sd, "noise_sd", positive=True)
        self.noise_sd = sd
        self.dim_x = self.dim_y = sd.size
        with np.errstate(all="ignore"):
            self._var = sd**2
            self._exponent_scale = -0.5 / self._var   # −1/(2σᵢ²)
            self._norm = float(np.prod(1.0 / (sd * _SQRT_2PI)))
            # sup k at y = x; sup ‖∇₁k‖ at a unit displacement of the narrowest axis
            self.bound_M = max(self._norm, self._norm * np.exp(-0.5) / sd.min())
        _finite([self._norm, self.bound_M, *self._var, *-self._exponent_scale],
                "noise_sd's normaliser, bound_M, variances and their reciprocals", positive=True)

    def eval_matrix(self, xs, ys, out=None, plane=None):
        xs = _as_points(xs, self.dim_x, "x")
        ys = _as_points(ys, self.dim_y, "y")
        sq = np.empty((xs.shape[0], ys.shape[0])) if out is None else out
        with np.errstate(over="ignore"):   # an exponent of -inf is k = 0
            for i in range(self.dim_x):
                term = sq if i == 0 else scratch("a", *sq.shape)
                np.subtract(ys[:, i], xs[:, i, None], out=term)
                np.square(term, out=term)
                term *= self._exponent_scale[i]
                if i:
                    sq += term
        np.exp(sq, out=sq)
        sq *= self._norm
        return sq

    def weighted_grad1(self, xs, ys, plane, w):
        # per-coordinate differences, not (k∘w)@Y − x∘rowsum, which cancels
        # when the cloud sits far from the origin
        kw = np.multiply(plane, w, out=scratch("b", *plane.shape))
        term = scratch("a", *plane.shape)
        out = np.empty((xs.shape[0], self.dim_x))
        for i in range(self.dim_x):
            np.subtract(ys[:, i], xs[:, i, None], out=term)
            out[:, i] = np.einsum("ij,ij->i", term, kw) / self._var[i]
        return out


class GaussianMixtureDelayKernel(KernelModel):
    """1-D delay kernel k(x, y) = Σ_i w_i N(y − x; m_i, s_i²)."""

    def __init__(self, weights, means, sds):
        w = _finite(weights, "weights")
        m = _finite(means, "means")
        s = _finite(sds, "sds", positive=True)
        if not (w.size == m.size == s.size):
            raise ValueError("weights, means, sds must have equal length")
        if np.any(w < 0) or not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must be a probability vector")
        self.weights, self.means, self.sds = w, m, s
        self.dim_x = self.dim_y = 1
        with np.errstate(all="ignore"):
            peak = float(np.sum(w / (s * _SQRT_2PI)))
            grad_peak = float(np.sum(w * np.exp(-0.5) / (s**2 * _SQRT_2PI)))
            # component c's term of k is peak·exp(scale·d²) for d = y − x − m_c, and
            # its x-derivative is that term times precision·d
            self._precision = 1.0 / s**2
            self._exponent_scale = -0.5 * self._precision
            self._peak = w / (s * _SQRT_2PI)
        self.bound_M = float(np.max([peak, grad_peak]))   # NaN, as from 0/0, propagates
        _finite([peak, self.bound_M, *self._precision], "sds' normaliser, bound_M and "
                "precisions", positive=True)

    def eval_matrix(self, xs, ys, out=None, plane=None):
        """Σ_c w_c N(y − x; m_c, s_c²) into ``out`` and, when ``plane`` is given, its
        x-derivative Σ_c w_c N(y − x; m_c, s_c²)(y − x − m_c)/s_c² into ``plane``,
        both (n, m), in one pass over the components.  The first component
        writes ``out`` and ``plane`` directly, and each later one is added in.
        y − x is formed anew for each component, the same bits each time, so a
        block needs two workspaces, not three."""
        xs = _as_points(xs, 1, "x")
        ys = _as_points(ys, 1, "y")
        shape = (xs.shape[0], ys.shape[0])
        out = np.empty(shape) if out is None else out
        components = zip(self.means, self._exponent_scale, self._peak, self._precision)
        for c, (m, scale, peak, precision) in enumerate(components):
            dens = out if c == 0 else scratch("b", *shape)
            # k alone needs no z
            z = dens if plane is None else plane if c == 0 else scratch("c", *shape)
            np.subtract(ys[:, 0], xs[:, 0, None], out=z)
            z -= m
            with np.errstate(over="ignore"):   # an exponent of -inf is k = 0
                np.square(z, out=dens)
                dens *= scale
            np.exp(dens, out=dens)
            dens *= peak
            if c:
                out += dens
            if plane is not None:
                z *= dens
                z *= precision
                if c:
                    plane += z
        return out

    def weighted_grad1(self, xs, ys, plane, w):
        return plane_rows(plane, w, np.ones((plane.shape[1], 1)))


class RadonAlignmentKernel(KernelModel):
    """Tomography alignment kernel on (x₁, x₂) → (φ, ξ).

    k(x, (φ, ξ)) ∝ exp(−(x₁cosφ + x₂sinφ − ξ)² / 2σ²), renormalized once by
    2-D trapezoid quadrature over [0, 2π] × [−xi_max, xi_max].  The kernel
    integrates to 1 for fixed x up to Gaussian tail clipping, negligible while
    ‖x‖ ≤ xi_max − 8σ.
    """

    def __init__(self, sigma: float, xi_max: float = 2.0):
        self.sigma = float(sigma)
        self.xi_max = float(xi_max)
        _finite(self.sigma, "sigma", positive=True)
        _finite(self.xi_max, "xi_max", positive=True)
        self.dim_x = 2
        self.dim_y = 2
        self.norm_const = self._quadrature_norm()
        with np.errstate(all="ignore"):
            self._inv_sigma = 1.0 / self.sigma
            self._inv_norm = 1.0 / self.norm_const
            self.bound_M = max(1.0 / self.norm_const,
                               np.exp(-0.5) / (self.sigma * self.norm_const))
        _finite([self.norm_const, self.bound_M, self._inv_sigma, self._inv_norm],
                "the normaliser and bound_M of sigma and xi_max, and their reciprocals",
                positive=True)

    def _quadrature_norm(self) -> float:
        with np.errstate(all="ignore"):
            steps = np.ceil(2 * self.xi_max / (self.sigma / 8.0))
        if not steps < _MAX_QUADRATURE_NODES:
            raise ValueError("xi_max / sigma needs too many quadrature nodes")
        n_xi = max(2049, int(steps) + 1)
        xi = np.linspace(-self.xi_max, self.xi_max, n_xi)
        vals = np.exp(-0.5 * (xi / self.sigma) ** 2)
        inner = np.trapezoid(vals, xi)          # independent of phi and of the line offset
        return float(2.0 * np.pi * inner)

    def eval_matrix(self, xs, ys, out=None, plane=None):
        """k into ``out`` and, when ``plane`` is given, G = k·u into ``plane``, for
        the scaled residual u = x₁(cosφ/σ) + x₂(sinφ/σ) − ξ/σ formed once from
        columns scaled by 1/σ."""
        xs = _as_points(xs, 2, "x")
        ys = _as_points(ys, 2, "y")
        out = np.empty((xs.shape[0], ys.shape[0])) if out is None else out
        u = out if plane is None else plane
        cos, sin = self._direction(ys)
        with np.errstate(over="ignore"):   # an exponent of -inf is k = 0
            np.multiply(xs[:, 0, None], cos, out=u)
            u += np.multiply(xs[:, 1, None], sin, out=scratch("b", *u.shape))
            u -= ys[:, 1] * self._inv_sigma
            np.square(u, out=out)
        out *= -0.5
        np.exp(out, out=out)
        out *= self._inv_norm
        if plane is not None:
            plane *= out
        return out

    def _direction(self, ys):
        """cosφ/σ and sinφ/σ, each (m,)."""
        return np.cos(ys[:, 0]) * self._inv_sigma, np.sin(ys[:, 0]) * self._inv_sigma

    def weighted_grad1(self, xs, ys, plane, w):
        return plane_rows(plane, w, -np.column_stack(self._direction(ys)))
