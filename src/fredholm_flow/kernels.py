"""Markov-kernel densities k(x, y) and their x-gradients.

A kernel implements two batched methods over every pair of particles xs
(n, d) and observations ys (m, p):

- ``eval_matrix(xs, ys, out=None, plane=None, work=None)``: the (m, n)
  matrix k(x_i, y_j), one row per observation, written into ``out`` when
  one is given; when ``plane`` is given, the same sweep also writes the
  kernel's gradient plane into it, a stack of ``planes`` arrays shaped like
  k;
- ``weighted_grad1(ys, k, plane, w, work=None)``: the (n, d) rows
  Σ_j w_j ∇₁k(x_i, y_j) from the k and plane of that sweep and weights
  ``w`` of shape (m,).

Both take their temporaries from ``work``, a stack of arrays shaped like k
that the caller gives, distinct from ``out`` and ``plane``, or allocate
fresh ones without it.  A kernel states in ``arrays`` how many arrays
shaped like k one sweep holds, without and with its plane: k, the plane
and ``work``, so a sweep with a plane gets ``arrays[1] − 1 − planes``
temporaries, and one without ``arrays[0] − 1``.  The Radon kernel holds
2 and 2, the Gaussian kernel 2 and d + 2 (1 and 3 at d = 1), and the
delay kernel 2 and 4, one more each with three components or more (3 with
a plane for one component).  A Radon sweep without a plane keeps one
temporary, the term x₂sinφ/σ, and a Gaussian one its differences after the
first, so none at d = 1.  With a plane the Radon term goes to ``out`` and
the Gaussian kernel's ``weighted_grad1`` forms k·w in its one temporary;
the delay kernel forms y − x in the first and, with a plane, its later
densities in the second (a middle component of three or more takes one
more for its z).

A sweep forms every pair by broadcasting a coordinate of the observations,
a column (m, 1), against the same coordinate of the particles, a row
(1, n), so row j of k holds observation j against every particle.  The
drift sweeps blocks of observations (see ``blocks``), and the KDE sweeps
its queries as observations.

The drift needs only the weighted sum, so no (n, m, d) gradient tensor is
ever formed from k.  The Gaussian kernel's plane is its d coordinate
differences D_i = y_i − x_i, formed once per sweep and read by both the
exponent and the gradient, ∇₁k = k·(D_i/σᵢ²)_i, so it redoes no exp and no
difference.  The delay kernel's plane is G = ∂ₓk and the Radon kernel's is
G = k·u for the scaled residual u = (x₁cosφ + x₂sinφ − ξ)/σ, one plane
each; their gradients are ∇₁k(x_i, y_j) = G_ji · v_j with per-observation
directions v (m, d), v = 1 and v = −(cosφ, sinφ)/σ, and ``weighted_grad1``
is ``plane_rows(plane[0], w, v)``.

Every constant of a sweep is fixed at construction, so no pairwise pass
divides and none applies a constant in a second pass: the Gaussian kernel
multiplies each axis's squared difference by −1/(2σᵢ²); the delay kernel
does the same per component with −1/(2s_c²), then w_c/(s_c√2π) and 1/s_c²,
and its first component writes ``out`` and ``plane`` directly, with no zero
fill; the Radon kernel scales each observation's cosφ, sinφ and ξ by 1/σ
(O(m) per call) and multiplies by 1/Z.  Differences are formed before any
scaling, y − x first: coordinates scaled first would cancel far from the
origin.  A constructor rejects a width whose folded reciprocal overflows,
so no 0·inf reaches a sweep at the mode.

Each pair's k and plane entries are computed from that pair alone, with
elementwise ufuncs (no BLAS call), so they are the same bits whichever
other pairs are evaluated with them: the KDE runs ``eval_matrix`` in row
blocks, the drift in blocks of observations.  ``weighted_grad1`` adds each
particle's terms over the observations in order, so its rows are the same
bits whichever other particles (at least one) come with them; the drift
passes all of them to every block.
Pointwise ``eval`` and ``grad1`` are derived from the two (one pair, unit
weight).  Every kernel is immutable after construction, and every
constructor rejects a parameter that is not finite, or whose normaliser
or ``bound_M`` is not, with a ValueError.
``bound_M`` is an analytic uniform bound on both k and ``‖∇₁k‖`` (second
derivatives are bounded too but nothing downstream consumes them).
"""
from __future__ import annotations

import abc

import numpy as np

_SQRT_2PI = np.sqrt(2.0 * np.pi)
# nodes of the Radon normalizing quadrature past which xi_max / sigma is rejected
_MAX_QUADRATURE_NODES = 2**20


def _as_points(arr, dim: int, name: str) -> np.ndarray:
    """Coerce to a float (rows, dim) array, accepting a single point as (1, dim)."""
    out = np.atleast_2d(np.asarray(arr, dtype=float))
    if out.ndim != 2 or out.shape[1] != dim:
        raise ValueError(f"{name} has shape {out.shape}, expected (rows, {dim})")
    return out


def _pairs(kernel, xs, ys):
    """Coordinate views X (d, 1, n) of particles xs (n, d) and Y (p, m, 1) of
    observations ys (m, p), and the shape (m, n) of their pairs."""
    xs = _as_points(xs, kernel.dim_x, "x")
    ys = _as_points(ys, kernel.dim_y, "y")
    return xs.T[:, None], ys.T[:, :, None], (ys.shape[0], xs.shape[0])


def _work(work, count: int, shape: tuple) -> np.ndarray:
    """The caller's temporaries ``work``, or ``count`` fresh arrays of ``shape``."""
    return np.empty((count, *shape)) if work is None else work


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
    """The (n, d) rows Σ_j w_j G_ji v_j of a gradient plane G (m, n) with
    per-observation directions v (m, d): one no-BLAS reduction over the
    observations per coordinate, in order, so row i depends on G's column i
    alone."""
    if plane.shape[1] == 1:
        # einsum would add a lone particle's terms pairwise, not in order
        return np.add.accumulate(plane * (w[:, None] * v), axis=0)[-1:]
    return np.column_stack([np.einsum("ji,j->i", plane, w * v[:, i])
                            for i in range(v.shape[1])])


class KernelModel(abc.ABC):
    """Density of a Markov kernel: k(x, ·) integrates to 1 over R^p."""

    dim_x: int
    dim_y: int
    bound_M: float
    planes = 1   # arrays shaped like k in the gradient plane
    # arrays shaped like k one sweep holds, without and with its plane: k, the
    # plane and the temporaries
    arrays = (1, 2)

    @abc.abstractmethod
    def eval_matrix(self, xs: np.ndarray, ys: np.ndarray, out: np.ndarray | None = None,
                    plane: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
        """The (m, n) matrix k(x_i, y_j) of particles xs (n, d) and observations
        ys (m, p); returns ``out`` if given, and writes the (planes, m, n)
        gradient plane into ``plane`` if given, with the temporaries ``work``."""

    @abc.abstractmethod
    def weighted_grad1(self, ys: np.ndarray, k: np.ndarray, plane: np.ndarray,
                       w: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """Σ_j w_j ∇₁k(x_i, y_j) for the (m, n) k and gradient plane of
        eval_matrix(xs, ys) and w (m,), with that sweep's temporaries ``work``;
        returns (n, d)."""

    def eval(self, x, y) -> float:
        return float(self.eval_matrix(x, y)[0, 0])

    def grad1(self, x, y) -> np.ndarray:
        ys = _as_points(y, self.dim_y, "y")
        plane = np.empty((self.planes, 1, 1))
        k = self.eval_matrix(x, ys, plane=plane)
        return self.weighted_grad1(ys, k, plane, np.ones(1))[0]


class GaussianConvolutionKernel(KernelModel):
    """k(x, y) = ∏_i N(y_i; x_i, σ_i²), the additive-noise deconvolution kernel."""

    def __init__(self, noise_sd):
        sd = _finite(noise_sd, "noise_sd", positive=True)
        self.noise_sd = sd
        self.dim_x = self.dim_y = self.planes = sd.size
        self.arrays = (1 + (sd.size > 1), sd.size + 2)   # no temporary without a plane at d = 1
        with np.errstate(all="ignore"):
            self._var = sd**2
            self._exponent_scale = -0.5 / self._var   # −1/(2σᵢ²)
            self._norm = float(np.prod(1.0 / (sd * _SQRT_2PI)))
            # sup k at y = x; sup ‖∇₁k‖ at a unit displacement of the narrowest axis
            self.bound_M = max(self._norm, self._norm * np.exp(-0.5) / sd.min())
        _finite([self._norm, self.bound_M, *self._var, *-self._exponent_scale],
                "noise_sd's normaliser, bound_M, variances and their reciprocals", positive=True)

    def eval_matrix(self, xs, ys, out=None, plane=None, work=None):
        """k into ``out`` and, when ``plane`` is given, the differences
        D_i = y_i − x_i into its d planes, formed as one broadcast copy of y
        less x (the same bits as one broadcast subtract, and cheaper); the
        exponent Σ_i D_i²·(−1/(2σᵢ²)) is then one einsum over the planes, the
        same bits as squaring, scaling and adding them in order.  Without a
        plane, k is formed one difference at a time, the first in ``out`` and
        each later one in the temporary, so a KDE block needs no d planes
        (and at d = 1 the einsum would be slower than a square and a
        scale)."""
        X, Y, shape = _pairs(self, xs, ys)
        sq = np.empty(shape) if out is None else out
        with np.errstate(over="ignore"):   # an exponent of -inf is k = 0
            if plane is None:
                later = None if self.dim_x == 1 else _work(work, 1, shape)[0]
                for i in range(self.dim_x):
                    diff = sq if i == 0 else later
                    np.copyto(diff, Y[i])
                    diff -= X[i]
                    np.square(diff, out=diff)
                    diff *= self._exponent_scale[i]
                    if i:
                        sq += diff
            else:
                np.copyto(plane, Y)
                plane -= X
                np.einsum("aji,aji,a->ji", plane, plane, self._exponent_scale, out=sq)
        np.exp(sq, out=sq)
        sq *= self._norm
        return sq

    def weighted_grad1(self, ys, k, plane, w, work=None):
        # per-coordinate differences, not Yᵀ(k∘w) − x∘colsum, which cancels
        # when the cloud sits far from the origin
        kw = np.multiply(k, w[:, None], out=_work(work, 1, k.shape)[0])
        if k.shape[1] == 1:
            # einsum would add a lone particle's terms pairwise, not in order
            sums = np.add.accumulate(plane[:, :, 0] * kw[:, 0], axis=1)[:, -1:].T
        else:
            sums = np.einsum("aji,ji->ia", plane, kw)
        sums /= self._var
        return sums


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
        # temporaries: y − x, with a plane the later densities, and from three
        # components on a middle component's z
        many = m.size >= 3
        self.arrays = (2 + many, 3 + (m.size >= 2) + many)
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

    def eval_matrix(self, xs, ys, out=None, plane=None, work=None):
        """Σ_c w_c N(y − x; m_c, s_c²) into ``out`` and, when ``plane`` is given, its
        x-derivative Σ_c w_c N(y − x; m_c, s_c²)(y − x − m_c)/s_c² into its one
        plane, in one pass over the components.  The first component writes
        ``out`` and the plane directly, and each later one is added in.  y − x
        is formed once, in the first temporary, and like the Gaussian kernel's
        it is a broadcast copy of y less x.  Component c subtracts m_c from it
        in one pass into its z = (y − x) − m_c, the same bits as y − x − m_c
        formed anew for each component: the first component's z is its own
        output (``out``, or the plane when one is given), the last's is y − x's
        temporary itself and any other's the last temporary.  Without a plane
        z is the component's density; with one, the later densities go to the
        second temporary."""
        X, Y, shape = _pairs(self, xs, ys)
        out = np.empty(shape) if out is None else out
        grad = None if plane is None else plane[0]
        work = _work(work, self.arrays[grad is not None] - 1 - (grad is not None), shape)
        diff = work[0]
        np.copyto(diff, Y[0])
        diff -= X[0]
        last = self.means.size - 1
        components = zip(self.means, self._exponent_scale, self._peak, self._precision)
        for c, (m, scale, peak, precision) in enumerate(components):
            if c == 0:
                z = out if grad is None else grad
            elif c == last:
                z = diff
            else:
                z = work[1] if grad is None else work[2]
            # k alone needs no z apart from its density
            dens = z if grad is None else out if c == 0 else work[1]
            np.subtract(diff, m, out=z)
            with np.errstate(over="ignore"):   # an exponent of -inf is k = 0
                np.square(z, out=dens)
                dens *= scale
            np.exp(dens, out=dens)
            dens *= peak
            if c:
                out += dens
            if grad is not None:
                z *= dens
                z *= precision
                if c:
                    grad += z
        return out

    def weighted_grad1(self, ys, k, plane, w, work=None):
        return plane_rows(plane[0], w, np.ones((w.size, 1)))


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
        self.arrays = (2, 2)   # without a plane, u's term x₂sinφ/σ in the temporary
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

    def eval_matrix(self, xs, ys, out=None, plane=None, work=None):
        """k into ``out`` and, when ``plane`` is given, G = k·u into its one plane,
        for the scaled residual u = x₁(cosφ/σ) + x₂(sinφ/σ) − ξ/σ formed once
        from observations scaled by 1/σ.  With a plane, u is formed there and
        its term x₂(sinφ/σ) in ``out``, which squaring u overwrites; without
        one, u is ``out`` and the term goes to the temporary."""
        X, Y, shape = _pairs(self, xs, ys)
        out = np.empty(shape) if out is None else out
        u = out if plane is None else plane[0]
        cos, sin = self._direction(Y[0])
        with np.errstate(over="ignore"):   # an exponent of -inf is k = 0
            # broadcast copies scaled in place: the same bits as broadcast products
            np.copyto(u, cos)
            u *= X[0]
            term = _work(work, 1, shape)[0] if plane is None else out
            np.copyto(term, sin)
            term *= X[1]
            u += term
            u -= Y[1] * self._inv_sigma
            np.square(u, out=out)
        out *= -0.5
        np.exp(out, out=out)
        out *= self._inv_norm
        if plane is not None:
            u *= out
        return out

    def _direction(self, phi):
        """cosφ/σ and sinφ/σ, each shaped like φ."""
        return np.cos(phi) * self._inv_sigma, np.sin(phi) * self._inv_sigma

    def weighted_grad1(self, ys, k, plane, w, work=None):
        return plane_rows(plane[0], w, -np.column_stack(self._direction(ys[:, 0])))
