import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fredholm_flow import (GaussianConvolutionKernel, GaussianMixtureDelayKernel,
                           RadonAlignmentKernel)
from fredholm_flow.blocks import by_observation

from conftest import central_difference, gauss_pdf

DELAY = dict(weights=(0.595, 0.405), means=(8.63, 15.24), sds=(2.56, 5.39))


def all_kernels():
    return [
        GaussianConvolutionKernel([0.045]),
        GaussianConvolutionKernel([0.3, 0.7]),
        GaussianMixtureDelayKernel(**DELAY),
        RadonAlignmentKernel(sigma=0.05, xi_max=2.0),
    ]


def random_pair(kernel, rng, scale=1.0):
    x = rng.normal(0.0, scale, kernel.dim_x)
    if isinstance(kernel, RadonAlignmentKernel):
        y = np.array([rng.uniform(0, 2 * np.pi), rng.normal(0.0, 0.5)])
    elif isinstance(kernel, GaussianMixtureDelayKernel):
        y = x + np.array([rng.normal(11.0, 5.0)])
    else:
        y = x + rng.normal(0.0, 2.0 * scale, kernel.dim_y)
    return x, y


def test_gaussian_mode_value():
    k = GaussianConvolutionKernel([0.045])
    assert k.eval(0.3, 0.3) == pytest.approx(1.0 / np.sqrt(2 * np.pi * 0.045**2), rel=1e-14)


def test_delay_kernel_component_value():
    k = GaussianMixtureDelayKernel(**DELAY)
    expected = 0.595 * gauss_pdf(8.63, 8.63, 2.56**2) + 0.405 * gauss_pdf(8.63, 15.24, 5.39**2)
    assert k.eval(0.0, 8.63) == pytest.approx(expected, rel=1e-14)


def test_eval_matches_straight_line_reimplementation(rng):
    # independent one-liner formulas, no shared code with the kernel classes
    g1 = GaussianConvolutionKernel([0.3, 0.7])
    for _ in range(50):
        x, y = random_pair(g1, rng)
        direct = (gauss_pdf(y[0], x[0], 0.09) * gauss_pdf(y[1], x[1], 0.49))
        assert g1.eval(x, y) == pytest.approx(direct, rel=1e-12)

    delay = GaussianMixtureDelayKernel(**DELAY)
    for _ in range(50):
        x, y = random_pair(delay, rng)
        direct = sum(w * gauss_pdf(y[0] - x[0], m, s**2)
                     for w, m, s in zip(*DELAY.values()))
        assert delay.eval(x, y) == pytest.approx(direct, rel=1e-12)

    radon = RadonAlignmentKernel(sigma=0.05, xi_max=2.0)
    for _ in range(50):
        x, y = random_pair(radon, rng)
        resid = x[0] * np.cos(y[0]) + x[1] * np.sin(y[0]) - y[1]
        direct = np.exp(-0.5 * (resid / 0.05) ** 2) / radon.norm_const
        assert radon.eval(x, y) == pytest.approx(direct, rel=1e-12)


def test_gradient_zero_at_mode():
    k = GaussianConvolutionKernel([0.045])
    assert np.allclose(k.grad1(0.4, 0.4), 0.0)


def test_gradient_analytic_1d(rng):
    k = GaussianConvolutionKernel([0.045])
    for _ in range(20):
        x, y = rng.normal(size=2) * 0.1
        assert k.grad1([x], [y])[0] == pytest.approx(
            k.eval([x], [y]) * (y - x) / 0.045**2, rel=1e-12)


# the 1e-6/h=1e-5 finite-difference budget is calibrated for kernels whose
# values are O(1); sharp kernels get the same check scaled by their bound
@pytest.mark.parametrize("kernel", [
    GaussianConvolutionKernel([0.3]),
    GaussianConvolutionKernel([0.3, 0.7]),
    GaussianMixtureDelayKernel(**DELAY),
], ids=lambda k: type(k).__name__)
def test_gradient_matches_finite_difference(kernel, rng):
    for _ in range(100):
        x, y = random_pair(kernel, rng, scale=0.3)
        fd = central_difference(lambda z: kernel.eval(z, y), x, h=1e-5)
        assert np.max(np.abs(kernel.grad1(x, y) - fd)) < 1e-6


@pytest.mark.parametrize("kernel", [
    GaussianConvolutionKernel([0.045]),
    RadonAlignmentKernel(sigma=0.05, xi_max=2.0),
], ids=lambda k: type(k).__name__)
def test_gradient_finite_difference_sharp_kernels(kernel, rng):
    for _ in range(100):
        x, y = random_pair(kernel, rng, scale=0.3)
        fd = central_difference(lambda z: kernel.eval(z, y), x, h=1e-5)
        assert np.max(np.abs(kernel.grad1(x, y) - fd)) < 1e-6 * max(1.0, kernel.bound_M)


def test_gaussian_1d_normalization_quadrature():
    k = GaussianConvolutionKernel([0.045])
    x = np.array([0.37])
    y = np.linspace(x[0] - 8 * 0.045, x[0] + 8 * 0.045, 4001)
    vals = k.eval_matrix(x[None, :], y[:, None])[0]
    assert np.trapezoid(vals, y) == pytest.approx(1.0, abs=1e-6)


def test_delay_normalization_quadrature():
    k = GaussianMixtureDelayKernel(**DELAY)
    x = np.array([3.0])
    lo = x[0] + min(DELAY["means"]) - 8 * max(DELAY["sds"])
    hi = x[0] + max(DELAY["means"]) + 8 * max(DELAY["sds"])
    y = np.linspace(lo, hi, 8001)
    vals = k.eval_matrix(x[None, :], y[:, None])[0]
    assert np.trapezoid(vals, y) == pytest.approx(1.0, abs=1e-6)


def test_radon_normalization_on_window():
    k = RadonAlignmentKernel(sigma=0.05, xi_max=2.0)
    x = np.array([[0.3, -0.2]])
    phi = np.linspace(0.0, 2 * np.pi, 257)
    xi = np.linspace(-2.0, 2.0, 4001)
    nodes = np.column_stack([np.repeat(phi, xi.size), np.tile(xi, phi.size)])
    vals = k.eval_matrix(x, nodes)[0].reshape(phi.size, xi.size)
    integral = np.trapezoid(np.trapezoid(vals, xi, axis=1), phi)
    assert integral == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: type(k).__name__)
def test_uniform_bound(kernel, rng):
    values, grads = [], []
    for _ in range(10_000):
        x, y = random_pair(kernel, rng, scale=1.5)
        values.append(kernel.eval(x, y))
        grads.append(np.linalg.norm(kernel.grad1(x, y)))
    assert max(values) <= kernel.bound_M + 1e-12
    assert max(grads) <= kernel.bound_M + 1e-12
    assert min(values) >= 0.0


@settings(max_examples=30, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-3, 3))
def test_translation_invariance(x, y, c):
    conv = GaussianConvolutionKernel([0.045])
    assert conv.eval([x], [y]) == pytest.approx(conv.eval([x + c], [y + c]), rel=1e-9, abs=1e-300)
    delay = GaussianMixtureDelayKernel(**DELAY)
    assert delay.eval([x], [y]) == pytest.approx(delay.eval([x + c], [y + c]), rel=1e-9, abs=1e-300)


def test_dimension_mismatch_raises():
    k = GaussianConvolutionKernel([0.1, 0.2])
    with pytest.raises(ValueError):
        k.eval([0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        k.grad1([0.0, 0.0], [0.0])


def nearby_batch(kernel, rng, n=4, m=5):
    """Particles and observations close enough that no k(x_i, y_j) underflows."""
    if isinstance(kernel, RadonAlignmentKernel):
        xs = rng.normal(0.0, kernel.sigma, (n, 2))
        ys = np.column_stack([rng.uniform(0, 2 * np.pi, m), rng.normal(0.0, kernel.sigma, m)])
    elif isinstance(kernel, GaussianMixtureDelayKernel):
        xs = rng.normal(0.0, 3.0, (n, 1))
        ys = rng.normal(11.0, 5.0, (m, 1))
    else:
        xs = rng.normal(0.0, kernel.noise_sd, (n, kernel.dim_x))
        ys = rng.normal(0.0, kernel.noise_sd, (m, kernel.dim_y))
    return xs, ys


@pytest.mark.parametrize("kernel, shift", [
    (GaussianConvolutionKernel([0.045]), 0.0),
    (GaussianConvolutionKernel([0.3, 0.7]), 0.0),
    (GaussianMixtureDelayKernel(**DELAY), 0.0),
    (RadonAlignmentKernel(sigma=0.05, xi_max=2.0), 0.0),
    # k depends on y − x only: far from the origin a reduction that forms
    # Σ_j w_j k_ij y_j − x_i Σ_j w_j k_ij loses the difference to cancellation
    (GaussianConvolutionKernel([0.045]), 1e3),
    (GaussianConvolutionKernel([0.3, 0.7]), 1e3),
    (GaussianMixtureDelayKernel(**DELAY), 1e3),
], ids=["gauss-d1", "gauss-d2", "delay", "radon", "gauss-d1-shifted",
        "gauss-d2-shifted", "delay-shifted"])
def test_batch_matches_pointwise(kernel, shift, rng):
    xs, ys = nearby_batch(kernel, rng)
    # snap to points representable both at 0 and at the shift, so the shifted
    # batch is an exact translate of the pointwise oracle's inputs
    xs, ys = (xs + shift) - shift, (ys + shift) - shift
    w = rng.uniform(0.1, 2.0, ys.shape[0])
    mat = kernel.eval_matrix(xs + shift, ys + shift)
    xv, yv = by_observation(xs + shift, ys + shift)
    plane = np.empty((kernel.planes, ys.shape[0], xs.shape[0]))
    k = kernel.eval_matrix(xv, yv, plane=plane)
    # observation-major pairs are the same bits as particle-major ones
    assert np.array_equal(k, mat.T)
    got = kernel.weighted_grad1(xv, yv, k, plane, w)
    assert mat.shape == (xs.shape[0], ys.shape[0])
    assert got.shape == xs.shape
    for i in range(xs.shape[0]):
        want = sum(w[j] * kernel.grad1(xs[i], ys[j]) for j in range(ys.shape[0]))
        np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=0)
        for j in range(ys.shape[0]):
            assert mat[i, j] == pytest.approx(kernel.eval(xs[i], ys[j]), rel=1e-12)


def test_invalid_construction():
    with pytest.raises(ValueError):
        GaussianConvolutionKernel([0.0])
    with pytest.raises(ValueError):
        GaussianMixtureDelayKernel([0.5, 0.4], [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        RadonAlignmentKernel(sigma=-1.0)


@pytest.mark.parametrize("kernel, x, y", [
    (GaussianConvolutionKernel([1e-154]), [0.0], [10.0]),
    (GaussianMixtureDelayKernel([1.0], [0.0], [1e-154]), [0.0], [100.0]),
    (RadonAlignmentKernel(sigma=1e-150, xi_max=1e-150), [1e5, 0.0], [0.0, 0.0]),
], ids=["gaussian", "delay", "radon"])
def test_narrow_kernel_far_away_is_zero_without_warning(kernel, x, y):
    # the exponent overflows to -inf, and exp(-inf) = 0 is the right value
    plane = np.empty((kernel.planes, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert kernel.eval_matrix([x], [y])[0, 0] == 0.0
        assert kernel.eval_matrix([x], [y], plane=plane)[0, 0] == 0.0
        assert np.array_equal(kernel.grad1(x, y), np.zeros(kernel.dim_x))


def narrowest_accepted(build):
    """The smallest positive float w for which ``build(w)`` raises no ValueError,
    by bisection on the bit patterns of the positive floats, which sort as
    the floats do (``build`` must accept every w above that one, and 1.0)."""
    def as_float(bits):
        return float(np.array([bits], dtype=np.int64).view(np.float64)[0])

    rejected, accepted = 0, int(np.array([1.0]).view(np.int64)[0])
    while accepted - rejected > 1:
        mid = (rejected + accepted) // 2
        try:
            build(as_float(mid))
            accepted = mid
        except ValueError:
            rejected = mid
    return as_float(accepted)


SQRT_2PI = np.sqrt(2 * np.pi)


@pytest.mark.parametrize("build, x, y, mode_value", [
    (lambda w: GaussianConvolutionKernel([w]), [0.5], [0.5],
     lambda k: 1 / (k.noise_sd[0] * SQRT_2PI)),
    # a wide second axis keeps the normaliser finite below the width at
    # which the narrow axis's 1/(2σ²) overflows
    (lambda w: GaussianConvolutionKernel([w, 1e100]), [0.5, 0.0], [0.5, 0.0],
     lambda k: 1 / (k.noise_sd[0] * SQRT_2PI) / (1e100 * SQRT_2PI)),
    (lambda w: GaussianMixtureDelayKernel([1.0], [3.0], [w]), [0.5], [3.5],
     lambda k: 1 / (k.sds[0] * SQRT_2PI)),
    (lambda w: GaussianMixtureDelayKernel([0.0, 1.0], [3.0, 3.0], [w, 1.0]), [0.5], [3.5],
     lambda k: 1 / SQRT_2PI),
    (lambda w: RadonAlignmentKernel(sigma=w, xi_max=16 * w), [0.0, 0.0], [0.7, 0.0],
     lambda k: 1 / k.norm_const),
], ids=["gaussian", "gaussian-one-narrow-axis", "delay", "delay-zero-weight", "radon"])
def test_narrowest_kernel_is_finite_at_its_mode(build, x, y, mode_value):
    # no constant folded at construction may be 0 or inf there: at the mode
    # a difference of 0 meets it, and 0·inf is NaN
    kernel = build(narrowest_accepted(build))
    plane = np.empty((kernel.planes, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        k = kernel.eval_matrix([x], [y], plane=plane)[0, 0]
        grad = kernel.grad1(x, y)
    assert np.isfinite(k) and k == pytest.approx(mode_value(kernel), rel=1e-12)
    assert kernel.eval(x, y) == k
    assert np.array_equal(grad, np.zeros(kernel.dim_x))
    # at the mode every plane is 0: the Gaussian's y − x, the others' ∂ₓk
    assert not plane.any()


@pytest.mark.parametrize("kernel", [
    GaussianConvolutionKernel([0.3, 0.7, 1.1]),
    GaussianMixtureDelayKernel(**DELAY),
], ids=["gauss-d3", "delay"])
def test_far_from_origin_matches_the_difference_first_formula(kernel, rng):
    # 10³ of the widest width from the origin a coordinate carries about
    # 1e-13 of a width of rounding: scaling coordinates before differencing
    # them moves k by 3e-12 here, where y − x first stays within 4e-14
    n, m = 40, 50
    if isinstance(kernel, GaussianConvolutionKernel):
        sd = kernel.noise_sd
        xs = 1e3 * sd.max() + rng.normal(0.0, sd, (n, 3))
        ys = 1e3 * sd.max() + rng.normal(0.0, 3 * sd, (m, 3))
        diff = ys[None, :, :] - xs[:, None, :]
        k = np.prod(np.exp(-0.5 * (diff / sd) ** 2) / (sd * SQRT_2PI), axis=2)
        grad_terms = k[:, :, None] * diff / sd**2
    else:
        shift = 1e3 * max(DELAY["sds"])
        xs = shift + rng.normal(0.0, 3.0, (n, 1))
        ys = shift + rng.normal(11.0, 5.0, (m, 1))
        diff = ys[None, :, 0] - xs[:, None, 0]
        terms = [w * np.exp(-0.5 * ((diff - mu) / s) ** 2) / (s * SQRT_2PI)
                 for w, mu, s in zip(*DELAY.values())]
        k = sum(terms)
        plane_terms = np.stack([t * (diff - mu) / s**2
                                for t, mu, s in zip(terms, DELAY["means"], DELAY["sds"])])
        np.testing.assert_array_less(0.0, k)
        grad_terms = plane_terms.sum(axis=0)[:, :, None]
    w = rng.uniform(0.1, 2.0, m)
    xv, yv = by_observation(xs, ys)
    planes = np.empty((kernel.planes, m, n))
    got = kernel.eval_matrix(xv, yv, plane=planes)
    plane = planes[0].T
    np.testing.assert_allclose(got.T, k, rtol=1e-12, atol=0)
    if isinstance(kernel, GaussianMixtureDelayKernel):
        # signed terms: each entry to 1e-12 of the sum of its terms' magnitudes
        err = np.abs(plane - plane_terms.sum(axis=0))
        assert np.all(err <= 1e-12 * np.abs(plane_terms).sum(axis=0))
    rows = kernel.weighted_grad1(xv, yv, got, planes, w)
    weighted = grad_terms * w[None, :, None]
    assert np.all(np.abs(rows - weighted.sum(axis=1)) <= 1e-12 * np.abs(weighted).sum(axis=1))


@pytest.mark.parametrize("mixture", [DELAY, dict(weights=(0.2, 0.3, 0.5), means=(1.0, 8.0, 15.0),
                                                 sds=(1.5, 2.5, 4.0))], ids=["two", "three"])
@pytest.mark.parametrize("shift", [0.0, 1e3], ids=["origin", "shifted"])
def test_delay_sweep_is_the_straight_line_formula_bit_for_bit(mixture, shift, rng):
    # component by component, z = (y − x) − m_c, its density and its term of
    # ∂ₓk, added in order: the sweep's op order, so the same bits, whichever
    # workspaces hold y − x and z; the shift is 10³ of the widest sd
    kernel = GaussianMixtureDelayKernel(**mixture)
    shift *= max(mixture["sds"])
    n, m = 70, 50
    xs = shift + rng.normal(0.0, 3.0, (n, 1))
    ys = shift + rng.normal(11.0, 5.0, (m, 1))
    diff = ys - xs[:, 0]   # (m, n), observation-major
    k = grad = 0.0
    for w, mu, s in zip(*mixture.values()):
        precision = 1.0 / s**2
        z = diff - mu
        dens = np.exp(z * z * (-0.5 * precision)) * (w / (s * SQRT_2PI))
        k, grad = k + dens, grad + z * dens * precision
    assert np.count_nonzero(k) > k.size // 2
    xv, yv = by_observation(xs, ys)
    plane = np.empty((1, m, n))
    assert np.array_equal(kernel.eval_matrix(xv, yv, plane=plane), k)
    assert np.array_equal(plane[0], grad)
    assert np.array_equal(kernel.eval_matrix(xv, yv), k)
    assert np.array_equal(kernel.eval_matrix(xs, ys), k.T)
