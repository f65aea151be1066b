import numpy as np
import pytest

from fredholm_flow import ReferenceMeasure

from conftest import central_difference


def test_standard_normal_gradient():
    ref = ReferenceMeasure.gaussian([0.0, 0.0], [1.0, 1.0])
    assert np.allclose(ref.grad_u([2.0, -1.0]), [2.0, -1.0])


def test_flat_gradient_is_zero(rng):
    ref = ReferenceMeasure.flat(3)
    assert np.allclose(ref.grad_u(rng.normal(size=3)), 0.0)
    assert np.allclose(ref.grad_u(rng.normal(size=(5, 3))), 0.0)


def test_gradient_vanishes_at_mean():
    d = 4
    ref = ReferenceMeasure.gaussian(np.full(d, 0.5), np.full(d, 0.25**2))
    assert np.allclose(ref.grad_u(np.full(d, 0.5)), 0.0)


def test_log_density_values():
    ref = ReferenceMeasure.gaussian([0.0], [1.0])
    assert ref.log_density([0.0]) == pytest.approx(-0.5 * np.log(2 * np.pi), rel=1e-14)
    ref2 = ReferenceMeasure.gaussian([1.7], [0.3])
    assert ref2.log_density([1.7]) == pytest.approx(-0.5 * np.log(2 * np.pi * 0.3), rel=1e-14)


def test_log_density_matches_straight_line(rng):
    mean = rng.normal(size=3)
    var = rng.uniform(0.2, 2.0, size=3)
    ref = ReferenceMeasure.gaussian(mean, var)
    for _ in range(50):
        x = rng.normal(size=3)
        direct = sum(-0.5 * ((x[i] - mean[i]) ** 2 / var[i] + np.log(2 * np.pi * var[i]))
                     for i in range(3))
        assert ref.log_density(x) == pytest.approx(direct, rel=1e-12)


def test_gradient_matches_finite_difference(rng):
    ref = ReferenceMeasure.gaussian([0.3, -0.7], [0.5, 1.5])
    for _ in range(100):
        x = rng.normal(size=2)
        fd = central_difference(lambda z: -ref.log_density(z), x, h=1e-5)
        assert np.max(np.abs(ref.grad_u(x) - fd)) < 1e-6


def test_lipschitz_witness(rng):
    var = np.array([0.3, 1.2])
    ref = ReferenceMeasure.gaussian([0.0, 0.0], var)
    xs = rng.normal(size=(10_000, 2)) * 3
    ys = rng.normal(size=(10_000, 2)) * 3
    lhs = np.linalg.norm(ref.grad_u(xs) - ref.grad_u(ys), axis=1)
    rhs = ref.lipschitz * np.linalg.norm(xs - ys, axis=1)
    assert np.all(lhs <= rhs + 1e-12)
    assert ref.lipschitz == pytest.approx(1.0 / 0.3)


def test_flat_log_density_raises():
    with pytest.raises(ValueError):
        ReferenceMeasure.flat(2).log_density([0.0, 0.0])
    with pytest.raises(ValueError):
        ReferenceMeasure.flat(2).sample(3, np.random.default_rng(0))


def test_from_sample_moments_and_shift(rng):
    pts = rng.normal(loc=5.0, scale=2.0, size=(4000, 1))
    ref = ReferenceMeasure.from_sample(pts, mean_shift=-9.0)
    assert ref.mean[0] == pytest.approx(pts.mean() - 9.0, rel=1e-12)
    assert ref.variances[0] == pytest.approx(pts.var(ddof=1), rel=1e-12)


def test_dimension_mismatch():
    ref = ReferenceMeasure.gaussian([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ref.grad_u([1.0])


def test_invalid_variances():
    with pytest.raises(ValueError):
        ReferenceMeasure.gaussian([0.0], [0.0])
