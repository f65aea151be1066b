import numpy as np
import pytest

from fredholm_flow import (GridProblem, NumericalFailure, ToyGaussianSpec,
                           discrete_objective, oslem_solve, oslem_step,
                           resolve_toy_sigma0_sq, toy_closed_form_g, toy_cubic_residual,
                           toy_optimal_beta, toy_sweep)
from fredholm_flow.problems import TOY_SIGMA_K_SQ, TOY_SIGMA_PI_SQ

SIGMA0_RESOLVED = resolve_toy_sigma0_sq(0.44, 1.0, TOY_SIGMA_PI_SQ, TOY_SIGMA_K_SQ)


def toy(alpha, sigma0_sq=0.3874):
    return ToyGaussianSpec(TOY_SIGMA_PI_SQ, TOY_SIGMA_K_SQ, sigma0_sq, alpha)


# -- analytic toy -------------------------------------------------------------

def test_closed_form_value_at_alpha_zero():
    spec = toy(0.0)
    value = toy_closed_form_g(spec, TOY_SIGMA_PI_SQ)
    expected = 0.5 * np.log(2 * np.pi * spec.sigma_mu_sq) + 0.5
    assert value == pytest.approx(expected, rel=1e-14)


def test_closed_form_minimized_at_signal_variance_when_unpenalized():
    spec = toy(0.0)
    betas = np.linspace(0.05, 1.0, 400)
    vals = [toy_closed_form_g(spec, b) for b in betas]
    assert abs(betas[int(np.argmin(vals))] - TOY_SIGMA_PI_SQ) < 0.005


def test_closed_form_matches_straight_line(rng):
    for _ in range(100):
        spec = ToyGaussianSpec(*rng.uniform(0.05, 1.0, size=3), float(rng.uniform(0, 2)))
        beta = float(rng.uniform(0.05, 2.0))
        s = beta + spec.sigma_k_sq
        direct = (np.log(2 * np.pi * s) / 2 + (spec.sigma_pi_sq + spec.sigma_k_sq) / (2 * s)
                  + spec.alpha * (np.log(spec.sigma0_sq / beta) + beta / spec.sigma0_sq - 1) / 2)
        assert toy_closed_form_g(spec, beta) == pytest.approx(direct, rel=1e-12)


def test_optimal_beta_alpha_zero_is_signal_variance():
    beta = toy_optimal_beta(toy(0.0))
    assert beta == TOY_SIGMA_PI_SQ
    assert beta == pytest.approx(0.1849, abs=1e-15)
    assert toy_cubic_residual(toy(0.0), 0.1849) <= 1e-10


def test_optimal_beta_reproduces_bayes_value():
    beta = toy_optimal_beta(toy(1.0, SIGMA0_RESOLVED))
    assert abs(beta - 0.44) < 0.01
    assert toy_cubic_residual(toy(1.0, SIGMA0_RESOLVED), beta) <= 1e-10


def test_optimal_beta_is_stationary_point(rng):
    h = 1e-6
    for _ in range(50):
        spec = ToyGaussianSpec(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)),
                               float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.001, 2.0)))
        beta = toy_optimal_beta(spec)
        deriv = (toy_closed_form_g(spec, beta + h) - toy_closed_form_g(spec, beta - h)) / (2 * h)
        assert abs(deriv) < 1e-8


def test_optimal_beta_monotone_in_alpha():
    alphas = np.linspace(0.0, 1.0, 101)
    betas = [toy_optimal_beta(toy(a, SIGMA0_RESOLVED)) for a in alphas]
    diffs = np.diff(betas)
    assert np.all(diffs > -1e-9)
    assert betas[0] == pytest.approx(TOY_SIGMA_PI_SQ)


def test_cubic_residual_small_over_sweep():
    rows = toy_sweep(toy(1.0, SIGMA0_RESOLVED), np.linspace(0.0, 1.0, 21))
    for alpha, beta, _ in rows:
        assert toy_cubic_residual(toy(alpha, SIGMA0_RESOLVED), beta) <= 1e-10


# -- one-step-late EM ---------------------------------------------------------

def random_grid_problem(rng, n_bins=3):
    k = rng.uniform(0.1, 1.0, size=(n_bins, n_bins))
    mu = rng.uniform(0.1, 1.0, size=n_bins)
    pi0 = rng.uniform(0.2, 1.0, size=n_bins)
    return GridProblem(k, mu, pi0)


def test_identity_kernel_single_step_recovers_observed(rng):
    mu = np.array([0.2, 0.5, 0.3])
    problem = GridProblem(np.eye(3), mu, np.full(3, 1 / 3))
    out = oslem_step(np.array([0.4, 0.4, 0.2]), problem, alpha=0.0)
    assert np.allclose(out, mu, rtol=1e-14)


def test_mass_identity_hand_computed_3bins():
    # hand instance: rows of k sum to one, observed sums to one
    k = np.array([[0.5, 0.3, 0.2],
                  [0.1, 0.6, 0.3],
                  [0.25, 0.25, 0.5]])
    mu = np.array([0.3, 0.45, 0.25])
    pi0 = np.array([0.4, 0.35, 0.25])
    problem = GridProblem(k, mu, pi0)
    state = np.array([0.3, 0.4, 0.3])
    # straight-line loop oracle
    lam = [sum(state[b] * k[b, c] for b in range(3)) for c in range(3)]
    oracle = [state[b] * sum(mu[c] * k[b, c] / lam[c] for c in range(3)) for b in range(3)]
    out = oslem_step(state, problem, alpha=0.0)
    assert np.allclose(out, oracle, rtol=1e-14)
    assert out.sum() == pytest.approx(mu.sum(), rel=1e-14)


def test_richardson_lucy_is_bit_identical_to_unpenalized(rng):
    problem = random_grid_problem(rng)
    state = problem.reference.copy()
    for _ in range(25):
        # the unpenalized multiplicative update π_b ← π_b Σ_c μ_c k_bc / λ_c
        lam = state @ problem.kernel_matrix
        a = state * (problem.kernel_matrix @ (problem.observed / lam))
        b = oslem_step(state, problem, alpha=0.0)
        assert np.array_equal(a, b)
        state = a


def simplex_mass_oracle(problem, alpha, resolution=1e-3):
    """Dense simplex grid over shapes, exact 1-D mass optimization per shape."""
    n = int(round(1.0 / resolution))
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = i + j <= n
    i, j = i[keep], j[keep]
    shapes = np.column_stack([i, j, n - i - j]) / n
    shapes = shapes[np.all(shapes > 0, axis=1)]
    data = -(np.log(shapes @ problem.kernel_matrix) @ problem.observed)
    kl = np.sum(shapes * np.log(shapes / problem.reference), axis=1)
    s = np.ones(len(shapes))
    for _ in range(60):
        grad = -1.0 / s + 1.0 + alpha * (kl + np.log(s) + 1.0)
        hess = 1.0 / s**2 + alpha / s
        s = s - grad / hess
    values = data - np.log(s) + s - 1.0 + alpha * s * (kl + np.log(s))
    return float(values.min())


def test_oslem_reaches_brute_force_optimum(rng):
    problem = random_grid_problem(rng)
    alpha = 0.1
    state = oslem_solve(problem, alpha, 500)
    achieved = discrete_objective(state, problem, alpha)
    oracle = simplex_mass_oracle(problem, alpha)
    assert abs(achieved - oracle) <= 1e-6


def test_oslem_requires_positive_state(rng):
    problem = random_grid_problem(rng)
    with pytest.raises(ValueError):
        oslem_step(np.array([0.0, 0.5, 0.5]), problem, alpha=0.1)


def test_oslem_nonpositive_denominator_names_bin(rng):
    problem = random_grid_problem(rng)
    state = problem.reference.copy()
    state[1] = state[1] * np.exp(-3.0)       # log ratio -3 < -(1 + 1/alpha) at alpha=2
    with pytest.raises(NumericalFailure) as err:
        oslem_step(state, problem, alpha=2.0)
    assert err.value.index == 1


def test_grid_problem_normalizes():
    problem = GridProblem(np.array([[2.0, 2.0], [1.0, 3.0]]),
                          np.array([3.0, 1.0]), np.array([1.0, 1.0]))
    assert np.allclose(problem.kernel_matrix.sum(axis=1), 1.0)
    assert problem.observed.sum() == pytest.approx(1.0)
    assert problem.reference.sum() == pytest.approx(1.0)


def test_grid_discretization_centers_and_rows():
    from fredholm_flow.baselines import grid_problem_from_continuous
    from fredholm_flow import GaussianConvolutionKernel, ReferenceMeasure
    kernel = GaussianConvolutionKernel([0.15])
    ref = ReferenceMeasure.gaussian([0.5], [0.0625])
    problem = grid_problem_from_continuous(kernel, lambda pts: np.ones(len(pts)),
                                           ref, n_bins=4, lo=0.0, hi=1.0)
    assert np.allclose(problem.bin_centers.ravel(), [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(problem.kernel_matrix.sum(axis=1), 1.0)


def test_grid_problem_1d_centers_write_and_reread(tmp_path):
    from fredholm_flow import artifacts
    centers = [0.1, 0.5, 0.9]
    problem = GridProblem(np.eye(3), np.ones(3), np.ones(3), bin_centers=centers)
    assert problem.bin_centers.shape == (3, 1)
    state = np.array([0.2, 0.3, 0.5])
    path = tmp_path / "grid_state.csv"
    artifacts.write_grid_state_csv(path, problem.bin_centers, state)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_1,value"
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back, np.column_stack([centers, state]))


@pytest.mark.parametrize("centers", [[0.1, 0.5], np.zeros((2, 1)), np.zeros((1, 3, 1))])
def test_grid_problem_rejects_centers_of_wrong_count(centers):
    with pytest.raises(ValueError, match="bin_centers"):
        GridProblem(np.eye(3), np.ones(3), np.ones(3), bin_centers=centers)
