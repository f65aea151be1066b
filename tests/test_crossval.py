import dataclasses

import numpy as np
import pytest

from fredholm_flow import CvPlan, NumericalFailure, crossval, cv_score, make_folds
from fredholm_flow.functional import g_hat
from fredholm_flow.problems import preset_toy_gaussian


def test_folds_form_a_partition():
    folds = make_folds(103, 5, seed=3)
    joined = np.concatenate(folds)
    assert len(joined) == 103
    assert np.array_equal(np.sort(joined), np.arange(103))
    sizes = sorted(len(f) for f in folds)
    assert sizes[-1] - sizes[0] <= 1


def test_folds_deterministic():
    assert all(np.array_equal(a, b) for a, b in
               zip(make_folds(40, 4, seed=9), make_folds(40, 4, seed=9)))


def test_folds_need_enough_samples():
    with pytest.raises(ValueError):
        make_folds(3, 5, seed=0)


def _desk_preset():
    preset = preset_toy_gaussian()
    solver = dataclasses.replace(preset.solver, n_particles=100, minibatch=100,
                                 n_steps=60)
    return dataclasses.replace(preset, solver=solver)


def test_symmetric_folds_give_equal_scores():
    preset = _desk_preset()
    half = preset.sample_observations(300, seed=8)
    doubled = np.concatenate([half, half])
    folds = [np.arange(300), np.arange(300, 600)]
    plan = CvPlan(alpha_grid=(0.02,), n_folds=2, seed=1)
    result = cv_score(plan, preset, doubled, preset.solver, folds=folds)
    values = [c.value for c in result.cells]
    assert values[0] == values[1]
    assert all(c.status == "ok" for c in result.cells)


def test_data_only_score_is_the_data_term(monkeypatch):
    preset = _desk_preset()
    obs = preset.sample_observations(240, seed=2)
    estimates = []

    def recorded(*args, **kwargs):
        estimates.append(g_hat(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(crossval, "g_hat", recorded)
    plan = CvPlan(alpha_grid=(0.05,), n_folds=2, seed=0, score="data_only")
    result = cv_score(plan, preset, obs, preset.solver)
    assert [c.value for c in result.cells] == [est.data_term for est in estimates]
    assert all(est.kl_term != 0.0 for est in estimates)


def test_non_finite_observation_fails_before_any_cell():
    # checked on entry, as in solver.run: a held-out row is never checked by a cell's run
    preset = _desk_preset()
    obs = preset.sample_observations(240, seed=2)
    obs[7, 0] = np.nan
    plan = CvPlan(alpha_grid=(0.05,), n_folds=2, seed=0)
    with pytest.raises(NumericalFailure, match="observation sample") as err:
        cv_score(plan, preset, obs, preset.solver)
    assert err.value.index == 7


def test_single_alpha_grid_selects_it():
    preset = _desk_preset()
    obs = preset.sample_observations(240, seed=2)
    plan = CvPlan(alpha_grid=(0.05,), n_folds=2, seed=0)
    result = cv_score(plan, preset, obs, preset.solver)
    assert result.selected_alpha() == 0.05


def test_worker_count_does_not_change_scores():
    preset = _desk_preset()
    obs = preset.sample_observations(240, seed=6)
    plan = CvPlan(alpha_grid=(0.01, 0.1), n_folds=2, seed=5)
    serial = cv_score(plan, preset, obs, preset.solver, workers=1)
    threaded = cv_score(plan, preset, obs, preset.solver, workers=4)
    assert [c.value for c in serial.cells] == [c.value for c in threaded.cells]


def test_plan_validation():
    with pytest.raises(ValueError):
        CvPlan(alpha_grid=())
    with pytest.raises(ValueError):
        CvPlan(alpha_grid=(0.1, 0.05))
    with pytest.raises(ValueError):
        CvPlan(alpha_grid=(0.1,), n_folds=1)
    with pytest.raises(ValueError):
        CvPlan(alpha_grid=(0.1,), score="other")


def test_toy_cross_validation_prefers_light_penalty():
    # heavy smoothing toward the broad reference scores worse than light
    # penalties on held-out data
    preset = preset_toy_gaussian()
    solver = dataclasses.replace(preset.solver, n_particles=300, minibatch=300,
                                 n_steps=200)
    obs = preset.sample_observations(10_000, seed=12)
    plan = CvPlan(alpha_grid=(1e-5, 1e-3, 1e-1, 1.0), n_folds=2, seed=3)
    result = cv_score(plan, preset, obs, solver, workers=2)
    assert all(c.status == "ok" for c in result.cells)
    assert result.selected_alpha() <= 1e-3


def test_failed_cells_are_flagged_and_excluded(monkeypatch):
    import fredholm_flow.crossval as cv_module
    from fredholm_flow import NumericalFailure
    preset = _desk_preset()
    obs = preset.sample_observations(240, seed=2)
    real_run = cv_module.run
    calls = {"n": 0}

    def flaky_run(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise NumericalFailure("synthetic blow-up", step=3)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cv_module, "run", flaky_run)
    plan = CvPlan(alpha_grid=(0.05,), n_folds=2, seed=0)
    result = cv_score(plan, preset, obs, preset.solver)
    statuses = [c.status for c in result.cells]
    assert statuses[0].startswith("failed") and statuses[1] == "ok"
    alpha, mean, n_ok = result.summary()[0]
    assert n_ok == 1 and np.isfinite(mean)
    assert result.selected_alpha() == 0.05
