import dataclasses
import hmac
import importlib.util
import json
import math
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fredholm_flow
from fredholm_flow import artifacts, baselines, blocks, cli, density, metrics
from fredholm_flow.cli import main
from fredholm_flow.problems import get_preset, preset_gaussian_mixture_1d
from fredholm_flow.state import ParticleCloud

from conftest import fresh_interpreter, grid_nodes, read_density_csv, read_metrics_csv


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


SMALL_RUN = {
    "preset": "gaussian_mixture_1d",
    "observations": {"n_samples": 200, "seed": 21},
    "solver": {"n_particles": 50, "n_steps": 10},
    "replicates": 2,
    "seed_base": 5,
    "metrics": ["ise", "w1_marginal1"],
}


def test_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"preset": }')
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_unknown_preset_exits_2(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"preset": "nope"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_run_emits_artifacts(tmp_path):
    cfg = write_config(tmp_path, "c.json", SMALL_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    for rep in ("rep000", "rep001"):
        assert (out / rep / "trace.csv").exists()
        assert (out / rep / "cloud_final.csv").exists()
        assert (out / rep / "kde_grid.csv").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "config_resolved.json").exists()
    rows = read_metrics_csv(out / "metrics.csv")
    assert {r[5] for r in rows} == {"ise", "w1_marginal1"}
    assert {r[4] for r in rows} == {5, 6}


def test_run_replay_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "c.json", SMALL_RUN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_run_zero_steps_final_cloud_is_init(tmp_path):
    payload = dict(SMALL_RUN, solver={"n_particles": 50, "n_steps": 0}, replicates=1)
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    points = artifacts.read_points_csv(out / "rep000" / "cloud_final.csv")
    # rebuild the initialization independently from the same seeds
    from fredholm_flow.problems import build_initial_cloud
    import dataclasses
    from fredholm_flow.rng import derive_seed
    preset = preset_gaussian_mixture_1d()
    obs = preset.sample_observations(200, seed=21)
    ref = preset.make_reference(obs)
    config = dataclasses.replace(preset.solver, n_particles=50, n_steps=0, seed=5)
    init = build_initial_cloud(preset, config, obs, ref)
    assert np.array_equal(points, init.points)


def test_minibatch_rule_validated(tmp_path):
    payload = dict(SMALL_RUN, solver={"n_particles": 50, "n_steps": 5, "minibatch": 500})
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_inline_flat_reference_with_penalty_rejected(tmp_path, rng):
    obs_path = tmp_path / "obs.csv"
    np.savetxt(obs_path, rng.normal(size=(50, 1)), delimiter=",",
               header="y_1", comments="")
    payload = {
        "problem": {"kernel": {"type": "gaussian_convolution", "noise_sd": [0.3]},
                    "reference": {"kind": "flat", "dim": 1}},
        "observations": {"file": str(obs_path)},
        "solver": {"alpha": 0.1, "n_particles": 20, "n_steps": 3,
                   "gamma": 0.01},
        "init": {"mode": "observations"},
    }
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_inline_problem_runs_from_file(tmp_path, rng):
    obs_path = tmp_path / "obs.csv"
    np.savetxt(obs_path, rng.normal(size=(80, 1)), delimiter=",",
               header="y_1", comments="")
    payload = {
        "problem": {"kernel": {"type": "gaussian_convolution", "noise_sd": [0.3]},
                    "reference": {"kind": "from_sample", "mean_shift": 0.0}},
        "observations": {"file": str(obs_path)},
        "solver": {"alpha": 0.05, "n_particles": 30, "n_steps": 5, "gamma": 0.01},
        "init": {"mode": "observations"},
        "seed_base": 3,
    }
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "rep000" / "cloud_final.csv").exists()


@pytest.mark.parametrize("init, message", [
    ({"mode": "point"}, "point initialization needs a point"),
    ({"mode": "uniform", "box": [0.0, 1.0]}, "uniform initialization needs a box"),
    ({"mode": "observations", "shift": 0.5}, "init: unknown init keys ['shift']"),
], ids=["point-missing", "box-not-pairs", "unknown-key"])
def test_inline_bad_init_exits_2(tmp_path, rng, capsys, init, message):
    obs_path = tmp_path / "obs.csv"
    np.savetxt(obs_path, rng.normal(size=(40, 1)), delimiter=",",
               header="y_1", comments="")
    payload = {
        "problem": {"kernel": {"type": "gaussian_convolution", "noise_sd": [0.3]},
                    "reference": {"kind": "from_sample", "mean_shift": 0.0}},
        "observations": {"file": str(obs_path)},
        "solver": {"alpha": 0.05, "n_particles": 10, "n_steps": 2, "gamma": 0.01},
        "init": init,
    }
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_baseline_toy_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"baseline": "toy", "alpha_grid": [0.0, 0.5, 1.0]})
    out = tmp_path / "out"
    assert main(["baseline", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "toy_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,objective"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.1849, abs=1e-12)
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["sigma0_sq_resolved"] == pytest.approx(0.6043165766825341)


def test_baseline_unknown_name_exits_2(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"baseline": "nope"})
    assert main(["baseline", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_baseline_oslem_emits_grid_state(tmp_path):
    # the broad fixed reference keeps the one-step-late denominators positive
    cfg = write_config(tmp_path, "c.json",
                       {"baseline": "oslem", "preset": "highdim_mixture",
                        "preset_options": {"dim": 1},
                        "n_bins": 40, "alpha": 0.01, "iterations": 100,
                        "observations": {"n_samples": 300, "seed": 2}})
    out = tmp_path / "out"
    assert main(["baseline", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "grid_state.csv").read_text().strip().splitlines()
    assert len(lines) == 41


def test_cv_through_cli(tmp_path, capsys):
    payload = {
        "preset": "toy_gaussian",
        "observations": {"n_samples": 300, "seed": 17},
        "solver": {"n_particles": 60, "minibatch": 60, "n_steps": 30},
        "cv": {"alpha_grid": [0.01, 0.5], "folds": 2, "seed": 4},
    }
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main(["cv", "--config", cfg, "--out", str(out)]) == 0
    table = (out / "cv_table.csv").read_text().strip().splitlines()
    assert table[0] == "alpha,fold,g_hat,status"
    assert len(table) == 1 + 4 + 2
    assert "selected alpha" in capsys.readouterr().out


def test_metrics_recomputation(tmp_path):
    run_cfg = write_config(tmp_path, "run.json",
                           dict(SMALL_RUN, replicates=1))
    out = tmp_path / "out"
    assert main(["run", "--config", run_cfg, "--out", str(out)]) == 0
    metrics_cfg = write_config(tmp_path, "metrics.json", {
        "preset": "gaussian_mixture_1d",
        "clouds": [str(out / "rep000" / "cloud_final.csv")],
        "metrics": ["ise"],
        "seed": 5,
    })
    out2 = tmp_path / "out2"
    assert main(["metrics", "--config", metrics_cfg, "--out", str(out2)]) == 0
    recomputed = read_metrics_csv(out2 / "metrics.csv")
    original = read_metrics_csv(out / "metrics.csv")
    orig_ise = [r for r in original if r[5] == "ise"][0][6]
    assert recomputed[0][6] == pytest.approx(orig_ise, rel=1e-12)


def test_numerical_failure_exits_3(tmp_path, capsys):
    # narrow sample-moment reference on a [0,1] grid at a large penalty weight
    # drives the one-step-late denominator negative, the documented abort
    cfg = write_config(tmp_path, "c.json",
                       {"baseline": "oslem", "preset": "gaussian_mixture_1d",
                        "n_bins": 40, "alpha": 0.5, "iterations": 200,
                        "observations": {"n_samples": 300, "seed": 2}})
    assert main(["baseline", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "step=" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"sigma_k_sq": 1e300}, {"alpha_grid": [1e-300]}, {"sigma0_sq": 1e300},
    {"sigma_pi_sq": 1e300}, {"sigma_pi_sq": 1e308},
], ids=["sigma-k-sq-huge", "alpha-tiny", "sigma0-sq-huge", "sigma-pi-sq-huge",
        "sigma0-sq-resolved-to-0"])
def test_toy_closed_form_that_is_not_finite_exits_3(tmp_path, capsys, config):
    cfg = write_config(tmp_path, "c.json", {"baseline": "toy", **config})
    assert main(["baseline", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: toy closed form is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_OUT_COMMANDS = {"run": dict(SMALL_RUN, replicates=1), "baseline": {"baseline": "toy"}}


@pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_out_that_is_or_lies_under_a_file_exits_2_before_any_write(tmp_path, capsys,
                                                                   command, under):
    cfg = write_config(tmp_path, "c.json", _OUT_COMMANDS[command])
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    before = tree_bytes(tmp_path)
    assert main([command, "--config", cfg, "--out", str(blocker.joinpath(*under))]) == 2
    assert capsys.readouterr().err == f"config error: --out: {blocker} is not a directory\n"
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize("command, artifact", [("run", "rep000"),
                                               ("baseline", "toy_sweep.csv")])
def test_artifact_that_cannot_be_written_exits_2_at_out(tmp_path, capsys, command, artifact):
    # a file where run makes a directory, a directory where baseline writes a file
    cfg = write_config(tmp_path, "c.json", _OUT_COMMANDS[command])
    out = tmp_path / "out"
    out.mkdir()
    if command == "run":
        (out / artifact).write_text("")
    else:
        (out / artifact).mkdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: cannot write the artifacts: ")
    assert str(out / artifact) in err
    assert not (out / "config_resolved.json").exists()


def test_dimension_mismatch_exits_2(tmp_path, rng):
    obs_path = tmp_path / "obs.csv"
    np.savetxt(obs_path, rng.normal(size=(30, 2)), delimiter=",")
    payload = dict(SMALL_RUN, observations={"file": str(obs_path)}, replicates=1)
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_seed_flag_overrides_base(tmp_path):
    cfg = write_config(tmp_path, "c.json", dict(SMALL_RUN, replicates=1))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
    rows = read_metrics_csv(out / "metrics.csv")
    assert {r[4] for r in rows} == {99}


def test_run_reads_out_metric_grid_once(tmp_path, monkeypatch):
    from fredholm_flow.density import GaussianKde
    from fredholm_flow.metrics import ise
    preset = preset_gaussian_mixture_1d()
    calls = []
    on_grid = GaussianKde.on_grid

    def counting(self, grid):
        calls.append(grid)
        return on_grid(self, grid)

    monkeypatch.setattr(GaussianKde, "on_grid", counting)
    cfg = write_config(tmp_path, "c.json", SMALL_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert calls.count(preset.metric_grid) == SMALL_RUN["replicates"]
    truth = preset.truth_pdf(grid_nodes(preset.metric_grid))
    rows = read_metrics_csv(out / "metrics.csv")
    for r, rep in enumerate(("rep000", "rep001")):
        grid, written = read_density_csv(out / rep / "kde_grid.csv")
        used = [row[6] for row in rows if row[5] == "ise" and row[4] == 5 + r]
        assert used == [ise(grid, written, truth)]


def test_cv_point_init_through_cli(tmp_path):
    payload = {
        "preset": "toy_gaussian",
        "observations": {"n_samples": 200},
        "solver": {"n_steps": 2, "n_particles": 20, "minibatch": 20},
        "init": {"mode": "point", "point": [0.0]},
        "cv": {"alpha_grid": [0.01, 0.1], "folds": 2},
    }
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["cv", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("override, message", [
    ({"n_particles": "500"}, "solver.n_particles: expected int, got str"),
    ({"n_particles": 50.5}, "solver.n_particles: expected int, got float"),
    ({"alpha": -1}, "solver: alpha must be nonnegative"),
], ids=["string", "fraction", "negative-alpha"])
def test_bad_solver_override_exits_2(tmp_path, capsys, override, message):
    payload = dict(SMALL_RUN, solver=dict(SMALL_RUN["solver"], **override))
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_missing_observations_file_exits_2(tmp_path, capsys):
    payload = dict(SMALL_RUN, observations={"file": str(tmp_path / "nope.csv")})
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "observations.file: file not found" in capsys.readouterr().err


GRIDLESS = {"preset": "highdim_mixture", "preset_options": {"dim": 10}}


@pytest.mark.parametrize("overrides, message", [
    ({"metrics": "ise"}, "expected list"),
    ({"metrics": ["ise", "nope"]}, "unknown metrics"),
    (dict(GRIDLESS, metrics=["ise"]), "preset has no metric grid for ISE"),
    (dict(GRIDLESS, metrics=["reconvolution_ise"]), "reconvolution needs a grid"),
], ids=["string", "unknown", "gridless-ise", "gridless-reconvolution"])
def test_bad_metrics_rejected_before_solving(tmp_path, capsys, monkeypatch, overrides,
                                             message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver ran before the metrics were validated")

    monkeypatch.setattr("fredholm_flow.cli.run_solver", no_solve)
    cfg = write_config(tmp_path, "c.json", dict(SMALL_RUN, **overrides))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"metrics: {message}" in capsys.readouterr().err


def test_inline_problem_rejects_metrics(tmp_path, capsys, rng):
    obs_path = tmp_path / "obs.csv"
    np.savetxt(obs_path, rng.normal(size=(40, 1)), delimiter=",")
    cfg = write_config(tmp_path, "c.json", {
        "problem": {"kernel": {"type": "gaussian_convolution", "noise_sd": [0.3]},
                    "reference": {"kind": "from_sample"}},
        "observations": {"file": str(obs_path)},
        "solver": {"n_particles": 20, "n_steps": 2},
        "metrics": ["ise"]})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "metrics: inline problems have no truth density" in capsys.readouterr().err
    assert not out.exists()


def test_preset_options_must_be_an_object(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", dict(SMALL_RUN, preset_options=[1]))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "preset_options: expected dict, got list" in capsys.readouterr().err


def test_metrics_missing_cloud_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"preset": "gaussian_mixture_1d",
                                            "clouds": [str(tmp_path / "nope.csv")]})
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "clouds: cloud files not found" in capsys.readouterr().err


def test_baseline_toy_alpha_grid_must_be_a_list(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"baseline": "toy", "alpha_grid": "ab"})
    assert main(["baseline", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "alpha_grid: expected list, got str" in capsys.readouterr().err


# written by the test: 40 draws of N(0, 1), a NaN, four rows of 0.5, one row,
# and two points whose spread overflows
OBS_FILE, NAN_FILE, CONSTANT_FILE = "<observations.csv>", "<nan.csv>", "<constant.csv>"
ONE_ROW_FILE, WIDE_FILE = "<one-row.csv>", "<wide.csv>"
INLINE = {"problem": {"kernel": {"type": "gaussian_convolution", "noise_sd": [0.3]},
                      "reference": {"kind": "from_sample"}},
          "observations": {"file": OBS_FILE}, "solver": {"n_particles": 10, "n_steps": 2}}
OSLEM = {"baseline": "oslem", "preset": "highdim_mixture", "preset_options": {"dim": 1},
         "n_bins": 20, "iterations": 5, "observations": {"n_samples": 100, "seed": 2}}
CV = {"preset": "toy_gaussian", "observations": {"n_samples": 100},
      "solver": {"n_particles": 20, "minibatch": 20, "n_steps": 2},
      "cv": {"alpha_grid": [0.01, 0.1], "folds": 2}}
NAN, INF = float("nan"), float("inf")


def _probe(command, config, key, case):
    return pytest.param(command, config, key, id=case)


@pytest.mark.parametrize("command, config, key", [
    _probe("run", [1, 2], "config", "top-level-list"),
    _probe("run", dict(SMALL_RUN, solvr={}), "solvr", "unknown-top-level-key"),
    _probe("run", dict(SMALL_RUN, solver=[1]), "solver", "solver-not-object"),
    _probe("run", dict(SMALL_RUN, solver={"alpha": NAN}), "solver.alpha", "alpha-nan"),
    _probe("run", dict(SMALL_RUN, solver={"gamma": INF}), "solver.gamma", "gamma-inf"),
    _probe("run", dict(SMALL_RUN, solver={"stop_tol": NAN}), "solver.stop_tol", "stop-tol-nan"),
    _probe("run", dict(SMALL_RUN, solver={"n_particles": 1}), "solver", "one-particle"),
    _probe("run", dict(SMALL_RUN, solver={"denom_floor": 1e-30}), "solver",
           "denom-floor-is-no-solver-key"),
    _probe("run", dict(SMALL_RUN, solver={"resample_each_step": False}), "solver",
           "resample-each-step-is-no-solver-key"),
    _probe("run", dict(SMALL_RUN, solver={"resample_policy": "iid"}), "solver",
           "resample-policy-is-no-solver-key"),
    _probe("run", dict(SMALL_RUN, observations=[1]), "observations", "observations-not-object"),
    _probe("run", dict(SMALL_RUN, seed_base=-1), "seed_base", "negative-seed-base"),
    _probe("run", dict(SMALL_RUN, seed_base=2**63 - 1), "seed_base", "seed-base-plus-replicates"),
    _probe("run", dict(SMALL_RUN, replicates=2**63), "replicates", "replicates-2^63"),
    _probe("run", {"preset": "toy_gaussian", "solver": {"seed": 2**63}}, "solver.seed",
           "solver-seed-as-seed-base"),
    _probe("cv", dict(CV, solver=dict(CV["solver"], seed=-1)), "solver.seed",
           "negative-cv-solver-seed"),
    _probe("run", dict(SMALL_RUN, solver={"alpha": 0}, init={"mode": "point", "point": [0.4]}),
           "solver.alpha", "point-init-without-noise"),
    _probe("run", {"preset": "highdim_mixture", "preset_options": {"dim": 1},
                   "observations": {"file": CONSTANT_FILE}, "init": {"mode": "observations"},
                   "solver": {"alpha": 0, "n_particles": 10, "minibatch": 4, "n_steps": 2},
                   "replicates": 2}, "solver.alpha", "constant-observations-init-without-noise"),
    _probe("run", dict(SMALL_RUN, observations={"seed": 2**63}), "observations.seed",
           "observation-seed-too-large"),
    _probe("run", {"preset": "toy_gaussian", "preset_options": {"dim": 3}}, "preset_options",
           "option-of-another-preset"),
    _probe("run", {"preset": "highdim_mixture", "preset_options": {"dim": "x"}},
           "preset_options.dim", "dim-string"),
    _probe("run", dict(SMALL_RUN, init={"mode": "point", "point": [0.1, 0.2]}), "init.point",
           "point-of-wrong-dimension"),
    _probe("run", dict(INLINE, problem={"kernel": {"type": "gaussian_convolution",
                                                   "noise_sd": ["a"]},
                                        "reference": {"kind": "from_sample"}}),
           "problem.kernel.noise_sd", "noise-sd-string"),
    _probe("run", dict(INLINE, problem={"kernel": {"type": "gaussian_convolution",
                                                   "noise_sd": [1e-200]},
                                        "reference": {"kind": "from_sample"}}),
           "problem.kernel", "noise-sd-whose-bound-overflows"),
    _probe("run", {"preset": "toy_gaussian", "observations": {"n_samples": 1},
                   "solver": {"minibatch": 1}}, "observations", "reference-from-one-observation"),
    _probe("run", dict(INLINE, problem={"kernel": {"type": "gaussian_convolution",
                                                   "noise_sd": [0.3]},
                                        "reference": {"kind": "flat", "dim": 1}},
                       solver={"alpha": 0.0, "n_particles": 10, "n_steps": 2}),
           "init.mode", "flat-reference-default-init"),
    _probe("run", dict(INLINE, problem={"kernel": {"type": "gaussian_convolution",
                                                   "noise_sd": [0.3]},
                                        "reference": {"kind": "gaussian", "mean": [0.0, 0.0],
                                                      "variances": [1.0, 1.0]}}),
           "problem.reference", "reference-of-wrong-dimension"),
    _probe("run", dict(SMALL_RUN, observations={"file": NAN_FILE}), "observations.file",
           "observation-file-nan"),
    _probe("baseline", dict(OSLEM, n_bins=0), "n_bins", "oslem-no-bins"),
    _probe("baseline", dict(OSLEM, iterations=-1), "iterations", "oslem-negative-iterations"),
    _probe("baseline", dict(OSLEM, lo=1, hi=0), "lo", "oslem-empty-span"),
    _probe("baseline", dict(OSLEM, hi=0.0), "hi", "oslem-span-empty-at-hi"),
    _probe("baseline", dict(OSLEM, hi=1e13), "hi", "oslem-span-where-the-reference-vanishes"),
    _probe("baseline", dict(OSLEM, alpha=-1.0), "alpha", "oslem-negative-alpha"),
    _probe("baseline", dict(OSLEM, preset="toy_gaussian", preset_options={},
                            observations={"n_samples": 1, "seed": 2}), "observations",
           "oslem-reference-from-one-observation"),
    _probe("baseline", {"baseline": "toy", "alpha_grid": [-1.0]}, "alpha_grid",
           "toy-negative-alpha"),
    _probe("baseline", {"baseline": "toy", "sigma_k_sq": -0.5}, "sigma_k_sq",
           "toy-negative-variance-with-sigma0-resolved"),
    _probe("baseline", dict(OSLEM, itrations=5), "itrations", "oslem-unknown-key"),
    _probe("baseline", {"baseline": "toy", "alpha_grid": [NAN]}, "alpha_grid", "toy-alpha-nan"),
    _probe("cv", dict(CV, cv=[1]), "cv", "cv-not-object"),
    _probe("cv", dict(CV, cv={"alpha_grid": [0.01], "folds": 1}), "cv", "one-fold"),
    _probe("cv", dict(CV, cv={"alpha_grid": [0.01], "score": "bogus"}), "cv", "unknown-score"),
    _probe("cv", dict(CV, cv={"alpha_grid": [0.01], "seed": -1}), "cv.seed", "negative-cv-seed"),
    _probe("cv", dict(CV, init={"mode": "point", "point": [0.1, 0.2]}), "init.point",
           "cv-point-of-wrong-dimension"),
    _probe("cv", dict(CV, init={"mode": "uniform", "box": [[0.0, 1.0], [0.0, 1.0]]}),
           "init.box", "cv-box-of-wrong-dimension"),
    _probe("cv", dict(CV, observations={"n_samples": 3},
                      solver={"n_particles": 20, "minibatch": 1, "n_steps": 2},
                      cv={"alpha_grid": [0.01], "folds": 5}), "cv.folds",
           "cv-more-folds-than-observations"),
    _probe("metrics", {"preset": "gaussian_mixture_1d", "clouds": [NAN_FILE]}, "clouds",
           "metrics-cloud-nan"),
    _probe("metrics", {"preset": "highdim_mixture", "preset_options": {"dim": 2},
                       "clouds": [OBS_FILE]}, "clouds", "metrics-cloud-of-wrong-dimension"),
    _probe("metrics", {"preset": "gaussian_mixture_1d", "clouds": [OBS_FILE], "seed": -1},
           "seed", "negative-metrics-seed"),
    _probe("metrics", {"preset": "gaussian_mixture_1d", "clouds": [OBS_FILE],
                       "metrics": ["reconvolution_ise"], "observations": {"n_samples": 1}},
           "observations.n_samples", "metrics-reconvolution-of-one-observation"),
    # a KDE of the input is undefined: reported before any solve or output
    _probe("run", {"preset": "highdim_mixture", "preset_options": {"dim": 1},
                   "metrics": ["reconvolution_ise"], "observations": {"file": CONSTANT_FILE}},
           "observations.file", "reconvolution-of-constant-observations"),
    _probe("metrics", {"preset": "gaussian_mixture_1d", "clouds": [ONE_ROW_FILE],
                       "metrics": ["ise"]}, "clouds", "metrics-ise-of-one-particle"),
    _probe("metrics", {"preset": "gaussian_mixture_1d", "clouds": [OBS_FILE, CONSTANT_FILE],
                       "metrics": ["ise"]}, "clouds", "metrics-ise-of-a-constant-cloud"),
    _probe("metrics", {"preset": "gaussian_mixture_1d", "clouds": [WIDE_FILE],
                       "metrics": ["ise"]}, "clouds", "metrics-ise-of-an-overflowing-spread"),
])
def test_invalid_config_exits_2_at_its_key(tmp_path, capsys, monkeypatch, rng, command,
                                           config, key):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran on an invalid config")

    monkeypatch.setattr("fredholm_flow.cli.run_solver", no_solve)
    np.savetxt(tmp_path / "obs.csv", rng.normal(size=(40, 1)), delimiter=",")
    (tmp_path / "nan.csv").write_text("0.1\nnan\n0.3\n")
    (tmp_path / "constant.csv").write_text("0.5\n" * 4)
    (tmp_path / "one-row.csv").write_text("0.5\n")
    (tmp_path / "wide.csv").write_text("1e200\n-1e200\n")
    text = json.dumps(config)
    for placeholder, name in [(OBS_FILE, "obs.csv"), (NAN_FILE, "nan.csv"),
                              (CONSTANT_FILE, "constant.csv"), (ONE_ROW_FILE, "one-row.csv"),
                              (WIDE_FILE, "wide.csv")]:
        text = text.replace(placeholder, str(tmp_path / name))
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    # the key, then ": ", " " (a message naming it) or "[" (a list element)
    assert re.match(rf"config error: {re.escape(key)}(: | |\[)", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def _no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 72.8 TiB for an array")


def _sampler_without_memory(name, **options):
    return dataclasses.replace(get_preset(name, **options), sample_observations=_no_memory)


# a real request of this size may not fail fast under overcommit, so the
# sampler, the cloud builder or the grid builder raises in its place
@pytest.mark.parametrize("command, config, target, key", [
    ("run", {"preset": "toy_gaussian", "observations": {"n_samples": 10**13}},
     (cli, "get_preset", _sampler_without_memory), "observations.n_samples"),
    ("run", {"preset": "toy_gaussian", "solver": {"n_particles": 10**13}},
     (cli, "build_initial_cloud", _no_memory), "solver.n_particles"),
    ("cv", dict(CV, solver={"n_particles": 10**13, "minibatch": 20, "n_steps": 2}),
     (cli, "build_initial_cloud", _no_memory), "solver.n_particles"),
    ("baseline", {"baseline": "oslem", "preset": "gaussian_mixture_1d", "n_bins": 10**13},
     (baselines, "grid_problem_from_continuous", _no_memory), "n_bins"),
    # real requests past numpy's int64 index range: numpy rejects the shape before
    # it allocates, and np.arange(2**63) would be empty
    ("run", {"preset": "toy_gaussian", "observations": {"n_samples": 10**30}}, None,
     "observations.n_samples"),
    ("run", {"preset": "toy_gaussian", "observations": {"n_samples": 2**63}}, None,
     "observations.n_samples"),
    ("run", {"preset": "toy_gaussian", "solver": {"n_particles": 2**63}}, None,
     "solver.n_particles"),
    ("run", {"preset": "toy_gaussian", "solver": {"n_particles": 10**30}}, None,
     "solver.n_particles"),
    # 2**62 particles of 8 bytes are past the byte range, which numpy checks too
    ("cv", dict(CV, solver={"n_particles": 2**62, "minibatch": 20, "n_steps": 2}), None,
     "solver.n_particles"),
    ("baseline", {"baseline": "oslem", "preset": "gaussian_mixture_1d", "n_bins": 10**30},
     None, "n_bins"),
    ("baseline", {"baseline": "oslem", "preset": "gaussian_mixture_1d", "n_bins": 2**63},
     None, "n_bins"),
    ("run", {"preset": "highdim_mixture", "preset_options": {"dim": 10**13}},
     (cli, "get_preset", _no_memory), "preset_options.dim"),
    ("cv", dict(CV, preset="highdim_mixture", preset_options={"dim": 2**63}), None,
     "preset_options.dim"),
], ids=["observations", "run-cloud", "cv-cloud", "oslem-bins", "observations-1e30",
        "observations-2^63", "run-cloud-2^63", "run-cloud-1e30", "cv-cloud-2^62",
        "oslem-bins-1e30", "oslem-bins-2^63", "dimensions", "dimensions-2^63"])
def test_size_too_large_to_allocate_exits_2_at_its_key(tmp_path, capsys, monkeypatch,
                                                       command, config, target, key):
    if target is not None:
        monkeypatch.setattr(*target)
    cfg = write_config(tmp_path, "c.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: too large to allocate")


@pytest.mark.parametrize("seed", ["-1", str(2**63)])
def test_seed_flag_outside_the_key_range_exits_2(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, "c.json", SMALL_RUN)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", seed]) == 2
    assert capsys.readouterr().err.startswith("config error: --seed")


@pytest.mark.parametrize("command", ["run", "cv"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_flag_below_one_exits_2(tmp_path, capsys, command, workers):
    cfg = write_config(tmp_path, "c.json", SMALL_RUN if command == "run" else CV)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--workers", workers]) == 2
    assert capsys.readouterr().err.startswith("config error: --workers")
    assert not out.exists()


def test_more_replicates_than_the_cap_exit_2_before_any_output(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", dict(SMALL_RUN, replicates=cli.MAX_REPLICATES + 1))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: replicates")
    assert not out.exists()


@pytest.mark.parametrize("content", ["", "y_1\n", "0.1,0.2\n0.3\n", "0.1\nabc\n"],
                         ids=["empty", "header-only", "ragged", "non-numeric"])
def test_bad_observation_file_exits_2(tmp_path, capsys, content):
    (tmp_path / "obs.csv").write_text(content)
    payload = dict(SMALL_RUN, observations={"file": str(tmp_path / "obs.csv")})
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: observations.file")


def test_observation_file_is_read_once_per_run(tmp_path, monkeypatch, rng):
    np.savetxt(tmp_path / "obs.csv", rng.normal(0.4, 0.1, size=(60, 1)), delimiter=",")
    reads = []
    read = artifacts.read_points_csv
    monkeypatch.setattr(artifacts, "read_points_csv", lambda path: reads.append(path) or read(path))
    payload = dict(SMALL_RUN, observations={"file": str(tmp_path / "obs.csv")}, replicates=3)
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--workers", "2"]) == 0
    assert len(reads) == 1


def test_resolved_config_records_what_the_run_used(tmp_path):
    cfg = write_config(tmp_path, "c.json", SMALL_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--workers", "2"]) == 0
    echo = json.loads((out / "config_resolved.json").read_text())
    assert echo["config"] == SMALL_RUN
    resolved = echo["resolved"]
    preset = preset_gaussian_mixture_1d()
    assert resolved["solver"] == dict(vars(preset.solver), n_particles=50, n_steps=10, seed=5)
    assert resolved["init"] == {"mode": "observations"}   # what "auto" picked
    assert resolved["metrics"] == ["ise", "w1_marginal1"]
    assert resolved["seeds"] == [5, 6]
    assert resolved["observations"] == {"n_samples": 200, "seeds": [21, 21]}
    assert "workers" not in json.dumps(echo)


def test_resolved_config_records_the_effective_minibatch(tmp_path):
    payload = {"preset": "ct_phantom", "solver": {"n_steps": 0}, "kde_grid": False,
               "metrics": ["w1_marginal1"]}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, "c.json", payload),
                 "--out", str(out)]) == 0
    resolved = json.loads((out / "config_resolved.json").read_text())["resolved"]
    assert resolved["solver"]["minibatch"] is None
    assert resolved["minibatch"] == 2000


def test_cv_resolved_config_records_the_minibatch_of_each_fold(tmp_path):
    # toy_gaussian's minibatch of 500 exceeds the 400 observations each fold trains on
    payload = {"preset": "toy_gaussian", "observations": {"n_samples": 600},
               "solver": {"n_particles": 20, "n_steps": 1},
               "cv": {"alpha_grid": [0.1], "folds": 3}}
    out = tmp_path / "out"
    assert main(["cv", "--config", write_config(tmp_path, "c.json", payload),
                 "--out", str(out)]) == 0
    resolved = json.loads((out / "config_resolved.json").read_text())["resolved"]
    assert resolved["solver"]["minibatch"] == 500
    assert resolved["minibatch"] == [400, 400, 400]


_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_import_loads_numpy_random_and_no_scipy():
    code = ("import fredholm_flow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('numpy.random' in sys.modules)")
    assert fresh_interpreter(code) == ["[]", "True"]


def test_package_import_loads_no_numpy():
    assert fresh_interpreter("import fredholm_flow; print('numpy' in sys.modules)") == ["False"]


def test_cli_import_pins_blas_to_one_thread_and_loads_no_baselines_or_crossval():
    # OpenBLAS reads its variables only when numpy loads: the import loads it on one
    # thread, then hands the caller's 4 and two unset variables back, so the
    # processes it starts keep them; on Linux a GEMM then runs on the main thread alone
    code = ("import os, fredholm_flow.cli, numpy as np; "
            "print(sorted(m for m in ('fredholm_flow.baselines', 'fredholm_flow.crossval') "
            "if m in sys.modules)); "
            f"print([os.environ.get(name) for name in {_BLAS_VARIABLES!r}]); "
            "a = np.ones((400, 400)); a @ a; "
            "print(len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1)")
    assert fresh_interpreter(code, {"OPENBLAS_NUM_THREADS": "4"}) == [
        "[]", "['4', None, None]", "1"]


_NEEDS_MAPS_AND_OPENSSL = pytest.mark.skipif(
    not Path("/proc/self/maps").exists() or importlib.util.find_spec("_hashlib") is None,
    reason="reads the process's mappings in /proc/self/maps and loads OpenSSL's _hashlib")
_MAPS_LIBCRYPTO = "'libcrypto' in pathlib.Path('/proc/self/maps').read_text()"


@_NEEDS_MAPS_AND_OPENSSL
def test_cli_import_loads_no_openssl_and_keeps_the_digests():
    # numpy.random imports secrets, hmac and _hashlib, which maps libcrypto; the CLI
    # hides _hashlib while numpy loads, the builtin digests stand in, and afterwards
    # an explicit import of _hashlib works as usual
    code = ("import fredholm_flow.cli, hashlib, hmac, pathlib; "
            "print(hashlib.sha256(b'').hexdigest()); "
            "print(hmac.new(b'key', b'message', 'sha256').hexdigest()); "
            f"print('_hashlib' in sys.modules, {_MAPS_LIBCRYPTO}); "
            "import _hashlib; print(_hashlib.__name__)")
    assert fresh_interpreter(code) == [
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        hmac.new(b"key", b"message", "sha256").hexdigest(), "False False", "_hashlib"]


@_NEEDS_MAPS_AND_OPENSSL
def test_cli_import_keeps_a_callers_openssl():
    code = ("import hashlib, pathlib; loaded = sys.modules['_hashlib']; "
            "import fredholm_flow.cli; "
            f"print(sys.modules['_hashlib'] is loaded, {_MAPS_LIBCRYPTO})")
    assert fresh_interpreter(code) == ["True True"]


def test_public_names_resolve_lazily_and_are_listed():
    names = dir(fredholm_flow)
    for name in fredholm_flow.__all__:
        assert name in names
        assert getattr(fredholm_flow, name) is not None
    assert fredholm_flow.oslem_solve is baselines.oslem_solve
    with pytest.raises(AttributeError, match="no_such_name"):
        fredholm_flow.no_such_name


def test_cli_bytes_do_not_depend_on_blas_threads(tmp_path):
    # ct_phantom's 2-D grid readout contracts its factors by GEMM, whose bits
    # would follow the size of OpenBLAS's own pool
    cfg = write_config(tmp_path, "c.json", {
        "preset": "ct_phantom", "solver": {"n_steps": 2}, "kde_grid": True,
        "metrics": ["ise", "w1_marginal1"]})
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        fresh_interpreter(f"import fredholm_flow.cli as cli; sys.exit(cli.main(['run', "
                          f"'--config', {cfg!r}, '--out', {str(out)!r}]))",
                          {"OPENBLAS_NUM_THREADS": threads})
        trees.append(tree_bytes(out))
    assert "rep000/kde_grid.csv" in trees[0]
    assert trees[0] == trees[1]


def test_inline_problem_equals_its_preset(tmp_path, rng):
    # gaussian_mixture_1d is the inline gaussian_convolution kernel with a from_sample
    # reference; on the same observation file both runs must write the same bytes
    np.savetxt(tmp_path / "obs.csv", rng.normal(0.4, 0.1, size=(120, 1)), delimiter=",")
    common = {"observations": {"file": str(tmp_path / "obs.csv")},
              "solver": {"n_particles": 40, "n_steps": 8}, "init": {"mode": "observations"},
              "replicates": 2, "seed_base": 4}
    preset = dict(common, preset="gaussian_mixture_1d", metrics=[], kde_grid=False)
    inline = dict(common, problem={
        "kernel": {"type": "gaussian_convolution", "noise_sd": [0.045]},
        "reference": {"kind": "from_sample"}})
    outs = tmp_path / "preset", tmp_path / "inline"
    for name, payload, out in zip(("p.json", "i.json"), (preset, inline), outs):
        assert main(["run", "--config", write_config(tmp_path, name, payload),
                     "--out", str(out)]) == 0
    for rep in ("rep000", "rep001"):
        assert tree_bytes(outs[0] / rep) == tree_bytes(outs[1] / rep)
        assert sorted(tree_bytes(outs[0] / rep)) == ["cloud_final.csv", "trace.csv"]


@pytest.mark.parametrize("workers", ["2", str(os.cpu_count() + 3)])
def test_replicates_hold_workspaces_on_pool_threads_only(tmp_path, monkeypatch, workers):
    # replicates run on the block pool, whatever --workers is, so only its
    # threads hold arenas and a --workers above the core count starts no thread
    threads = set()
    arena = blocks.arena

    def recorded(*args):
        threads.add(threading.get_ident())
        return arena(*args)

    for module in (blocks, density):
        monkeypatch.setattr(module, "arena", recorded)
    cfg = write_config(tmp_path, "c.json", dict(SMALL_RUN, replicates=4))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--workers", workers]) == 0
    assert threads and threads <= {thread.ident for thread in blocks._shared_pool()._threads}


@pytest.mark.parametrize("workers", ["1", "2", str(os.cpu_count() + 3)])
def test_failed_replicate_leaves_the_finished_ones(tmp_path, monkeypatch, capsys, workers):
    from fredholm_flow.errors import NumericalFailure
    solve = cli.run_solver
    # (replicates, the failing one): every other replicate runs to its end and
    # writes its directory, whatever --workers is
    for replicates, failing in ((2, 1), (3, 0)):
        run = dict(SMALL_RUN, replicates=replicates)
        cfg = write_config(tmp_path, f"c{replicates}.json", run)
        clean = tmp_path / f"clean{replicates}"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "run_solver", solve)
            assert main(["run", "--config", cfg, "--out", str(clean)]) == 0

        def fail_one(config, *args, **kwargs):
            if config.seed == run["seed_base"] + failing:
                raise NumericalFailure("non-finite drift", step=3)
            return solve(config, *args, **kwargs)

        monkeypatch.setattr(cli, "run_solver", fail_one)
        out = tmp_path / f"out{replicates}"
        assert main(["run", "--config", cfg, "--out", str(out), "--workers", workers]) == 3
        assert "step=3" in capsys.readouterr().err
        # the others' directories as a clean run writes them, and no directory
        # for the failed replicate, no metrics.csv and no config_resolved.json
        assert tree_bytes(out) == {name: data for name, data in tree_bytes(clean).items()
                                   if name.startswith("rep")
                                   and not name.startswith(f"rep{failing:03d}/")}


@pytest.mark.parametrize("name, options", [("ct_phantom", {}), ("epidemiology_synthetic", {}),
                                           ("gaussian_mixture_1d", {}), ("toy_gaussian", {}),
                                           ("highdim_mixture", {"dim": 2})])
def test_ise_metric_is_the_ise_of_the_whole_grid_truth(name, options):
    preset = get_preset(name, **options)
    grid = preset.metric_grid
    points = preset.sample_truth(300, 8)
    [(_, got)] = cli.compute_metrics(preset, ParticleCloud(points), None, ["ise"], 0)
    want = metrics.ise(grid, density.GaussianKde(points).on_grid(grid),
                       preset.truth_pdf(grid_nodes(grid)))
    assert got == want


def test_ise_truth_holds_its_values_and_one_row_block(monkeypatch):
    # the truth density is evaluated a row block of nodes at a time into one
    # (nodes,) array, never on the whole (161², 2) node list
    preset = get_preset("ct_phantom")
    grid = preset.metric_grid
    estimate = np.zeros(math.prod(grid.shape))
    peaks = []

    def ise(grid, estimate, truth):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return metrics.ise(grid, estimate, truth)

    monkeypatch.setattr(cli, "ise", ise)
    tracemalloc.start()
    try:
        cli.compute_metrics(preset, None, None, ["ise"], 0, grid_kde=estimate)
    finally:
        tracemalloc.stop()
    # below its values and the node list, and within its values and the
    # temporaries of one block of nodes
    assert peaks[0] < estimate.nbytes * (1 + grid.dim)
    assert peaks[0] <= estimate.nbytes + 8 * 8 * density._NODE_BLOCK
