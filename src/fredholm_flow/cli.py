"""Command-line front end.

Subcommands: ``run`` (solve and emit artifacts), ``cv`` (cross-validate the
penalty weight), ``baseline`` (grid EM / analytic toy tables) and ``metrics``
(recompute metrics from stored cloud CSVs).  Configs are JSON; every run
echoes its fully resolved configuration next to its outputs so any artifact
is self-describing.  Numeric outputs are CSV with 17-significant-digit
floats; repeated runs with identical configs produce identical bytes
regardless of ``--workers``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__, artifacts, rng as _rng
from .baselines import (ToyGaussianSpec, discrete_objective,
                        grid_problem_from_continuous, oslem_solve,
                        resolve_toy_sigma0_sq, toy_sweep)
from .crossval import CvPlan, cv_score
from .density import GaussianKde
from .errors import ConfigError, NumericalFailure
from .kernels import (GaussianConvolutionKernel, GaussianMixtureDelayKernel,
                      RadonAlignmentKernel)
from .metrics import DensityOnGrid, ise, reconvolve, wasserstein1_1d
from .problems import (PRESET_NAMES, TOY_SIGMA_K_SQ, TOY_SIGMA_PI_SQ,
                       build_initial_cloud, get_preset, load_observations_csv)
from .reference import ReferenceMeasure
from .solver import SolverConfig, run as run_solver

_SOLVER_TYPES = typing.get_type_hints(SolverConfig)
_INIT_MODES = ("auto", "observations", "reference", "point", "uniform")
_INIT_KEYS = {"mode", "point", "box"}
_METRIC_NAMES = ("ise", "w1_marginal1", "reconvolution_ise")


def _load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"line {err.lineno} column {err.colno}: {err.msg}",
                          path=str(path)) from err


def _expect(cfg: dict, key: str, kind, path: str, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError("missing required key", path=f"{path}{key}")
        return default
    value = cfg[key]
    kinds = typing.get_args(kind) or (kind,)
    if float in kinds and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (isinstance(value, bool) and bool not in kinds):
        raise ConfigError(f"expected {getattr(kind, '__name__', kind)}, got "
                          f"{type(value).__name__}", path=f"{path}{key}")
    return value


def _solver_overrides(cfg: dict, base):
    unknown = set(cfg) - set(_SOLVER_TYPES)
    if unknown:
        raise ConfigError(f"unknown solver keys {sorted(unknown)}", path="solver")
    values = {key: _expect(cfg, key, _SOLVER_TYPES[key], "solver.") for key in cfg}
    try:
        return dataclasses.replace(base, **values)
    except ValueError as err:
        raise ConfigError(str(err), path="solver") from err


def _metric_names(cfg: dict, preset) -> list:
    """The requested metrics, checked against the preset before any solve."""
    names = _expect(cfg, "metrics", list, "",
                    default=list(preset.default_metrics) if preset is not None else [])
    unknown = [name for name in names if name not in _METRIC_NAMES]
    if unknown:
        raise ConfigError(f"unknown metrics {unknown}; choose from {_METRIC_NAMES}",
                          path="metrics")
    if names and preset is None:
        raise ConfigError("inline problems have no truth density to score against",
                          path="metrics")
    if "ise" in names and preset.metric_grid is None:
        raise ConfigError("preset has no metric grid for ISE", path="metrics")
    if "reconvolution_ise" in names and (preset.observation_grid or preset.metric_grid) is None:
        raise ConfigError("reconvolution needs a grid", path="metrics")
    return names


def _init_config(cfg: dict) -> dict:
    init_cfg = _expect(cfg, "init", dict, "", default={})
    unknown = set(init_cfg) - _INIT_KEYS
    if unknown:
        raise ConfigError(f"unknown init keys {sorted(unknown)}", path="init")
    return init_cfg


def _build_kernel(cfg: dict, path="problem.kernel."):
    kind = _expect(cfg, "type", str, path, required=True)
    if kind == "gaussian_convolution":
        return GaussianConvolutionKernel(_expect(cfg, "noise_sd", list, path, required=True))
    if kind == "gaussian_mixture_delay":
        return GaussianMixtureDelayKernel(_expect(cfg, "weights", list, path, required=True),
                                          _expect(cfg, "means", list, path, required=True),
                                          _expect(cfg, "sds", list, path, required=True))
    if kind == "radon_alignment":
        return RadonAlignmentKernel(_expect(cfg, "sigma", float, path, required=True),
                                    _expect(cfg, "xi_max", float, path, default=2.0))
    raise ConfigError(f"unknown kernel type {kind!r}", path=path + "type")


def _build_reference(cfg: dict, observations, path="problem.reference."):
    kind = _expect(cfg, "kind", str, path, required=True)
    if kind == "gaussian":
        return ReferenceMeasure.gaussian(_expect(cfg, "mean", list, path, required=True),
                                         _expect(cfg, "variances", list, path, required=True))
    if kind == "flat":
        return ReferenceMeasure.flat(_expect(cfg, "dim", int, path, required=True))
    if kind == "from_sample":
        return ReferenceMeasure.from_sample(observations.points,
                                            mean_shift=_expect(cfg, "mean_shift", float,
                                                               path, default=0.0))
    raise ConfigError(f"unknown reference kind {kind!r}", path=path + "kind")


def _observations_for(cfg: dict | None, preset, replicate_seed: int):
    cfg = cfg or {}
    if "file" in cfg:
        path = Path(_expect(cfg, "file", str, "observations."))
        if not path.is_file():
            raise ConfigError(f"file not found: {path}", path="observations.file")
        return load_observations_csv(path)
    if preset is None:
        raise ConfigError("inline problems need observations from a file",
                          path="observations.file")
    n = _expect(cfg, "n_samples", int, "observations.", default=preset.n_observations)
    if n < 1:
        raise ConfigError("n_samples must be positive", path="observations.n_samples")
    seed = _expect(cfg, "seed", int, "observations.",
                   default=_rng.derive_seed(replicate_seed, 11))
    return preset.sample_observations(n, seed)


def _validate_common(kernel, solver, observations, ref, init_mode):
    if observations.dim != kernel.dim_y:
        raise ConfigError(f"observations have dimension {observations.dim}, kernel "
                          f"expects {kernel.dim_y}", path="observations")
    if solver.minibatch is not None and solver.resample_policy == "without_replacement" \
            and solver.minibatch > observations.n_observations:
        raise ConfigError("minibatch exceeds the observation count under "
                          "without-replacement resampling", path="solver.minibatch")
    if ref is not None and ref.kind == "flat" and solver.alpha > 0:
        raise ConfigError("a flat reference cannot carry a positive penalty weight",
                          path="solver.alpha")
    if init_mode not in _INIT_MODES:
        raise ConfigError(f"init mode must be one of {_INIT_MODES}", path="init.mode")


def _grid_kde(preset, cloud) -> DensityOnGrid:
    grid = preset.metric_grid
    return DensityOnGrid(grid, GaussianKde(cloud.points).on_grid(grid))


def compute_metrics(preset, cloud, observations, names, seed, grid_kde=None):
    """(metric, value) rows for a fitted cloud under a preset.

    ``names`` have passed ``_metric_names`` for this preset.  ``grid_kde`` is
    the cloud's KDE on the metric grid, computed here if not given.
    """
    rows = []
    for name in names:
        if name == "ise":
            est = grid_kde if grid_kde is not None else _grid_kde(preset, cloud)
            truth = DensityOnGrid(preset.metric_grid,
                                  preset.truth_pdf(preset.metric_grid.nodes()))
            rows.append((name, ise(est, truth)))
        elif name == "w1_marginal1":
            truth = preset.sample_truth(cloud.n_particles, _rng.derive_seed(seed, 7))
            rows.append((name, wasserstein1_1d(cloud.points[:, 0], truth[:, 0])))
        else:  # reconvolution_ise
            grid = preset.observation_grid or preset.metric_grid
            observed = DensityOnGrid(grid, GaussianKde(observations.points).on_grid(grid))
            rows.append((name, ise(reconvolve(cloud.points, preset.kernel, grid), observed)))
    return rows


def _replicate_job(cfg, preset, solver, init_cfg, metric_names, emit_kde, replicate_seed):
    observations = _observations_for(cfg.get("observations"), preset, replicate_seed)
    if preset is not None:
        kernel = preset.kernel
        ref = preset.make_reference(observations)
    else:
        kernel = _build_kernel(cfg["problem"]["kernel"])
        ref = _build_reference(cfg["problem"]["reference"], observations)
    config = dataclasses.replace(solver, seed=replicate_seed)
    init_mode = init_cfg.get("mode", "auto")
    _validate_common(kernel, config, observations, ref, init_mode)
    init = build_initial_cloud(preset, config, observations, ref, mode=init_mode,
                               point=init_cfg.get("point"), box=init_cfg.get("box"))
    cloud, trace = run_solver(config, kernel, ref, init, observations)
    if preset is None:
        return cloud, trace, [], observations, None
    write_kde = emit_kde and cloud.dim <= 2
    needs_kde = preset.metric_grid is not None and (write_kde or "ise" in metric_names)
    grid_kde = _grid_kde(preset, cloud) if needs_kde else None
    metric_rows = compute_metrics(preset, cloud, observations, metric_names,
                                  replicate_seed, grid_kde)
    return cloud, trace, metric_rows, observations, grid_kde if write_kde else None


def _resolve_preset(cfg):
    if "problem" in cfg:
        if "preset" in cfg:
            raise ConfigError("give either a preset or an inline problem, not both",
                              path="preset")
        return None
    name = _expect(cfg, "preset", str, "", required=True)
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}",
                          path="preset")
    return get_preset(name, **_expect(cfg, "preset_options", dict, "", default={}))


def cmd_run(cfg: dict, out: Path, workers: int, seed_override: int | None) -> int:
    preset = _resolve_preset(cfg)
    base = preset.solver if preset is not None else _default_solver_config()
    solver = _solver_overrides(cfg.get("solver", {}), base)
    replicates = _expect(cfg, "replicates", int, "", default=1)
    if replicates < 1:
        raise ConfigError("replicates must be positive", path="replicates")
    seed_base = seed_override if seed_override is not None \
        else _expect(cfg, "seed_base", int, "", default=solver.seed)
    metric_names = _metric_names(cfg, preset)
    init_cfg = _init_config(cfg)
    emit_kde = _expect(cfg, "kde_grid", bool, "", default=True)

    jobs = list(range(replicates))
    runner = lambda r: _replicate_job(cfg, preset, solver, init_cfg, metric_names,
                                      emit_kde, seed_base + r)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(runner, jobs))
    else:
        results = [runner(r) for r in jobs]

    out.mkdir(parents=True, exist_ok=True)
    all_metric_rows = []
    for r, (cloud, trace, metric_rows, observations, grid_kde) in zip(jobs, results):
        rep_dir = out / f"rep{r:03d}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        artifacts.write_trace_csv(rep_dir / "trace.csv", trace)
        artifacts.write_cloud_csv(rep_dir / "cloud_final.csv", cloud)
        if grid_kde is not None:
            artifacts.write_density_csv(rep_dir / "kde_grid.csv", grid_kde)
        name = preset.name if preset is not None else "inline"
        for metric, value in metric_rows:
            all_metric_rows.append((name, "particle_flow", solver.n_particles,
                                    observations.n_observations, seed_base + r,
                                    metric, value))
    artifacts.write_metrics_csv(out / "metrics.csv", all_metric_rows)
    _echo_config(cfg, out, seed_base=seed_base, command="run")
    return 0


def _default_solver_config():
    return SolverConfig(alpha=0.01, gamma=1e-3, n_particles=200, n_steps=100)


def cmd_cv(cfg: dict, out: Path, workers: int, seed_override: int | None) -> int:
    preset = _resolve_preset(cfg)
    if preset is None:
        raise ConfigError("cross-validation needs a preset problem", path="preset")
    solver = _solver_overrides(cfg.get("solver", {}), preset.solver)
    cv_cfg = cfg.get("cv", {})
    plan = CvPlan(alpha_grid=tuple(_expect(cv_cfg, "alpha_grid", list, "cv.", required=True)),
                  n_folds=_expect(cv_cfg, "folds", int, "cv.", default=5),
                  seed=seed_override if seed_override is not None
                  else _expect(cv_cfg, "seed", int, "cv.", default=0),
                  score=_expect(cv_cfg, "score", str, "cv.", default="penalized"))
    init_cfg = _init_config(cfg)
    observations = _observations_for(cfg.get("observations"), preset, plan.seed)
    _validate_common(preset.kernel, solver, observations, None, init_cfg.get("mode", "auto"))
    result = cv_score(plan, preset, observations, solver, workers=workers, init=init_cfg)
    out.mkdir(parents=True, exist_ok=True)
    artifacts.write_cv_csv(out / "cv_table.csv", result)
    _echo_config(cfg, out, seed_base=plan.seed, command="cv")
    print(f"selected alpha: {artifacts.fmt(result.selected_alpha())}")
    return 0


def cmd_baseline(cfg: dict, out: Path, workers: int, seed_override: int | None) -> int:
    kind = _expect(cfg, "baseline", str, "", required=True)
    out.mkdir(parents=True, exist_ok=True)
    if kind == "toy":
        sigma_pi_sq = _expect(cfg, "sigma_pi_sq", float, "", default=TOY_SIGMA_PI_SQ)
        sigma_k_sq = _expect(cfg, "sigma_k_sq", float, "", default=TOY_SIGMA_K_SQ)
        sigma0_sq = _expect(cfg, "sigma0_sq", float, "", default=0.0) \
            or resolve_toy_sigma0_sq(0.44, 1.0, sigma_pi_sq, sigma_k_sq)
        spec = ToyGaussianSpec(sigma_pi_sq, sigma_k_sq, sigma0_sq, alpha=1.0)
        rows = toy_sweep(spec, _expect(cfg, "alpha_grid", list, "", default=[0.0, 0.5, 1.0]))
        artifacts.write_toy_sweep_csv(out / "toy_sweep.csv", rows)
        _echo_config(cfg, out, seed_base=0, command="baseline",
                     extra={"sigma0_sq_resolved": spec.sigma0_sq})
        for alpha, beta, value in rows:
            print(f"alpha={artifacts.fmt(alpha)} beta={artifacts.fmt(beta)} "
                  f"objective={artifacts.fmt(value)}")
        return 0
    if kind == "oslem":
        preset = _resolve_preset(cfg)
        if preset is None or preset.observed_pdf is None or preset.dim != 1:
            raise ConfigError("grid EM baseline needs a 1-D preset with a closed-form "
                              "observed density", path="preset")
        n_bins = _expect(cfg, "n_bins", int, "", default=100)
        alpha = _expect(cfg, "alpha", float, "", default=preset.solver.alpha)
        iterations = _expect(cfg, "iterations", int, "", default=500)
        lo = _expect(cfg, "lo", float, "", default=0.0)
        hi = _expect(cfg, "hi", float, "", default=1.0)
        observations = _observations_for(cfg.get("observations"), preset,
                                         seed_override if seed_override is not None else 0)
        ref = preset.make_reference(observations)
        problem = grid_problem_from_continuous(preset.kernel, preset.observed_pdf, ref,
                                               n_bins, lo, hi)
        state = oslem_solve(problem, alpha, iterations)
        artifacts.write_grid_state_csv(out / "grid_state.csv", problem.bin_centers, state)
        _echo_config(cfg, out, seed_base=0, command="baseline")
        print(f"objective: {artifacts.fmt(discrete_objective(state, problem, alpha))}")
        return 0
    raise ConfigError(f"unknown baseline {kind!r}", path="baseline")


def cmd_metrics(cfg: dict, out: Path, workers: int, seed_override: int | None) -> int:
    preset = _resolve_preset(cfg)
    if preset is None:
        raise ConfigError("metric recomputation needs a preset problem", path="preset")
    cloud_paths = cfg.get("clouds")
    if not isinstance(cloud_paths, list) or not cloud_paths:
        raise ConfigError("give the stored cloud CSVs as a list", path="clouds")
    missing = [p for p in cloud_paths if not isinstance(p, str) or not Path(p).is_file()]
    if missing:
        raise ConfigError(f"cloud files not found: {missing}", path="clouds")
    names = _metric_names(cfg, preset)
    seed = seed_override if seed_override is not None \
        else _expect(cfg, "seed", int, "", default=0)
    needs_obs = "reconvolution_ise" in names
    observations = _observations_for(cfg.get("observations"), preset, seed) \
        if needs_obs or "observations" in cfg else None
    rows = []
    for i, path in enumerate(cloud_paths):
        cloud = artifacts.read_cloud_csv(path)
        for metric, value in compute_metrics(preset, cloud, observations, names,
                                             _rng.derive_seed(seed, i)):
            rows.append((preset.name, "stored_cloud", cloud.n_particles,
                         observations.n_observations if observations else 0,
                         seed, metric, value))
    out.mkdir(parents=True, exist_ok=True)
    artifacts.write_metrics_csv(out / "metrics.csv", rows)
    _echo_config(cfg, out, seed_base=seed, command="metrics")
    return 0


def _echo_config(cfg: dict, out: Path, *, seed_base: int, command: str,
                 extra: dict | None = None) -> None:
    resolved = {"command": command, "config": cfg, "seed_base": seed_base,
                "version": __version__}
    if extra:
        resolved.update(extra)
    artifacts.write_resolved_config(out / "config_resolved.json", resolved)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fredholm-flow",
                                     description="particle solver for Fredholm "
                                                 "integral equations of the first kind")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "cv", "baseline", "metrics"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's base seed")
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "cv": cmd_cv, "baseline": cmd_baseline,
                "metrics": cmd_metrics}
    try:
        cfg = _load_config(args.config)
        return handlers[args.command](cfg, Path(args.out), args.workers, args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalFailure as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
