"""Command-line front end.

Subcommands: ``run`` (solve and emit artifacts), ``cv`` (cross-validate the
penalty weight), ``baseline`` (grid EM / analytic toy tables) and ``metrics``
(recompute metrics from stored cloud CSVs).  A config is one JSON object,
read whole before any compute: ``_section`` checks each section against its
key table, and the library type built from it checks the ranges.  Errors
name the dotted key.  An inline ``problem`` is a preset with no truth and no
sampler.  Each replicate writes its ``repNNN/`` when it finishes, and
``metrics.csv`` and ``config_resolved.json`` (the config and what it
resolved to) follow once all have.  Numeric outputs are CSV with
17-significant-digit floats, byte-identical for any ``--workers`` and any
core count.  What loads with numpy follows one policy, set only while the
module's imports load it (see the comment there): BLAS on one thread, and no
OpenSSL, which no run calls.  ``cv`` and ``baseline`` import ``crossval`` and
``baselines`` themselves, so a ``run`` loads neither.  ``--out`` is checked
before any compute: its nearest existing ancestor must be a directory.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import json
import math
import os
import sys
import typing
from pathlib import Path

# What loads with numpy is set here, only while the imports below load it, and a caller
# that loaded it first keeps what it has:
# - One BLAS thread, the only time OpenBLAS reads these variables, and the caller's
#   values back after them, for the processes it starts: the block pool owns every
#   core, no BLAS call runs in a solver step, and OpenBLAS's own pool (one thread per
#   core) would change the bits of the 2-D grid readout with the core count.
# - No OpenSSL: numpy.random imports secrets, hmac and so _hashlib, which maps
#   libcrypto (3.4 MB resident) that no run calls, for every stream is a keyed Philox.
#   With _hashlib hidden, hashlib, hmac and random take the interpreter's builtin
#   digests, the same values.  It is hidden only where the builtin SHA-2 modules exist
#   (random imports SHA-512 from them, and hashlib logs each digest it lacks), and only
#   while these imports run, so a later ``import _hashlib`` (ssl's, say) loads it.
_BLAS_LAUNCH = {name: os.environ.get(name)
                for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
_HIDE_OPENSSL = "_hashlib" not in sys.modules and all(
    importlib.util.find_spec(name) for name in
    (("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")))
os.environ.update(dict.fromkeys(_BLAS_LAUNCH, "1"))
if _HIDE_OPENSSL:
    sys.modules["_hashlib"] = None   # import _hashlib raises ImportError
try:
    from . import __version__, artifacts, rng as _rng
    from .blocks import map_jobs
    from .density import GaussianKde
    from .errors import ConfigError, NumericalFailure
    from .kernels import (GaussianConvolutionKernel, GaussianMixtureDelayKernel,
                          RadonAlignmentKernel)
    from .metrics import ise, reconvolve, wasserstein1_1d
    from .problems import (PRESETS, TOY_SIGMA_K_SQ, TOY_SIGMA_PI_SQ, ExperimentPreset,
                           build_initial_cloud, get_preset)
    from .reference import ReferenceMeasure
    from .solver import SolverConfig, run as run_solver
finally:
    if _HIDE_OPENSSL:
        del sys.modules["_hashlib"]
    for _name, _value in _BLAS_LAUNCH.items():
        if _value is None:
            os.environ.pop(_name)
        else:
            os.environ[_name] = _value

# key tables: key -> type or section table; (key, tables) picks tables[the value of key]
_SOLVER = typing.get_type_hints(SolverConfig)
_INIT = {"mode": str, "point": list[float], "box": list}   # box: see build_initial_cloud
_PRESET = {"preset": str, "preset_options": dict,
           "observations": {"file": str, "n_samples": int, "seed": int}}
_TOP = {"run": {**_PRESET, "problem": {"kernel": dict, "reference": dict}, "solver": _SOLVER,
                "init": _INIT, "metrics": list[str], "replicates": int, "seed_base": int,
                "kde_grid": bool},
        "cv": {**_PRESET, "solver": _SOLVER, "init": _INIT, "cv": {
            "alpha_grid": list[float], "folds": int, "seed": int, "score": str}},
        "metrics": {**_PRESET, "clouds": list[str], "metrics": list[str], "seed": int},
        "baseline": ("baseline", {
            "toy": {"sigma_pi_sq": float, "sigma_k_sq": float, "sigma0_sq": float,
                    "alpha_grid": list[float]},
            "oslem": {**_PRESET, "n_bins": int, "alpha": float, "iterations": int,
                      "lo": float, "hi": float}})}
# preset name -> key table of its options, from the preset function's annotations
_PRESET_OPTIONS = {name: {key: kind for key, kind in typing.get_type_hints(factory).items()
                          if key != "return"} for name, factory in PRESETS.items()}
_KERNELS = {"gaussian_convolution": {"noise_sd": list[float]},
            "gaussian_mixture_delay": {"weights": list[float], "means": list[float],
                                       "sds": list[float]},
            "radon_alignment": {"sigma": float, "xi_max": float}}
_KERNEL_TYPES = {"gaussian_convolution": GaussianConvolutionKernel,
                 "gaussian_mixture_delay": GaussianMixtureDelayKernel,
                 "radon_alignment": RadonAlignmentKernel}
# kind: the ReferenceMeasure constructor of that name
_REFERENCES = {"gaussian": {"mean": list[float], "variances": list[float]},
               "flat": {"dim": int}, "from_sample": {"mean_shift": float}}
_INIT_ERROR_KEYS = {"point": "init.point", "uniform": "init.box"}   # else init.mode
_METRIC_NAMES = ("ise", "w1_marginal1", "reconvolution_ise")
# the most replicates one run writes: every repNNN/ name keeps three digits
MAX_REPLICATES = 1000
_INLINE_SOLVER = SolverConfig(alpha=0.01, gamma=1e-3, n_particles=200, n_steps=100)


def _load_config(path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read the config file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"line {err.lineno} column {err.colno}: {err.msg}",
                          path=str(path)) from err


def _typed(value, kind, path: str):
    """``value`` checked as ``kind``: a bool is no number, an int is accepted
    as a float, a float must be finite, and list elements are checked too."""
    if isinstance(kind, (dict, tuple)):
        return _section(value, path, kind)
    is_list = typing.get_origin(kind) is list
    kinds = (list,) if is_list else typing.get_args(kind) or (kind,)   # or a union
    if float in kinds and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ConfigError(f"expected {getattr(kind, '__name__', kind)}, got "
                          f"{type(value).__name__}", path=path)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value}", path=path)
    return [_typed(item, typing.get_args(kind)[0], f"{path}[{i}]")
            for i, item in enumerate(value)] if is_list else value


def _section(cfg, path: str, keys) -> dict:
    """The section at dotted ``path`` ("" for the top level) checked against its key
    table ``keys``: an object with no unknown key, each value of its key's type."""
    prefix = f"{path}." if path else ""
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected dict, got {type(cfg).__name__}", path=path or "config")
    if isinstance(keys, tuple):
        kind, tables = keys
        if not isinstance(cfg.get(kind), str) or cfg[kind] not in tables:
            raise ConfigError(f"expected one of {tuple(tables)}, got {cfg.get(kind)!r}",
                              path=prefix + kind)
        keys = {kind: str, **tables[cfg[kind]]}
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {path or 'top-level'} keys {unknown}",
                          path=path or unknown[0])
    return {key: _typed(value, keys[key], prefix + key) for key, value in cfg.items()}


@contextlib.contextmanager
def _at(path: str):
    """Report a library range error or missing argument as a config error at
    ``path``; a config error raised inside keeps its own key."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err), path=path) from err


# numpy's messages for a shape beyond its int64 index range, raised before it
# allocates; np.arange(2**63) is empty instead, so such sizes never reach it
_NUMPY_TOO_LARGE = ("Maximum allowed dimension exceeded", "Maximum allowed size exceeded",
                    "array is too big")


@contextlib.contextmanager
def _allocated(path: str, size: int):
    """Report ``size``, or an array built from it, as too large to allocate at ``path``."""
    if size >= 1 << 63:
        raise ConfigError(f"too large to allocate: {size} is beyond the index range",
                          path=path)
    try:
        yield
    except MemoryError as err:
        raise ConfigError(f"too large to allocate: {err}", path=path) from err
    except ValueError as err:
        if isinstance(err, ConfigError) or not str(err).startswith(_NUMPY_TOO_LARGE):
            raise
        raise ConfigError(f"too large to allocate: {err}", path=path) from err


def _at_init(init: dict):
    """Report an initialization error at the ``init`` key it concerns."""
    return _at(_INIT_ERROR_KEYS.get(init.get("mode"), "init.mode"))


def _seed(seed: int, path: str, count: int = 1) -> int:
    """``seed``, once it and the ``count - 1`` seeds after it lie in [0, 2**63)."""
    if seed < 0 or seed + count > 1 << 63:
        raise ConfigError(f"seed {seed} must lie in [0, 2**63 - {count}]", path=path)
    return seed


def _preset(cfg: dict):
    name = cfg.get("preset")
    if name not in _PRESET_OPTIONS:
        raise ConfigError(f"unknown preset {name!r}; choose from {tuple(_PRESET_OPTIONS)}",
                          path="preset")
    options = _section(cfg.get("preset_options", {}), "preset_options", _PRESET_OPTIONS[name])
    # the dimension is the only size among the presets' options
    with _at("preset_options"), _allocated("preset_options.dim", options.get("dim", 1)):
        return get_preset(name, **options)


def _metric_names(cfg: dict, preset) -> list:
    """The requested metrics, checked against the preset before any solve."""
    names = cfg.get("metrics", list(preset.default_metrics))
    unknown = [name for name in names if name not in _METRIC_NAMES]
    if unknown:
        raise ConfigError(f"unknown metrics {unknown}; choose from {_METRIC_NAMES}",
                          path="metrics")
    if names and preset.truth_pdf is None:
        raise ConfigError("inline problems have no truth density to score against",
                          path="metrics")
    if "ise" in names and preset.metric_grid is None:
        raise ConfigError("preset has no metric grid for ISE", path="metrics")
    if "reconvolution_ise" in names and (preset.observation_grid or preset.metric_grid) is None:
        raise ConfigError("reconvolution needs a grid", path="metrics")
    return names


def _observations(cfg: dict, preset, solver=None, metrics=()):
    """``draw(replicate_seed) -> (observations, seed)``, checked once: the file's sample
    (seed None) or a preset draw seeded by ``observations.seed`` or the replicate's seed."""
    obs = cfg.get("observations", {})
    if "file" in obs:
        path = Path(obs["file"])
        if not path.is_file():
            raise ConfigError(f"file not found: {path}", path="observations.file")
        with _at("observations.file"):
            sample = artifacts.read_points_csv(path)
        if sample.shape[1] != preset.kernel.dim_y:
            raise ConfigError(f"observations have dimension {sample.shape[1]}, kernel "
                              f"expects {preset.kernel.dim_y}", path="observations")
        n, draw, key = len(sample), lambda _: (sample, None), "observations.file"
    elif preset.sample_observations is None:
        raise ConfigError("inline problems need observations from a file",
                          path="observations.file")
    else:
        n, key = obs.get("n_samples", preset.n_observations), "observations.n_samples"
        fixed = _seed(obs["seed"], "observations.seed") if "seed" in obs else None

        def draw(replicate_seed):
            seed = _rng.derive_seed(replicate_seed, 11) if fixed is None else fixed
            with _allocated("observations.n_samples", n):
                return preset.sample_observations(n, seed), seed
    # the reconvolution ISE scores against a KDE of the observations, which needs two
    least = 2 if "reconvolution_ise" in metrics else 1
    if n < least:
        raise ConfigError(f"{n} observations, at least {least} needed", path=key)
    if "file" in obs and "reconvolution_ise" in metrics:   # and a file's KDE must be defined
        with _at(key):
            GaussianKde(sample)
    if solver is not None and solver.minibatch is not None and solver.minibatch > n:
        raise ConfigError("minibatch exceeds the observation count", path="solver.minibatch")
    return draw


def _inline_problem(cfg: dict) -> ExperimentPreset:
    """The inline ``problem`` as a preset with no truth and no sampler: its
    reference is fixed, or the ``from_sample`` rule applied to the observations."""
    problem = cfg["problem"]
    fields = _section(problem.get("kernel"), "problem.kernel", ("type", _KERNELS))
    with _at("problem.kernel"):
        kernel = _KERNEL_TYPES[fields.pop("type")](**fields)
    fields = _section(problem.get("reference"), "problem.reference", ("kind", _REFERENCES))
    kind = fields.pop("kind")
    with _at("problem.reference"):
        ref = None if kind == "from_sample" else getattr(ReferenceMeasure, kind)(**fields)
    if ref is not None and ref.dim != kernel.dim_x:
        raise ConfigError(f"reference has dimension {ref.dim}, kernel expects {kernel.dim_x}",
                          path="problem.reference")
    rule = (lambda obs: ReferenceMeasure.from_sample(obs, **fields)) if ref is None else \
        (lambda _obs: ref)
    return ExperimentPreset("inline", kernel, _INLINE_SOLVER, rule, init_shift=None,
                            default_metrics=())


def compute_metrics(preset, cloud, observations, names, seed, grid_kde=None):
    """(metric, value) rows of a fitted cloud; ``grid_kde`` is its metric-grid KDE if known."""
    rows = []
    for name in names:
        if name == "ise":
            grid = preset.metric_grid
            est = grid_kde if grid_kde is not None else GaussianKde(cloud).on_grid(grid)
            rows.append((name, ise(grid, est, grid.map_nodes(preset.truth_pdf))))
        elif name == "w1_marginal1":
            truth = preset.sample_truth(len(cloud), _rng.derive_seed(seed, 7))
            rows.append((name, wasserstein1_1d(cloud[:, 0], truth[:, 0])))
        else:  # reconvolution_ise
            grid = preset.observation_grid or preset.metric_grid
            observed = GaussianKde(observations).on_grid(grid)
            rows.append((name, ise(grid, reconvolve(cloud, preset.kernel, grid), observed)))
    return rows


def _starts_at_one_point(cfg: dict, mode: str, draw) -> bool:
    """Whether every particle starts at one point: a point initialization, or
    one from an observation file whose rows are all equal."""
    if mode == "point":
        return True
    if mode != "observations" or "file" not in cfg.get("observations", {}):
        return False
    points = draw(None)[0]
    return bool((points == points[0]).all())


def _check_out(out: Path) -> None:
    """A config error at ``--out`` unless its nearest existing ancestor is a directory,
    so that the artifacts' directories can be made; the check itself makes none."""
    ancestor = next(path for path in (out, *out.parents) if path.exists())
    if not ancestor.is_dir():
        raise ConfigError(f"{ancestor} is not a directory", path="--out")


def _write(path: Path, writer, *args) -> None:
    """``writer(path, *args)`` once ``path``'s directory is made; an error of the file
    system (a full disk, say) is a config error at ``--out``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(path, *args)
    except OSError as err:
        raise ConfigError(f"cannot write the artifacts: {err}", path="--out") from err


def cmd_run(cfg: dict, out: Path, workers: int, seed_override: int | None) -> dict:
    if "problem" in cfg and "preset" in cfg:
        raise ConfigError("give either a preset or an inline problem, not both",
                          path="preset")
    preset = _inline_problem(cfg) if "problem" in cfg else _preset(cfg)
    with _at("solver"):
        solver = dataclasses.replace(preset.solver, **cfg.get("solver", {}))
    replicates = cfg.get("replicates", 1)
    if not 1 <= replicates <= MAX_REPLICATES:
        raise ConfigError(f"{replicates} is not in [1, {MAX_REPLICATES}]", path="replicates")
    seed_key = ("--seed" if seed_override is not None
                else "seed_base" if "seed_base" in cfg else "solver.seed")
    seed_base = _seed(seed_override if seed_override is not None
                      else cfg.get("seed_base", solver.seed), seed_key, replicates)
    metric_names = _metric_names(cfg, preset)
    init = cfg.get("init", {})
    write_kde = cfg.get("kde_grid", True) and preset.metric_grid is not None and preset.dim <= 2
    draw = _observations(cfg, preset, solver, metric_names)
    # without noise, particles that start at one point stay there
    if (write_kde or "ise" in metric_names) and solver.alpha == 0 \
            and _starts_at_one_point(cfg, preset.init_mode(init.get("mode", "auto")), draw):
        raise ConfigError("0 leaves an initialization at one point there, which has no "
                          "KDE for kde_grid or ise", path="solver.alpha")

    def replicate(r):   # every config error comes before the solve and any output
        seed = seed_base + r
        observations, obs_seed = draw(seed)
        with _at("observations"):   # a reference may be the sample's moments
            ref = preset.make_reference(observations)
        if ref.kind == "flat" and solver.alpha > 0:
            raise ConfigError("a flat reference cannot carry a positive penalty weight",
                              path="solver.alpha")
        config = dataclasses.replace(solver, seed=seed)
        with _at_init(init), _allocated("solver.n_particles", config.n_particles):
            start = build_initial_cloud(preset, config, observations, ref, **init)
        cloud, trace = run_solver(config, preset.kernel, ref, start, observations)
        # noise below a point start's float spacing leaves the cloud there, and noise
        # beyond the float range spreads it past a bandwidth: neither has a KDE
        with _at("solver"):
            grid_kde = GaussianKde(cloud).on_grid(preset.metric_grid) \
                if write_kde or "ise" in metric_names else None
        rep_dir = out / f"rep{r:03d}"
        _write(rep_dir / "trace.csv", artifacts.write_trace_csv, trace)
        _write(rep_dir / "cloud_final.csv", artifacts.write_cloud_csv, cloud)
        if write_kde:
            _write(rep_dir / "kde_grid.csv", artifacts.write_density_csv, preset.metric_grid,
                   grid_kde)
        rows = [(preset.name, "particle_flow", solver.n_particles, len(observations), seed,
                 metric, value) for metric, value in
                compute_metrics(preset, cloud, observations, metric_names, seed, grid_kde)]
        return rows, len(observations), obs_seed

    rows, n_samples, obs_seeds = zip(*map_jobs(replicate, range(replicates), workers))
    _write(out / "metrics.csv", artifacts.write_metrics_csv, [row for rep in rows for row in rep])
    return {"seed_base": seed_base, "resolved": {
        "solver": dataclasses.asdict(dataclasses.replace(solver, seed=seed_base)),
        "minibatch": solver.batch_size(n_samples[0]),
        "init": dict(init, mode=preset.init_mode(init.get("mode", "auto"))),
        "metrics": metric_names, "seeds": [seed_base + r for r in range(replicates)],
        "observations": {"n_samples": n_samples[0], "seeds": list(obs_seeds)}}}


def cmd_cv(cfg: dict, out: Path, workers: int, seed_override: int | None) -> dict:
    from . import crossval

    preset = _preset(cfg)
    with _at("solver"):
        solver = dataclasses.replace(preset.solver, **cfg.get("solver", {}))
    _seed(solver.seed, "solver.seed")   # the initial cloud built below takes it
    cv = cfg.get("cv", {})
    seed = seed_override if seed_override is not None else _seed(cv.get("seed", 0), "cv.seed")
    with _at("cv"):
        plan = crossval.CvPlan(**{"n_folds" if key == "folds" else key: value
                                  for key, value in cv.items()} | {"seed": seed})
    init = cfg.get("init", {})
    observations, _ = _observations(cfg, preset, solver)(plan.seed)
    if plan.n_folds > len(observations):
        raise ConfigError(f"{plan.n_folds} folds need at least as many observations, "
                          f"got {len(observations)}", path="cv.folds")
    # as every cell builds it
    with _at_init(init), _allocated("solver.n_particles", solver.n_particles):
        build_initial_cloud(preset, solver, observations, preset.make_reference(observations),
                            **init)
    folds = crossval.make_folds(len(observations), plan.n_folds, plan.seed)
    with _at("solver"):   # a cell's cloud may have no KDE for its score, as in run
        result = crossval.cv_score(plan, preset, observations, solver, workers=workers,
                                   folds=folds, init=init)
    _write(out / "cv_table.csv", artifacts.write_cv_csv, result)
    print(f"selected alpha: {artifacts.fmt(result.selected_alpha())}")
    return {"seed_base": plan.seed, "resolved": {
        "solver": dataclasses.asdict(solver), "cv": dataclasses.asdict(plan),
        "minibatch": [solver.batch_size(len(observations) - len(fold))
                      for fold in folds]}}


def cmd_baseline(cfg: dict, out: Path, workers: int, seed_override: int | None) -> dict:
    from . import baselines

    if cfg["baseline"] == "toy":
        sigma_pi_sq = cfg.get("sigma_pi_sq", TOY_SIGMA_PI_SQ)
        sigma_k_sq = cfg.get("sigma_k_sq", TOY_SIGMA_K_SQ)
        with _at(""):   # the messages name the key
            sigma0_sq = cfg.get("sigma0_sq", 0.0) \
                or baselines.resolve_toy_sigma0_sq(0.44, 1.0, sigma_pi_sq, sigma_k_sq)
            spec = baselines.ToyGaussianSpec(sigma_pi_sq, sigma_k_sq, sigma0_sq, alpha=1.0)
        with _at("alpha_grid"):
            rows = baselines.toy_sweep(spec, cfg.get("alpha_grid", [0.0, 0.5, 1.0]))
        _write(out / "toy_sweep.csv", artifacts.write_toy_sweep_csv, rows)
        for alpha, beta, value in rows:
            print(f"alpha={artifacts.fmt(alpha)} beta={artifacts.fmt(beta)} "
                  f"objective={artifacts.fmt(value)}")
        return {"seed_base": 0, "sigma0_sq_resolved": spec.sigma0_sq}
    preset = _preset(cfg)
    if preset.observed_pdf is None or preset.dim != 1:
        raise ConfigError("grid EM baseline needs a 1-D preset with a closed-form "
                          "observed density", path="preset")
    alpha, n_bins = cfg.get("alpha", preset.solver.alpha), cfg.get("n_bins", 100)
    if alpha < 0:
        raise ConfigError(f"{alpha} must be nonnegative", path="alpha")
    if n_bins < 1:
        raise ConfigError(f"{n_bins} bins, at least 1 needed", path="n_bins")
    lo, hi = cfg.get("lo", 0.0), cfg.get("hi", 1.0)
    # a bin range that is empty, or where the reference vanishes, is reported at
    # the bound farther from its default
    bound = "lo" if abs(lo) >= abs(hi - 1.0) else "hi"
    observations, _ = _observations(cfg, preset)(
        seed_override if seed_override is not None else 0)
    with _at("observations"):   # a reference may be the sample's moments
        ref = preset.make_reference(observations)
    with _at(bound), _allocated("n_bins", n_bins):
        problem = baselines.grid_problem_from_continuous(preset.kernel, preset.observed_pdf,
                                                         ref, n_bins, lo, hi)
    with _at("iterations"):
        state = baselines.oslem_solve(problem, alpha, cfg.get("iterations", 500))
    _write(out / "grid_state.csv", artifacts.write_grid_state_csv, problem.bin_centers, state)
    print(f"objective: {artifacts.fmt(baselines.discrete_objective(state, problem, alpha))}")
    return {"seed_base": 0}


def cmd_metrics(cfg: dict, out: Path, workers: int, seed_override: int | None) -> dict:
    preset = _preset(cfg)
    cloud_paths = cfg.get("clouds")
    if not cloud_paths:
        raise ConfigError("give the stored cloud CSVs as a list", path="clouds")
    missing = [p for p in cloud_paths if not Path(p).is_file()]
    if missing:
        raise ConfigError(f"cloud files not found: {missing}", path="clouds")
    names = _metric_names(cfg, preset)
    clouds = []
    for path in cloud_paths:
        with _at("clouds"):
            clouds.append(artifacts.read_points_csv(path))
        if clouds[-1].shape[1] != preset.dim:
            raise ConfigError(f"{path} has dimension {clouds[-1].shape[1]}, the preset "
                              f"{preset.dim}", path="clouds")
        if "ise" in names:   # the ISE scores the cloud's KDE
            try:
                GaussianKde(clouds[-1])
            except ValueError as err:
                raise ConfigError(f"{path}: {err}", path="clouds") from err
    seed = seed_override if seed_override is not None else _seed(cfg.get("seed", 0), "seed")
    observations = _observations(cfg, preset, metrics=names)(seed)[0] \
        if "reconvolution_ise" in names or "observations" in cfg else None
    n_observations = len(observations) if observations is not None else 0
    rows = [(preset.name, "stored_cloud", len(cloud), n_observations, seed, metric, value)
            for i, cloud in enumerate(clouds)
            for metric, value in compute_metrics(preset, cloud, observations, names,
                                                 _rng.derive_seed(seed, i))]
    _write(out / "metrics.csv", artifacts.write_metrics_csv, rows)
    return {"seed_base": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fredholm-flow",
                                     description="particle solver for Fredholm "
                                                 "integral equations of the first kind")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "cv", "baseline", "metrics"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", type=Path, default="out", help="output directory")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's base seed")
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "cv": cmd_cv, "baseline": cmd_baseline,
                "metrics": cmd_metrics}
    try:
        if args.seed is not None:
            _seed(args.seed, "--seed")
        if args.workers < 1:
            raise ConfigError(f"{args.workers} must be at least 1", path="--workers")
        _check_out(args.out)
        cfg = _load_config(args.config)
        echo = handlers[args.command](_section(cfg, "", _TOP[args.command]), args.out,
                                      args.workers, args.seed)
        _write(args.out / "config_resolved.json", artifacts.write_resolved_config, {
            "command": args.command, "config": cfg, "version": __version__, **echo})
        return 0
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
