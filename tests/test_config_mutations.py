"""No config reaches a traceback: one key of a preset's valid ``run``, ``cv``,
``metrics`` or ``baseline`` config is mutated, and the CLI exits 0, 2 or 3,
with exit 2 at that key, at the section that owns it, or at a key that is
checked against it."""
import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fredholm_flow import ParticleCloud, artifacts, baselines, cli, crossval
from fredholm_flow.cli import main
from fredholm_flow.problems import TOY_SIGMA_K_SQ, TOY_SIGMA_PI_SQ, get_preset

SOLVER = {"n_particles": 20, "n_steps": 2, "minibatch": 20, "alpha": 0.01, "gamma": 0.001,
          "eta": 0.0, "seed": 1, "stop_tol": 1e-3, "stop_window": 2}
PRESETS = {"gaussian_mixture_1d": ({}, {"mode": "point", "point": [0.4]}),
           "toy_gaussian": ({}, {"mode": "auto"}),
           "highdim_mixture": ({"dim": 2}, {"mode": "uniform", "box": [[0, 1], [0, 1]]}),
           "epidemiology_synthetic": ({"misspecified": False}, {"mode": "auto"}),
           "ct_phantom": ({}, {"mode": "observations"})}
# the 1-D presets with a closed-form observed density, which the grid EM baseline needs
OSLEM_PRESETS = {"gaussian_mixture_1d": {}, "toy_gaussian": {}, "highdim_mixture": {"dim": 1}}
OBSERVATIONS = {"n_samples": 60, "seed": 3}
# key -> the keys checked against its value, where a mutation of it may be reported
DEPENDENTS = {"observations.n_samples": ("solver.minibatch",),
              "preset_options.dim": ("init.box", "clouds")}
# sizes above these raise MemoryError in place of a real allocation
MOST_OBSERVATIONS = MOST_PARTICLES = MOST_DIMENSIONS = MOST_BINS = 10**6
MOST_STEPS = MOST_ITERATIONS = 2


def cloud_file(dim):
    """A stored cloud of dimension ``dim``, relative to the ``clouds`` directory."""
    return f"cloud_d{dim}.csv"


def valid_configs():
    """(command, config) of every valid config that a mutation starts from."""
    configs = []
    for preset, (options, init) in PRESETS.items():
        common = {"preset": preset, "preset_options": options, "observations": OBSERVATIONS}
        solved = dict(common, solver=SOLVER, init=init)
        configs += [
            ("run", dict(solved, metrics=[], replicates=2, seed_base=4, kde_grid=True)),
            ("cv", dict(solved, cv={"alpha_grid": [0.01, 0.1], "folds": 2, "seed": 5,
                                    "score": "penalized"})),
            ("metrics", dict(common, clouds=[cloud_file(get_preset(preset, **options).dim)],
                             metrics=list(cli._METRIC_NAMES), seed=6))]
    toy = {"baseline": "toy", "sigma_pi_sq": TOY_SIGMA_PI_SQ, "sigma_k_sq": TOY_SIGMA_K_SQ,
           "alpha_grid": [0.0, 0.5, 1.0]}
    configs += [("baseline", toy), ("baseline", dict(toy, sigma0_sq=0.5))]   # σ₀² resolved, given
    configs += [("baseline", {"baseline": "oslem", "preset": preset, "preset_options": options,
                              "observations": OBSERVATIONS, "n_bins": 20, "alpha": 0.01,
                              "iterations": 5, "lo": 0.0, "hi": 1.0})
                for preset, options in OSLEM_PRESETS.items()]
    return configs


VALID = valid_configs()


def key_paths(cfg, prefix=()):
    """Every key of ``cfg``, sections and their keys, as tuples."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


MUTATIONS = {
    "wrong type": st.sampled_from(["text", {"key": 1}, True, [[]], 0.5, None]),
    "nan": st.just(float("nan")),
    "inf": st.sampled_from([float("inf"), float("-inf")]),
    "zero": st.sampled_from([0, 0.0]),
    "negative": st.sampled_from([-1, -0.5, -(2**63)]),
    "beyond the index range": st.sampled_from([2**63, 2**64, 10**30]),
    "size": st.sampled_from([1, 10**13]),
    "empty list": st.just([]),
}


@st.composite
def mutated_configs(draw):
    command, cfg = draw(st.sampled_from(VALID))
    cfg = json.loads(json.dumps(cfg))
    path = draw(st.sampled_from(sorted(key_paths(cfg))))
    *sections, key = path
    owner = cfg
    for section in sections:
        owner = owner[section]
    mutation = draw(st.sampled_from(sorted(MUTATIONS) + ["unknown key"]))
    if mutation == "unknown key":
        path = (*sections, "no_such_key")
        owner["no_such_key"] = 1
    else:
        owner[key] = draw(MUTATIONS[mutation])
    return command, cfg, ".".join(path)


def capped_presets(name, **options):
    if options.get("dim", 1) > MOST_DIMENSIONS:
        raise MemoryError(f"Unable to allocate {options['dim']} dimensions")
    preset = get_preset(name, **options)

    def sample(n, seed):
        if n > MOST_OBSERVATIONS:
            raise MemoryError(f"Unable to allocate {n} observations")
        return preset.sample_observations(n, seed)

    return dataclasses.replace(preset, sample_observations=sample)


def capped_cloud(build):
    def cloud(preset, config, *args, **kwargs):
        if config.n_particles > MOST_PARTICLES:
            raise MemoryError(f"Unable to allocate {config.n_particles} particles")
        return build(preset, config, *args, **kwargs)
    return cloud


def capped_steps(solve):
    def run(config, *args, **kwargs):
        return solve(dataclasses.replace(config, n_steps=min(config.n_steps, MOST_STEPS)),
                     *args, **kwargs)
    return run


def capped_bins(discretize):
    def problem(kernel, observed_pdf, ref, n_bins, *args):
        if n_bins > MOST_BINS:
            raise MemoryError(f"Unable to allocate {n_bins} bins")
        return discretize(kernel, observed_pdf, ref, n_bins, *args)
    return problem


def capped_iterations(solve):
    def run(problem, alpha, n_iterations):
        return solve(problem, alpha, min(n_iterations, MOST_ITERATIONS))
    return run


@pytest.fixture(scope="module")
def clouds(tmp_path_factory):
    """The directory of the stored clouds that the ``metrics`` configs name."""
    root = tmp_path_factory.mktemp("clouds")
    gen = np.random.default_rng(7)
    for dim in (1, 2):
        artifacts.write_cloud_csv(root / cloud_file(dim),
                                  ParticleCloud(gen.uniform(size=(20, dim))))
    return root


def exit_of(command, cfg, clouds):
    """The CLI's exit code and stderr for ``cfg``, with every size capped and run
    from the ``clouds`` directory."""
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        patch.chdir(clouds)
        patch.setattr(cli, "get_preset", capped_presets)
        for module in (cli, crossval):
            patch.setattr(module, "build_initial_cloud", capped_cloud(module.build_initial_cloud))
        patch.setattr(cli, "run_solver", capped_steps(cli.run_solver))
        patch.setattr(crossval, "run", capped_steps(crossval.run))
        patch.setattr(baselines, "grid_problem_from_continuous",
                      capped_bins(baselines.grid_problem_from_continuous))
        patch.setattr(baselines, "oslem_solve", capped_iterations(baselines.oslem_solve))
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    return code, stderr.getvalue()


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_configs())
def test_a_mutated_config_exits_0_2_or_3_at_its_key(clouds, case):
    command, cfg, key = case
    code, err = exit_of(command, cfg, clouds)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        named = re.match(r"config error: ([\w.]*)", err)
        assert named, err
        # the key, an element of it, the section that owns it, or a key checked against it
        assert key == named[1] or key.startswith(named[1] + ".") \
            or named[1].startswith(key + ".") or named[1] in DEPENDENTS.get(key, ()), (key, err)
