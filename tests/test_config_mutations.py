"""No config reaches a traceback: one key of a preset's valid ``run`` or ``cv``
config is mutated, and the CLI exits 0, 2 or 3, with exit 2 at that key or
at the section that owns it."""
import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fredholm_flow import cli, crossval
from fredholm_flow.cli import main
from fredholm_flow.problems import get_preset

SOLVER = {"n_particles": 20, "n_steps": 2, "minibatch": 20, "alpha": 0.01, "gamma": 0.001,
          "eta": 0.0, "seed": 1, "stop_tol": 1e-3, "stop_window": 2}
PRESETS = {"gaussian_mixture_1d": ({}, {"mode": "point", "point": [0.4]}),
           "toy_gaussian": ({}, {"mode": "auto"}),
           "highdim_mixture": ({"dim": 2}, {"mode": "uniform", "box": [[0, 1], [0, 1]]}),
           "epidemiology_synthetic": ({"misspecified": False}, {"mode": "auto"}),
           "ct_phantom": ({}, {"mode": "observations"})}
# sizes above these raise MemoryError in place of a real allocation
MOST_OBSERVATIONS = MOST_PARTICLES = MOST_DIMENSIONS = 10**6
MOST_STEPS = 2


def valid_config(command, preset):
    options, init = PRESETS[preset]
    cfg = {"preset": preset, "preset_options": options,
           "observations": {"n_samples": 60, "seed": 3}, "solver": SOLVER, "init": init}
    if command == "run":
        return dict(cfg, metrics=[], replicates=2, seed_base=4, kde_grid=True)
    return dict(cfg, cv={"alpha_grid": [0.01, 0.1], "folds": 2, "seed": 5,
                         "score": "penalized"})


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
    "huge size": st.just(10**13),
    "empty list": st.just([]),
}


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(["run", "cv"]))
    cfg = json.loads(json.dumps(valid_config(command, draw(st.sampled_from(sorted(PRESETS))))))
    path = draw(st.sampled_from(sorted(key_paths(cfg))))
    *sections, key = path
    owner = cfg
    for section in sections:
        owner = owner[section]
    mutation = draw(st.sampled_from(sorted(MUTATIONS) + ["unknown key"]))
    if mutation == "unknown key":
        path = (*sections, "no_such_key")
        owner["no_such_key"] = 1
    elif mutation == "huge size" and key == "replicates":
        # 10**13 replicates are valid work, not bad input
        owner[key] = 10**30
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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_configs())
def test_a_mutated_config_exits_0_2_or_3_at_its_key(case):
    command, cfg, key = case
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(cli, "get_preset", capped_presets)
        for module in (cli, crossval):
            patch.setattr(module, "build_initial_cloud", capped_cloud(module.build_initial_cloud))
        patch.setattr(cli, "run_solver", capped_steps(cli.run_solver))
        patch.setattr(crossval, "run", capped_steps(crossval.run))
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    err = stderr.getvalue()
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        named = re.match(r"config error: ([\w.]*)", err)
        assert named, err
        # the key, an element of it, or the section that owns it
        assert key == named[1] or key.startswith(named[1] + ".") \
            or named[1].startswith(key + "."), (key, err)
