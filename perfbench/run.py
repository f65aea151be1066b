"""Benchmark of fredholm-flow: preset runs through the real CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload ct_phantom --seed 1 --seconds 40 --trace 0

Each repetition is one `fredholm-flow run` (`fredholm_flow.cli.main`) in a
fresh process started by `worker.py`.  Repetition 0 always runs on the
recorded seed and its outputs must match `reference.json`; the others run on
seeds made from `--seed`.  Repetitions continue while `--seconds` allows, and
at least `MIN_REPS` are made.

`--trace 0` prints the end-to-end metrics: medians over repetitions of wall
time and peak RSS, and of set-up time over the repetitions and set-up-only
launches (at least `MIN_SETUPS` in all).  It also prints `failed_frac`,
`g_final` and every accuracy metric of the workload; these are guarded by the
check against `reference.json`, not by a bound.  `--trace 1` alternates
untraced and traced repetitions of the same seeds and prints the per-layer
metrics (see `layers.py`).  Every repetition's outputs are checked; a
replicate fails on a non-zero exit, a missing artifact or a failed check, and
is counted in `failed`, as is a failed set-up-only launch.  The last line of
standard output is the JSON result.

`--record-reference` reruns repetition 0 of every workload and rewrites
`reference.json`; only a change that is meant to alter the numerics may do so.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RECORDED_SEED = 2209
MIN_REPS = 2
# set-up is short and noisy: the median is taken over at least this many launches
MIN_SETUPS = 5
# a run must end within 180 s even when a repetition hangs
RUN_TIMEOUT_S = 170
# numerics rewrites at the 1e-11 level move these outputs far less than this
RTOL = 1e-8
ACCURACY_UNITS = {"g_final": "nat", "w1_marginal1": "coord", "ise": "1/coord^d",
                  "reconvolution_ise": "1/obs^d"}

# Step counts are cut from the presets' defaults so that one repetition takes
# 4-20 s on a 2-core box; everything else is the preset's own size.
WORKLOADS = {
    # heaviest step; the only 2-D grid readout (161^2 nodes, KDE evaluated
    # for kde_grid.csv and again for the ISE).  16 steps keep the step loop
    # above half of wall_s, so drift and monitor changes show next to the
    # readout's fixed cost.
    "ct_phantom": {
        "config": {"preset": "ct_phantom", "solver": {"n_steps": 16}, "replicates": 1,
                   "kde_grid": True},
        "workers": 1,
        "metrics": ("ise", "w1_marginal1"),
        "artifacts": ("trace.csv", "cloud_final.csv", "kde_grid.csv"),
    },
    # dominated by the (N, m, d) gradient tensor; no grid readout
    "highdim_d10": {
        "config": {"preset": "highdim_mixture", "preset_options": {"dim": 10},
                   "solver": {"n_steps": 10}, "replicates": 1,
                   "metrics": ["w1_marginal1"], "kde_grid": False},
        "workers": 1,
        "metrics": ("w1_marginal1",),
        "artifacts": ("trace.csv", "cloud_final.csv"),
    },
    # delay kernel and reconvolution; smallest steps, two solver threads
    "epi_workers2": {
        "config": {"preset": "epidemiology_synthetic", "solver": {"n_steps": 60},
                   "replicates": 4,
                   "metrics": ["ise", "reconvolution_ise", "w1_marginal1"]},
        "workers": 2,
        "metrics": ("ise", "reconvolution_ise", "w1_marginal1"),
        "artifacts": ("trace.csv", "cloud_final.csv", "kde_grid.csv"),
    },
}


def declared_metrics(trace: bool) -> dict:
    """{metric: unit} of BENCHMARK.json for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def rep_seed(seed: int, index: int) -> int:
    # replicates r of a repetition run on rep_seed + r, so space them apart
    return RECORDED_SEED if index == 0 else 1000 * seed + 10 * index


# -- one repetition ------------------------------------------------------------

def launch(name: str, seed: int, index: int, timeout: float, *flags: str):
    """Start worker.py for repetition `index`; (exit code or "timeout", elapsed s)."""
    wl = WORKLOADS[name]
    work = WORK / name
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(work / "config.json"),
           "--out", str(work / f"out{index}"), "--workers", str(wl["workers"]),
           "--seed", str(seed), "--result", str(work / f"rep{index}.json"), *flags]
    started = time.monotonic()
    with open(work / f"rep{index}.log", "w") as log:
        try:
            proc = subprocess.run(cmd + ["--launched", repr(time.monotonic())],
                                  stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(timeout, 1.0), check=False)
            exit_code = proc.returncode
        except subprocess.TimeoutExpired:
            exit_code = "timeout"
    return exit_code, time.monotonic() - started


def run_rep(name: str, seed: int, index: int, traced: bool, timeout: float,
            compare: bool = True) -> dict:
    wl = WORKLOADS[name]
    work = WORK / name
    out, result = work / f"out{index}", work / f"rep{index}.json"
    flags = ["--spans", str(work / f"rep{index}.spans.jsonl")] if traced else []
    rep = {"index": index, "seed": seed, "traced": traced, "failures": []}
    exit_code, rep["elapsed_s"] = launch(name, seed, index, timeout, *flags)
    replicates = range(wl["config"]["replicates"])
    if exit_code != 0 or not result.is_file():
        tail = (work / f"rep{index}.log").read_text()[-2000:]
        rep["failures"] = [(r, f"worker exit {exit_code}: {tail}") for r in replicates]
        return rep
    rep.update(json.loads(result.read_text()))
    if rep["rc"] != 0:
        rep["failures"] = [(r, f"fredholm-flow run exited {rep['rc']}") for r in replicates]
        return rep
    rep["metrics_csv"] = (out / "metrics.csv").read_text() \
        if (out / "metrics.csv").is_file() else ""
    rep["values"], rep["failures"] = check_outputs(name, out, seed)
    if compare and seed == RECORDED_SEED:
        rep["failures"] += compare_reference(name, rep["values"])
    shutil.rmtree(out)
    return rep


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_outputs(name: str, out: Path, seed: int):
    """Per-replicate {metric: value} with `g_final`, and (replicate, reason) failures."""
    wl = WORKLOADS[name]
    replicates = range(wl["config"]["replicates"])
    steps = wl["config"]["solver"]["n_steps"]
    values = {r: {} for r in replicates}
    failures = []
    for top in ("metrics.csv", "config_resolved.json"):
        if not (out / top).is_file():
            return values, [(r, f"missing {top}") for r in replicates]
    with open(out / "metrics.csv") as fh:
        for row in csv.DictReader(fh):
            r = int(row["seed"]) - seed
            if r in values and _finite(row["value"]):
                values[r][row["metric"]] = float(row["value"])
            else:
                failures.append((r, f"bad metrics.csv row {row}"))
    for r in replicates:
        rep_dir = out / f"rep{r:03d}"
        missing = [a for a in wl["artifacts"] if not (rep_dir / a).is_file()]
        if missing:
            failures.append((r, f"missing {missing}"))
            continue
        with open(rep_dir / "trace.csv") as fh:
            g = [row["g_hat"] for row in csv.DictReader(fh)]
        if len(g) != steps + 1 or not all(map(_finite, g)):
            failures.append((r, f"trace.csv has {len(g)} rows (want {steps + 1}) "
                                "or a non-finite g_hat"))
            continue
        values[r]["g_final"] = float(g[-1])
        absent = [m for m in wl["metrics"] if m not in values[r]]
        if absent:
            failures.append((r, f"metrics {absent} missing or not finite"))
    return values, failures


def compare_reference(name: str, values: dict) -> list:
    path = HERE / "reference.json"
    recorded = json.loads(path.read_text()).get(name) if path.is_file() else None
    if recorded is None or recorded["config"] != WORKLOADS[name]["config"]:
        return [(0, f"no reference recorded for this {name} config; run --record-reference")]
    failures = []
    for r, ref in recorded["values"].items():
        got = values.get(int(r), {})
        for metric, want in ref.items():
            have = got.get(metric)
            if have is None or abs(have - want) > RTOL * abs(want):
                failures.append((int(r), f"{metric} = {have}, recorded {want!r}"))
    return failures


# -- a run -----------------------------------------------------------------------

def prepare(name: str) -> None:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(WORKLOADS[name]["config"]))


def repetitions(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Untraced: rep 0 on the recorded seed, then new seeds while time allows.
    Traced: rep 0 untraced and reps 1, 2 traced on the recorded seed, then
    (untraced, traced) pairs on new seeds."""
    start = time.monotonic()
    reps = []
    if trace:
        plan = [(RECORDED_SEED, False), (RECORDED_SEED, True), (RECORDED_SEED, True)]
    else:
        plan = [(RECORDED_SEED, False)]
    index = 0
    while True:
        for s, traced in plan:
            reps.append(run_rep(name, s, index, traced,
                                timeout=start + RUN_TIMEOUT_S - time.monotonic()))
            index += 1
        longest = max(r["elapsed_s"] for r in reps)
        step = len(plan) if not trace else 2
        if len(reps) >= MIN_REPS and \
                time.monotonic() - start + step * longest > seconds:
            return reps
        s = rep_seed(seed, index)
        plan = [(s, False), (s, True)] if trace else [(s, False)]


def extra_setups(name: str, reps: list[dict], deadline: float) -> list:
    """Set-up-only launches until the run has MIN_SETUPS set-up times; each
    gives its setup_s, or None when it failed."""
    setups = []
    for index in range(len(reps), MIN_SETUPS):
        exit_code, _ = launch(name, RECORDED_SEED, index, deadline - time.monotonic(),
                              "--setup-only")
        result = WORK / name / f"rep{index}.json"
        ok = exit_code == 0 and result.is_file()
        setups.append(json.loads(result.read_text())["setup_s"] if ok else None)
        if not ok:
            print(f"FAILED {name} set-up launch {index}: worker exit {exit_code}",
                  file=sys.stderr)
    return setups


def end_to_end(reps: list[dict], setups: list) -> dict:
    """Medians over repetitions; setup_s also over the set-up-only launches."""
    metrics = {key: statistics.median(r[key] for r in reps) for key in ("wall_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median([r["setup_s"] for r in reps] + setups)
    return metrics


def check_tracing(name: str, reps: list[dict]) -> None:
    """Tracing must not change outputs, and its counts must repeat exactly."""
    replicates = range(WORKLOADS[name]["config"]["replicates"])
    untraced = {r["seed"]: r.get("metrics_csv") for r in reps if not r["traced"]}
    baseline = None
    for r in reps:
        if not r["traced"] or r["failures"]:
            continue
        if r["metrics_csv"] != untraced.get(r["seed"]):
            r["failures"] += [(i, "traced metrics.csv differs from untraced") for i in replicates]
        if r["seed"] == RECORDED_SEED:
            baseline = baseline or _counts(r["trace"])
            if _counts(r["trace"]) != baseline:
                r["failures"] += [(i, "exact counts differ between traced runs of one seed")
                                  for i in replicates]


def _counts(summary: dict) -> dict:
    counts = {k: v for k, v in summary.items() if k in ("steps", "rows", "threads")}
    for key, group in summary["groups"].items():
        counts[key] = {f: v for f, v in group.items() if f != "self_s"}
    return counts


def report_accuracy(name: str, reps: list[dict]) -> None:
    """Every accuracy value, by metric: the replicate mean on the recorded seed
    (the value checked against reference.json) and over all seeds of the run."""
    for metric in sorted({m for r in reps for v in r["values"].values() for m in v}):
        vals = [v[metric] for r in reps for v in r["values"].values() if metric in v]
        recorded = [v[metric] for v in reps[0]["values"].values()]
        unit = ACCURACY_UNITS[metric]
        print(f"{name} {metric}: {statistics.fmean(recorded)!r} {unit} on the recorded seed, "
              f"{statistics.fmean(vals)!r} {unit} over {len(vals)} replicates "
              f"of {len(reps)} seeds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fredholm_flow" / "__init__.py").is_file():
        print(f"no fredholm_flow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    from layers import accounting, layer_metrics

    name, wl = args.workload, WORKLOADS[args.workload]
    units = declared_metrics(bool(args.trace))
    started = time.monotonic()
    prepare(name)
    reps = repetitions(name, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        check_tracing(name, reps)

    for r in reps:
        print(f"{name} rep {r['index']} seed {r['seed']} "
              f"{'traced' if r['traced'] else 'untraced'}: "
              + (f"setup {r['setup_s']:.3f} s, wall {r['wall_s']:.3f} s, "
                 f"peak RSS {r['peak_rss_mb']:.1f} MB, " if "wall_s" in r else "")
              + ("FAILED" if r["failures"] else "ok"))
        for replicate, reason in r["failures"]:
            print(f"FAILED {name} rep {r['index']} (seed {r['seed']}) replicate {replicate}: "
                  f"{reason}", file=sys.stderr)
    attempted = len(reps) * wl["config"]["replicates"]
    failed = len({(r["index"], replicate) for r in reps for replicate, _ in r["failures"]})
    print(f"{name} failed_frac: {failed / attempted!r} ratio ({failed} of {attempted} replicates)")
    setups = [] if args.trace else extra_setups(name, reps, started + RUN_TIMEOUT_S)
    attempted += len(setups)
    failed += setups.count(None)
    correct = failed == 0
    metrics = {}
    if correct and args.trace:
        traced = [r["trace"] for r in reps if r["traced"]]
        metrics = layer_metrics(traced, [r["wall_s"] for r in reps if not r["traced"]],
                                wl["workers"])
        for group, seconds in accounting(traced):
            print(f"{name} self time {group}: {seconds!r} s/run")
        if traced[0]["absent"]:
            print(f"{name} absent callables: {traced[0]['absent']}")
    elif correct:
        metrics = end_to_end(reps, setups)
        report_accuracy(name, reps)
    if correct:
        if set(metrics) != set(units):
            print(f"measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}",
                  file=sys.stderr)
            return 1
        metrics = {m: {"value": metrics[m], "unit": units[m]} for m in units}
        for m, v in metrics.items():
            print(f"{name} {m}: {v['value']!r} {v['unit']}")
    print("machine: " + json.dumps(next((r["facts"] for r in reps if "facts" in r), {}),
                                   sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def record_reference() -> int:
    recorded = {}
    for name, wl in WORKLOADS.items():
        prepare(name)
        rep = run_rep(name, RECORDED_SEED, 0, False, RUN_TIMEOUT_S, compare=False)
        if rep["failures"]:
            print(f"{name}: {rep['failures']}", file=sys.stderr)
            return 1
        recorded[name] = {"config": wl["config"], "seed": RECORDED_SEED,
                          "values": {str(r): v for r, v in rep["values"].items()}}
        print(f"{name}: {recorded[name]['values']}")
    (HERE / "reference.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
