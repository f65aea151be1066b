"""Per-layer metrics from the spans of traced runs.

A span's self time is its duration minus the durations of its child spans
(children run on the span's own thread, so they never overlap).  Spans are
grouped by name and scope: "solver" for spans inside `cli.run_solver`, "cli"
for the rest.  `cli.self_s` is the traced `run` call minus the union of all
top-level spans on any thread; so on one thread the self times of all groups
plus `cli.self_s` add up to the traced wall time (`trace.accounted_frac` = 1),
and with several solver threads they add up to the thread-seconds spent.

Per-step metrics of the step loop (kernel, minibatch, streams, reference,
tamed update, solver self time) are divided by the steps taken; those of the
monitor (KDE fit and evaluation, `g_hat`, trace append), which also runs on
the final state, by the recorded states (steps + 1 per solver run).
"""
from __future__ import annotations

import statistics

SOLVER = "cli.run_solver"


def summarize(tracer, start: float, end: float) -> dict:
    """Summary of one traced `run` call spanning [start, end] (perf_counter)."""
    spans = tracer.spans
    in_solver = []
    child_s = [0.0] * len(spans)
    for i, span in enumerate(spans):
        parent = span.parent
        in_solver.append(parent is not None
                         and (spans[parent].name == SOLVER or in_solver[parent]))
        if parent is not None:
            child_s[parent] += span.end - span.start
    groups: dict[str, dict] = {}
    for i, span in enumerate(spans):
        key = f"{span.name}|{'solver' if in_solver[i] else 'cli'}"
        group = groups.setdefault(key, {"self_s": 0.0, "calls": 0})
        group["self_s"] += span.end - span.start - child_s[i]
        group["calls"] += 1
        for name, value in span.counts.items():
            group[name] = group.get(name, 0) + value

    covered, reach = 0.0, start
    for lo, hi in sorted((max(s.start, start), min(s.end, end))
                         for s in spans if s.parent is None):
        if hi > reach:
            covered += hi - max(lo, reach)
            reach = hi
    step_ms = [1e3 * (b - a) for times in tracer.step_times
               for a, b in zip(times, times[1:])]
    return {
        "wall_s": end - start,
        "cli_self_s": (end - start) - covered,
        "solver_busy_s": sum(s.end - s.start for s in spans if s.name == SOLVER),
        "steps": sum(max(len(times) - 1, 0) for times in tracer.step_times),
        "rows": sum(len(times) for times in tracer.step_times),
        "step_ms": step_ms,
        "threads": len({s.thread for s in spans}),
        "groups": groups,
        "absent": tracer.absent,
    }


# metric -> (span name, scope, field, per: "steps" | "rows" | "run", scale)
_LAYER_METRICS = {
    "kernels.eval_and_grad1_ms_per_step":
        ("kernels.eval_and_grad1_matrix", "solver", "self_s", "steps", 1e3),
    "kernels.pairs_per_step": ("kernels.eval_and_grad1_matrix", "solver", "pairs", "steps", 1),
    "kernels.computed_mb_per_step":
        ("kernels.eval_and_grad1_matrix", "solver", "bytes", "steps", 1e-6),
    "kernels.eval_matrix_ms": ("kernels.eval_matrix", "*", "self_s", "run", 1e3),
    "solver.self_ms_per_step": (SOLVER, "cli", "self_s", "steps", 1e3),
    "density.kde_fit_ms_per_step":
        ("density.GaussianKde.__init__", "solver", "self_s", "rows", 1e3),
    "density.monitor_eval_ms_per_step":
        ("density.GaussianKde.evaluate", "solver", "self_s", "rows", 1e3),
    "density.monitor_pairs_per_step":
        ("density.GaussianKde.evaluate", "solver", "pairs", "rows", 1),
    "functional.g_hat_self_ms_per_step": ("solver.g_hat", "solver", "self_s", "rows", 1e3),
    "density.readout_eval_s": ("density.GaussianKde.evaluate", "cli", "self_s", "run", 1),
    "density.readout_pairs": ("density.GaussianKde.evaluate", "cli", "pairs", "run", 1),
    "metrics.compute_s": ("cli.compute_metrics", "cli", "self_s", "run", 1),
    "metrics.reconvolve_s": ("cli.reconvolve", "cli", "self_s", "run", 1),
    "solver.draw_minibatch_ms_per_step":
        ("solver.draw_minibatch", "solver", "self_s", "steps", 1e3),
    "rng.stream_ms_per_step": ("rng.stream", "solver", "self_s", "steps", 1e3),
    "rng.stream_calls_per_step": ("rng.stream", "solver", "calls", "steps", 1),
    "reference.grad_u_ms_per_step": ("reference.grad_u", "solver", "self_s", "steps", 1e3),
    "solver.tamed_step_ms_per_step": ("solver.tamed_step", "solver", "self_s", "steps", 1e3),
    "solver.trace_append_ms_per_step":
        ("solver.SolverTrace.append", "solver", "self_s", "rows", 1e3),
    "problems.sample_observations_s": ("problems.sample_observations", "cli", "self_s", "run", 1),
    "problems.build_initial_cloud_s": ("cli.build_initial_cloud", "cli", "self_s", "run", 1),
    "artifacts.write_s": ("artifacts.write", "cli", "self_s", "run", 1),
}


def _total(summaries, name, scope, field):
    return sum(group.get(field, 0)
               for s in summaries for key, group in s["groups"].items()
               if key.split("|")[0] == name and scope in ("*", key.split("|")[1]))


def layer_metrics(summaries: list[dict], untraced_walls: list[float], workers: int) -> dict:
    """Per-layer metrics over the traced repetitions; see the module docstring."""
    per = {"steps": sum(s["steps"] for s in summaries),
           "rows": sum(s["rows"] for s in summaries),
           "run": len(summaries)}
    out = {}
    for metric, (name, scope, field, denom, scale) in _LAYER_METRICS.items():
        out[metric] = scale * _total(summaries, name, scope, field) / max(per[denom], 1)
    first = summaries[0]
    out["artifacts.bytes_written"] = _total([first], "artifacts.write", "*", "bytes")
    out["solver.steps"] = per["steps"] / per["run"]
    step_ms = sorted(ms for s in summaries for ms in s["step_ms"])
    if len(step_ms) >= 2:
        q = statistics.quantiles(step_ms, n=10, method="inclusive")
        out["solver.step_ms_p50"], out["solver.step_ms_p90"] = statistics.median(step_ms), q[8]
    else:
        out["solver.step_ms_p50"] = out["solver.step_ms_p90"] = step_ms[0] if step_ms else 0.0
    wall = sum(s["wall_s"] for s in summaries)
    out["cli.parallel_efficiency"] = sum(s["solver_busy_s"] for s in summaries) / (wall * workers)
    out["cli.self_s"] = sum(s["cli_self_s"] for s in summaries) / per["run"]
    self_total = sum(g["self_s"] for s in summaries for g in s["groups"].values())
    out["trace.accounted_frac"] = (self_total + sum(s["cli_self_s"] for s in summaries)) / wall
    traced_wall = statistics.median(s["wall_s"] for s in summaries)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = traced_wall / statistics.median(untraced_walls) - 1.0
    out["trace.absent_callables"] = len(first["absent"])
    return out


def accounting(summaries: list[dict]) -> list[tuple[str, float]]:
    """(span group, self seconds per run) rows, largest first, plus cli self and wall."""
    totals: dict[str, float] = {}
    for s in summaries:
        for key, group in s["groups"].items():
            totals[key] = totals.get(key, 0.0) + group["self_s"]
    n = len(summaries)
    rows = sorted(((k, v / n) for k, v in totals.items()), key=lambda kv: -kv[1])
    rows.append(("cli.self", sum(s["cli_self_s"] for s in summaries) / n))
    rows.append(("= traced wall", sum(s["wall_s"] for s in summaries) / n))
    return rows
