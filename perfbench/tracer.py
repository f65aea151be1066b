"""Span tracer that wraps the program's public callables from outside.

Nothing in the program changes: `install` replaces module attributes and
class methods by timing wrappers, inside the benchmark's worker process only.
A callable that no longer exists is reported as absent instead of failing,
so the tracer survives renames such as the planned removal of
`KernelModel.eval_and_grad1_matrix`.

Spans are kept per thread (the solver's `--workers` pool runs replicates on
several threads), carry the replicate they belong to, stay in memory while the
program runs and are written out by `write_jsonl` at the end.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import re
import threading
import time


@dataclasses.dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float = 0.0
    parent: int | None = None      # index into Tracer.spans
    replicate: int | None = None
    counts: dict = dataclasses.field(default_factory=dict)


def _nrows(a) -> int:
    return len(getattr(a, "points", a))


def _kernel_counts(result, args):
    # computed from shapes, not measured: the arrays returned (k matrix and
    # gradient tensor) plus the (N, m, p) pairwise differences a kernel forms
    self, xs, ys = args[:3]
    n, m = _nrows(xs), _nrows(ys)
    out = {"pairs": n * m}
    arrays = result if isinstance(result, tuple) else (result,)
    out["bytes"] = sum(getattr(a, "nbytes", 0) for a in arrays) + 8 * n * m * self.dim_y
    return out


def _kde_eval_counts(result, args):
    return {"pairs": _nrows(args[1]) * len(args[0].points)}


def _written_bytes(result, args):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute path, span name, counts(result, args) or None).  A path
# "*.method" wraps the method on every class of the module that defines it.
TARGETS = (
    ("fredholm_flow.cli", "run_solver", "cli.run_solver", None),
    ("fredholm_flow.cli", "compute_metrics", "cli.compute_metrics", None),
    ("fredholm_flow.cli", "reconvolve", "cli.reconvolve", None),
    ("fredholm_flow.cli", "build_initial_cloud", "cli.build_initial_cloud", None),
    ("fredholm_flow.solver", "draw_minibatch", "solver.draw_minibatch", None),
    ("fredholm_flow.solver", "tamed_step", "solver.tamed_step", None),
    ("fredholm_flow.solver", "g_hat", "solver.g_hat", None),
    ("fredholm_flow.solver", "SolverTrace.append", "solver.SolverTrace.append", None),
    ("fredholm_flow.rng", "stream", "rng.stream", None),
    ("fredholm_flow.kernels", "*.eval_and_grad1_matrix", "kernels.eval_and_grad1_matrix",
     _kernel_counts),
    ("fredholm_flow.kernels", "*.eval_matrix", "kernels.eval_matrix", _kernel_counts),
    ("fredholm_flow.reference", "ReferenceMeasure.grad_u", "reference.grad_u", None),
    ("fredholm_flow.density", "GaussianKde.__init__", "density.GaussianKde.__init__", None),
    ("fredholm_flow.density", "GaussianKde.evaluate", "density.GaussianKde.evaluate",
     _kde_eval_counts),
    ("fredholm_flow.artifacts", "write_*", "artifacts.write", _written_bytes),
)

_REP_DIR = re.compile(r"rep(\d+)")


class Tracer:
    def __init__(self, seed_base: int, replicates: int, derive_seed=None):
        self.spans: list[Span] = []
        self.step_times: list[list[float]] = []   # monitor call times, per solver run
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[int, int] = {}
        # replicate seeds as `cmd_run` assigns them, and the observation seeds
        # it derives from them, so spans can be tagged from their arguments
        self._replicate_of = {seed_base + r: r for r in range(replicates)}
        if derive_seed is not None:
            self._replicate_of.update({derive_seed(seed_base + r, 11): r
                                       for r in range(replicates)})

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads))

    def _tag(self, name: str, args) -> int | None:
        seed = None
        if name in ("cli.run_solver", "cli.build_initial_cloud"):
            config = args[0] if name == "cli.run_solver" else args[1]
            seed = getattr(config, "seed", None)
        elif name == "cli.compute_metrics" and len(args) > 4:
            seed = args[4]
        elif name == "problems.sample_observations" and len(args) > 1:
            seed = args[1]
        elif name == "artifacts.write" and args:
            match = _REP_DIR.fullmatch(os.path.basename(os.path.dirname(args[0])))
            return int(match.group(1)) if match else None
        return self._replicate_of.get(seed) if isinstance(seed, int) else None

    def wrap(self, fn, name: str, counts=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            replicate = tracer._tag(name, args)
            if replicate is None and parent is not None:
                replicate = tracer.spans[parent].replicate
            span = Span(name, tracer._thread(), 0.0, parent=parent, replicate=replicate)
            with tracer._lock:
                tracer.spans.append(span)
                index = len(tracer.spans) - 1
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counts = counts(result, args)
            return result

        return traced

    def _wrap_run_solver(self, fn):
        """Inject a `monitor=` callback that time-stamps every recorded state."""
        tracer = self
        traced = self.wrap(fn, "cli.run_solver")
        if "monitor" not in inspect.signature(fn).parameters:
            self.absent.append("cli.run_solver(monitor=)")
            return traced

        @functools.wraps(fn)
        def with_monitor(*args, monitor=None, **kwargs):
            times = []
            with tracer._lock:
                tracer.step_times.append(times)

            def stamp(step, cloud, estimate):
                times.append(time.perf_counter())
                if monitor is not None:
                    monitor(step, cloud, estimate)

            return traced(*args, monitor=stamp, **kwargs)

        return with_monitor

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name == "*":
                owners = [cls for cls in vars(module).values()
                          if isinstance(cls, type) and cls.__module__ == module_name
                          and attr in vars(cls)
                          and not getattr(vars(cls)[attr], "__isabstractmethod__", False)]
            elif owner_name:
                owners = [getattr(module, owner_name, None)]
            else:
                owners = [module]
            found = False
            for owner in owners:
                if owner is None:
                    continue
                attrs = [a for a in vars(owner) if re.fullmatch(attr.replace("*", ".*"), a)
                         and callable(vars(owner)[a])]
                for a in attrs:
                    fn = vars(owner)[a]
                    if name == "cli.run_solver":
                        wrapped = self._wrap_run_solver(fn)
                    else:
                        wrapped = self.wrap(fn, name, counts)
                    setattr(owner, a, wrapped)
                    found = True
            if not found:
                self.absent.append(name)
        self._wrap_preset_sampler()

    def _wrap_preset_sampler(self) -> None:
        """Presets are built inside `cmd_run`; wrap the sampler of each one built."""
        cli = importlib.import_module("fredholm_flow.cli")
        get_preset = getattr(cli, "get_preset", None)
        if get_preset is None:
            self.absent.append("problems.sample_observations")
            return
        tracer = self

        @functools.wraps(get_preset)
        def traced_get_preset(*args, **kwargs):
            preset = get_preset(*args, **kwargs)
            sampler = getattr(preset, "sample_observations", None)
            if sampler is None or not dataclasses.is_dataclass(preset):
                return preset
            return dataclasses.replace(
                preset, sample_observations=tracer.wrap(sampler, "problems.sample_observations"))

        cli.get_preset = traced_get_preset

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
