"""One measured `fredholm-flow run` in a fresh process.

`run.py` starts this script once per repetition, so every repetition pays
the interpreter start and the imports a user pays, and its peak RSS is its
own.  The result goes to a JSON file:

- `setup_s`: from the parent's launch time-stamp (CLOCK_MONOTONIC, shared by
  both processes) until `fredholm_flow.cli` is imported and the preset built;
- `wall_s`: the `cli.main(["run", ...])` call;
- `peak_rss_mb`: this process's peak resident set size;
- with `--setup-only`, only `setup_s`, and no run;
- `trace`: with `--spans`, the per-layer summary of the traced call (see
  `layers.py`), and the raw spans written to that file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": scipy.__version__, "machine": platform.machine(),
             "threads_env": {k: v for k, v in os.environ.items()
                             if k.endswith("_NUM_THREADS")}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    facts["caches"] = caches
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return facts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() of the parent just before the launch")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="trace, writing spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and write only setup_s")
    args = parser.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "fredholm_flow" / "__init__.py").is_file():
        print(f"no fredholm_flow package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from fredholm_flow import cli
    from fredholm_flow.problems import get_preset

    config = json.loads(Path(args.config).read_text())
    tracer = None
    if args.spans:
        from fredholm_flow.rng import derive_seed
        from tracer import Tracer

        tracer = Tracer(args.seed, config.get("replicates", 1), derive_seed)
        tracer.install()
    get_preset(config["preset"], **config.get("preset_options", {}))
    ready = time.monotonic()
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_s": ready - args.launched}))
        return 0

    start = time.perf_counter()
    rc = cli.main(["run", "--config", args.config, "--out", args.out,
                   "--workers", str(args.workers), "--seed", str(args.seed)])
    end = time.perf_counter()

    result = {"rc": rc, "setup_s": ready - args.launched, "wall_s": end - start,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "facts": machine_facts()}
    if tracer is not None:
        from layers import summarize

        tracer.write_jsonl(args.spans)
        result["trace"] = summarize(tracer, start, end)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
