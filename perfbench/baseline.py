"""Repeat the benchmark over seeds and summarize it, as a baseline to cite.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload: `RUNS` untraced runs on seeds 1..RUNS, each metric's
median, quartiles and spread (quartile distance over median, the figure the
bounds in BENCHMARK.json are held against), and `TRACED` traced runs on seeds
1..TRACED.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS  # noqa: E402

RUNS = 10
TRACED = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["machine"] = json.loads(lines[-2].removeprefix("machine: "))
    return result


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else values * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(median) if median else 0.0,
                     "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in WORKLOADS:
        untraced = []
        for seed in range(1, RUNS + 1):
            untraced.append(bench(workload, seed, spec["run_seconds"], 0))
            print(workload, seed, {k: v["value"] for k, v in untraced[-1]["metrics"].items()},
                  flush=True)
        traced = [bench(workload, seed, spec["run_seconds"], 1)
                  for seed in range(1, TRACED + 1)]
        report["machine"] = untraced[0]["machine"]
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in untraced + traced),
            "end_to_end": summarize(untraced),
            "per_layer": summarize(traced) if traced else {},
        }
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']!r} {s['unit']}, "
                  f"spread {s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
