"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload wide_curves --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --traced --out perfbench/baseline.json

For every end-to-end metric it prints the median of the runs, the first and
third quartiles (statistics.quantiles, n=4), and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound
in BENCHMARK.json.  A spread at or above a third of the bound is marked
WIDE; setup_s is exempt from that rule.  --traced adds one --trace 1 run per
workload on the first seed.  --out writes the machine, the summaries and
every run's result as JSON.  Runs go one after another, never at once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def machine() -> dict:
    models = [line.split(":", 1)[1].strip()
              for line in Path("/proc/cpuinfo").read_text().splitlines()
              if line.startswith("model name")]
    return {
        "cpu": models[0] if models else platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    wall = time.perf_counter() - began
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: exit {done.returncode}, "
          f"{result['failed']}/{result['attempted']} failed, {wall:.1f} s wall", flush=True)
    return {"seed": seed, "trace": trace, "exit": done.returncode, "wall_s": wall, **result}


def summary(spec: dict, runs: list[dict]) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                     "bound": metric["bound"], "unit": metric["unit"]}
        wide = spread >= metric["bound"] / 3 and name != "setup_s"
        print(f"  {name:14} median {median:.6g} {metric['unit']}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"spread {spread:.2%} (bound {metric['bound']:.0%}){'  WIDE' if wide else ''}")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--traced", action="store_true", help="add one traced run each")
    parser.add_argument("--out", default=None, help="write everything here as JSON")
    args = parser.parse_args(argv)

    report = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or names:
        runs = [bench(spec, workload, seed, 0) for seed in args.seeds]
        entry = {"end_to_end": summary(spec, runs), "runs": runs}
        if args.traced:
            entry["traced"] = bench(spec, workload, args.seeds[0], 1)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    every = [r for w in report["workloads"].values()
             for r in w["runs"] + ([w["traced"]] if "traced" in w else [])]
    return 0 if all(r["exit"] == 0 and r["correct"] for r in every) else 1


if __name__ == "__main__":
    sys.exit(main())
