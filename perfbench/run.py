"""The scrollcurves benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload catalog_sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a source tree; the package is imported from src/,
nothing is installed.  Every unit of work runs in a fresh single-threaded
interpreter (perfbench/unit.py), one after another, never two at once.

--trace 0 measures the end-to-end metrics.  setup_s is the median time of
fresh interpreters to import scrollcurves and build the CLI parser, taken
between units.  Units repeat while another one still fits in --seconds (at
least one runs); run_s, the latency percentiles and peak_rss_mb are medians
over units.

--trace 1 runs one plain unit and one traced unit of the same items and
reports the per-layer metrics of the traced one, plus the tracing overhead
(traced run_s minus plain run_s).  The two units' output digests must match.

Every item's output is checked (see workloads.py); an item that raises,
exits with an unexpected code or prints something else counts as failed.
The last stdout line is the JSON result; the exit code is 0 only when every
item passed.  Without src/scrollcurves next to perfbench/ it prints no
result and exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from math import exp, lgamma, log, log1p
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("catalog_sweep", "wide_curves", "fixture_audit", "chow_grid")
SETUP_SAMPLES = 21
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import scrollcurves.cli\n"
    "scrollcurves.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)
UNIT_TIMEOUT_S = 120
TAIL_BEYOND = 10


def _python(args, timeout: float) -> str:
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SOURCE)),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def setup_sample() -> float:
    """Import and parser time of one fresh interpreter."""
    return float(_python(["-c", SETUP_CODE], 60))


def run_unit(workload: str, seed: int, size: str, reference: str, traced: bool) -> dict:
    args = [str(BENCH / "unit.py"), "--workload", workload, "--seed", str(seed),
            "--size", size, "--reference", reference]
    if traced:
        OUT.mkdir(exist_ok=True)
        args += ["--spans", str(OUT / f"spans-{workload}.csv")]
    return json.loads(_python(args, UNIT_TIMEOUT_S))


def harrell_davis(samples, p: float, steps: int = 8) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))
    weighted mean of all order statistics.  A single order statistic jumps
    between neighbours, which are far apart when a unit mixes a few kinds of
    item; the weighted mean does not.  The weights integrate the Beta
    density over each sample's slice of [0, 1] by the midpoint rule."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)

    def density(t: float) -> float:
        return exp((a - 1) * log(t) + (b - 1) * log1p(-t) - log_beta)

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_share(items: int) -> float:
    """The highest percentile, as a share, with at least ten of one unit's
    items beyond it; 1 (the maximum) when a unit has no more than ten."""
    return (items - TAIL_BEYOND) / items if items > TAIL_BEYOND else 1.0


def tail_ms(latencies: list[float]) -> float:
    share = tail_share(len(latencies))
    return 1000 * (max(latencies) if share == 1.0 else harrell_davis(latencies, share))


def end_to_end(units: list[dict], setup: list[float]) -> dict:
    def over_units(per_unit):
        return statistics.median(per_unit(u) for u in units)

    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (over_units(lambda u: u["run_s"]), "s"),
        "query_p50_ms": (over_units(lambda u: 1000 * harrell_davis(u["latencies_s"], 0.5)), "ms"),
        "query_tail_ms": (over_units(lambda u: tail_ms(u["latencies_s"])), "ms"),
        "peak_rss_mb": (over_units(lambda u: u["peak_rss_kb"] / 1024), "MB"),
    }


def measure(args, reference: str) -> tuple[list[dict], dict, list[str], list[str]]:
    """Units run, metrics, notes to print, and failures outside any item."""
    notes = []
    if args.trace:
        plain = run_unit(args.workload, args.seed, args.size, reference, traced=False)
        traced = run_unit(args.workload, args.seed, args.size, reference, traced=True)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], "s")
        units = [plain, traced]
        notes.append(f"plain run_s {plain['run_s']:.4f} s, traced {traced['run_s']:.4f} s; "
                     f"spans in {OUT / f'spans-{args.workload}.csv'}")
        same = plain["digest"] == traced["digest"]
        return units, metrics, notes, [] if same else ["traced and plain outputs differ"]

    # The first interpreter may compile bytecode and is not counted.  The
    # others are spread over the run, so that setup_s sees the same spells
    # of a busy or idle host as the units do.
    setup_sample()
    setup, units = [], []
    start = time.perf_counter()
    while True:
        due = 1 + (SETUP_SAMPLES - 1) * (time.perf_counter() - start) / args.seconds
        while len(setup) < min(due, SETUP_SAMPLES):
            setup.append(setup_sample())
        began = time.perf_counter()
        units.append(run_unit(args.workload, args.seed, args.size, reference, traced=False))
        unit_wall = time.perf_counter() - began
        if time.perf_counter() - start + unit_wall > args.seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    items = units[0]["items"]
    notes.append(
        f"{len(units)} units of {items} items in {time.perf_counter() - start:.1f} s; "
        f"setup_s is the median of {len(setup)} fresh interpreters"
    )
    notes.append(
        f"query_tail_ms is p{100 * tail_share(items):.1f} of {items} items per unit "
        f"({len(units) * items} samples), median over units; both percentiles are "
        "Harrell-Davis estimates"
    )
    return units, end_to_end(units, setup), notes, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few items per unit, for the self-test")
    parser.add_argument("--reference", default=str(BENCH / "reference.json"),
                        help="reference outputs (the self-test passes a corrupted copy)")
    args = parser.parse_args(argv)

    if not (SOURCE / "scrollcurves" / "__init__.py").is_file():
        print(f"error: no scrollcurves source under {SOURCE}", file=sys.stderr)
        return 2
    try:
        units, metrics, notes, errors = measure(args, args.reference)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: a unit failed to run: {exc}", file=sys.stderr)
        return 2

    errors += [e for unit in units for e in unit["errors"] if e is not None]
    attempted = sum(unit["items"] for unit in units)
    correct = not errors

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, size {args.size}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(f"  error_rate = {len(errors)}/{attempted} = {len(errors) / attempted}")
    for error in errors[:10]:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
