"""Run one unit of a workload in this interpreter and print the result.

run.py starts this script in a fresh interpreter for every unit, so module
caches such as the semigroup enumeration's start cold, as they do for a
command line user.  The last line of stdout is one JSON object: per-item
latencies and verdicts, the unit's wall time, the process's peak resident
memory, a digest of every output, and with --trace the per-layer metrics.

    PYTHONPATH=src python3 perfbench/unit.py --workload chow_grid --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

from layertrace import Tracer
from workloads import SIZES, WORKLOADS


def run_unit(workload, items):
    """Time every item; an item that raises is kept as a failed output."""
    latencies, outputs = [], []
    start = time.perf_counter()
    for item in items:
        began = time.perf_counter()
        try:
            outputs.append(("ok", workload.run(item)))
        except Exception as exc:  # recorded as a failed item, the unit goes on
            outputs.append(("raised", f"{type(exc).__name__}: {exc}"))
        latencies.append(time.perf_counter() - began)
    return latencies, outputs, time.perf_counter() - start


def verdict(workload, item, output, reference) -> str | None:
    status, value = output
    if status == "raised":
        return f"{item}: raised {value}"
    return workload.check(item, value, reference)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--spans", default=None, help="trace, and write the spans here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    items = workload.items(args.seed, args.size)
    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install()
    try:
        latencies, outputs, run_s = run_unit(workload, items)
    finally:
        if tracer:
            tracer.remove()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(args.reference) as handle:
        reference = json.load(handle)
    errors = [verdict(workload, item, output, reference) for item, output in zip(items, outputs)]
    result = {
        "items": len(items),
        "latencies_s": latencies,
        "errors": errors,
        "run_s": run_s,
        "peak_rss_kb": peak_rss_kb,
        "digest": hashlib.sha256(json.dumps(outputs).encode()).hexdigest(),
    }
    if tracer:
        result["layers"] = tracer.metrics(len(items))
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
