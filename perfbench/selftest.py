"""Self-test of the benchmark itself, at tiny size (about a minute):

    python3 perfbench/selftest.py

* every workload, untraced and traced, passes with exactly the metrics that
  BENCHMARK.json lists, and the traced per-layer call counts repeat exactly
  when the same seed is traced twice;
* mutation check: with one reference digest corrupted, the benchmark
  reports failed items and exits with a failing code;
* a directory holding only BENCHMARK.json and perfbench/ makes it exit with
  a failing code without printing a result.

Scratch files go under .perfbench/ in the source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return done.returncode, done.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str, failures: list) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}

    for workload in (w["name"] for w in SPEC["workloads"]):
        code, out = bench("--workload", workload, "--trace", "0", "--size", "tiny")
        res = result(out)
        expect(code == 0 and res["correct"] and res["failed"] == 0,
               f"{workload}: tiny untraced run passes", failures)
        expect(set(res["metrics"]) == end_to_end and
               all(m["value"] > 0 for m in res["metrics"].values()),
               f"{workload}: every end-to-end metric, none of them 0", failures)
        traced = []
        for _ in range(2):
            code, out = bench("--workload", workload, "--trace", "1", "--size", "tiny")
            traced.append(result(out))
            expect(code == 0 and traced[-1]["correct"],
                   f"{workload}: tiny traced run passes, outputs equal the plain run's",
                   failures)
        expect(set(traced[0]["metrics"]) == per_layer,
               f"{workload}: every per-layer metric", failures)
        calls = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")}
                 for t in traced]
        expect(calls[0] == calls[1], f"{workload}: traced call counts repeat exactly", failures)

    SCRATCH.mkdir(parents=True, exist_ok=True)
    reference = json.loads((BENCH / "reference.json").read_text())
    digest = reference["catalog_sweep"]["5"]["csv"]
    reference["catalog_sweep"]["5"]["csv"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    mutated = SCRATCH / "mutated-reference.json"
    mutated.write_text(json.dumps(reference))
    code, out = bench("--workload", "catalog_sweep", "--trace", "0", "--size", "tiny",
                      "--reference", str(mutated))
    res = result(out)
    expect(code != 0 and not res["correct"] and res["failed"] > 0,
           f"mutation: a corrupted digest gives error_rate {res['failed']}/{res['attempted']} "
           f"and exit code {code}", failures)

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench("--workload", "chow_grid", "--trace", "0", cwd=bare)
    expect(code != 0 and not out.strip(), f"bare directory: exit code {code}, no result",
           failures)
    shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
