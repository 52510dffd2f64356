"""Regenerate perfbench/reference.json from the current source tree.

The reference holds what every workload item must output: digests of the
catalog renders per genus, each table's audit stdout digest and exit code,
each wide_curves shape's stdout per command (taken at one top exponent and
confirmed at a second one), and the value of every chow grid point.  Run it
only at a commit whose outputs are known to be right, from the repo root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import (
    CATALOG_GENERA,
    CHOW_GRIDS,
    EXPONENTS_MARK,
    WIDE_COMMANDS,
    WIDE_REFERENCE_TOP,
    WIDE_SHAPES,
    catalog_run,
    chow_value,
    cli_request,
    exponents_json,
    fixture_names,
    sha256,
    wide_argv,
    wide_exponents,
)

PATH = Path(__file__).resolve().parent / "reference.json"
CONFIRM_TOP = 131


def wide_reference(shape: int) -> dict:
    outputs = {}
    for command in WIDE_COMMANDS:
        per_top = []
        for top in (WIDE_REFERENCE_TOP, CONFIRM_TOP):
            code, text = cli_request(wide_argv(command, shape, top))
            if code != 0:
                raise SystemExit(f"{command} on shape {shape} exited {code}")
            if command == "analyze":
                text = text.replace(exponents_json(wide_exponents(shape, top)), EXPONENTS_MARK, 1)
            per_top.append(text)
        if per_top[0] != per_top[1]:
            raise SystemExit(f"{command} on shape {shape} depends on the top exponent")
        outputs[command] = per_top[0]
    return outputs


def check_chi_against_h0(values: dict) -> None:
    """Where all higher cohomology vanishes, chi must equal h0: a second
    route to the chi reference that shares no code with it."""
    chi = {
        point: value
        for kind in ("chi2", "chi3")
        for point, value in zip(CHOW_GRIDS[kind], values[kind])
    }
    for point, (h0, vanishing) in zip(CHOW_GRIDS["h0"], values["h0"]):
        if vanishing and chi[point] != h0:
            raise SystemExit(f"chi {chi[point]} != h0 {h0} at {point}")


def main() -> None:
    reference = {
        "catalog_sweep": {
            str(genus): {
                fmt: sha256(text) for fmt, text in catalog_run(genus)[1].items()
            }
            for genus in CATALOG_GENERA["full"]
        },
        "wide_curves": [wide_reference(shape) for shape in range(len(WIDE_SHAPES))],
        "fixture_audit": {},
        "chow_grid": {
            kind: [chow_value(kind, point) for point in grid]
            for kind, grid in CHOW_GRIDS.items()
        },
    }
    for name in fixture_names():
        code, text = cli_request(["audit", "--fixture", name, "--strict"])
        reference["fixture_audit"][name] = {"exit": code, "stdout": sha256(text)}
    check_chi_against_h0(reference["chow_grid"])
    PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
