"""The benchmark's four workloads.

Each workload is three functions:

* ``items(seed, size)`` builds the fixed list of items one unit runs.  Only
  the seeded workloads look at the seed; the exhaustive ones ignore it.
* ``run(item)`` performs one item through the public API and returns its
  output as plain JSON data.  This is the part that is timed.
* ``check(item, output, reference)`` returns ``None`` when the output is
  right, else a one-line reason.  It compares against the stored reference
  and, where the workload has one, against a route that does not share the
  computation being checked.

Library functions are always looked up on their module at call time
(``cli.main``, ``catalog.build_catalog``), so the traced run sees every
call through the wrappers it installs on those attributes.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from typing import Callable, NamedTuple

from scrollcurves import catalog, chow, cli
from scrollcurves.catalog import format_exponents
from scrollcurves.chow import Ambient, DivisorClass, RankTwoBundleClass
from scrollcurves.errors import NonIntegralGenus
from scrollcurves.fixtures import fixture, fixture_names

SIZES = ("full", "tiny")


class Workload(NamedTuple):
    items: Callable
    run: Callable
    check: Callable


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_request(argv) -> list:
    """One CLI request: exit code and captured stdout."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return [code, buffer.getvalue()]


# --- catalog_sweep -----------------------------------------------------------
# The paper's main computation: every monomial curve of each genus, built
# and cross-checked row by row, then rendered in all three formats.  Gonality
# and the semigroup sieve dominate; no chow code runs.  One item is one
# single-genus catalog request, so the whole unit equals build_catalog over
# the range.  The range stops at genus 10 (470 rows) so that several cold
# units fit in one run; every genus in it is enumerated completely.

CATALOG_GENERA = {"full": range(4, 11), "tiny": range(4, 6)}
CATALOG_FORMATS = ("json", "csv", "markdown")
# Numbers of numerical semigroups by genus (OEIS A007323).
SEMIGROUP_COUNTS = {
    1: 1, 2: 2, 3: 4, 4: 7, 5: 12, 6: 23, 7: 39, 8: 67, 9: 118, 10: 204,
    11: 343, 12: 592,
}


def catalog_items(seed: int, size: str) -> list:
    return list(CATALOG_GENERA[size])


def catalog_run(genus: int) -> list:
    rows = catalog.build_catalog([genus])
    return [len(rows), {fmt: catalog.render(rows, fmt) for fmt in CATALOG_FORMATS}]


def catalog_check(genus: int, output, reference) -> str | None:
    count, rendered = output
    if count != SEMIGROUP_COUNTS[genus]:
        return f"genus {genus}: {count} rows, expected n_g = {SEMIGROUP_COUNTS[genus]}"
    expected = reference["catalog_sweep"][str(genus)]
    for fmt in CATALOG_FORMATS:
        if sha256(rendered[fmt]) != expected[fmt]:
            return f"genus {genus}: {fmt} digest differs from the reference"
    return None


# --- wide_curves -------------------------------------------------------------
# The mirror image of catalog_sweep: single-curve CLI queries whose branch
# semigroups are tiny (genus 4 to 7) but whose top exponent is large, so the
# sieve's 4*max^2 window is nearly all of the time and gonality nearly none.
# Each curve is a small head, a small tail below the top exponent, and the
# top; every shape has seven exponents, so the cost of a query depends on
# the top exponent alone.  Top exponents are stratified over the range, one
# draw per stratum, which keeps the cost of a unit nearly equal across seeds.
# While the top exponent exceeds both branch conductors, the branch
# semigroups and hence every printed invariant are independent of it; the
# reference is taken at one small top and must hold at every other.

WIDE_SHAPES = (
    ((4, 5, 6, 7), (3, 4)),
    ((3, 4, 5), (3, 4, 5)),
    ((2, 3), (4, 5, 6, 7)),
    ((5, 6, 7, 8, 9), (1,)),
    ((3, 5, 7), (3, 4, 5)),
    ((4, 5, 6), (3, 5, 7)),
    ((1,), (5, 6, 7, 8, 9)),
    ((2, 5), (4, 5, 6, 7)),
)
WIDE_COMMANDS = ("analyze", "canonical", "gonality", "scrolls")
WIDE_QUERIES = {"full": 100, "tiny": 4}
WIDE_TOPS = {"full": (100, 250), "tiny": (30, 60)}
WIDE_REFERENCE_TOP = 100
EXPONENTS_MARK = "@EXPONENTS@"


def wide_exponents(shape: int, top: int) -> list:
    head, tail = WIDE_SHAPES[shape]
    return sorted(set(head) | {top - t for t in tail} | {top})


def wide_items(seed: int, size: str) -> list:
    rng = random.Random(seed)
    n = WIDE_QUERIES[size]
    low, high = WIDE_TOPS[size]
    edges = [low + (high + 1 - low) * i // n for i in range(n + 1)]
    items = [
        [WIDE_COMMANDS[i % len(WIDE_COMMANDS)], rng.randrange(len(WIDE_SHAPES)),
         rng.randrange(edges[i], edges[i + 1])]
        for i in range(n)
    ]
    rng.shuffle(items)
    return items


def wide_argv(command: str, shape: int, top: int) -> list:
    exponents = ",".join(map(str, wide_exponents(shape, top)))
    return [command, "--exponents", exponents]


def exponents_json(exponents) -> str:
    return json.dumps(list(exponents), separators=(",", ":"))


def wide_run(item) -> list:
    return cli_request(wide_argv(*item))


def wide_check(item, output, reference) -> str | None:
    command, shape, top = item
    code, text = output
    if code != 0:
        return f"{command} on shape {shape}, top {top}: exit code {code}"
    exponents = wide_exponents(shape, top)
    expected = reference["wide_curves"][shape][command].replace(
        EXPONENTS_MARK, exponents_json(exponents), 1
    )
    if text != expected:
        return f"{command} on shape {shape}, top {top}: stdout differs from the reference"
    if command == "analyze":
        record = json.loads(text)
        if len(record["canonical"]) != record["genus"]:
            return f"analyze on shape {shape}, top {top}: len(canonical) != genus"
    return None


# --- fixture_audit -----------------------------------------------------------
# The only workload with curves singular at both points and the only one on
# the audit path, where _audit_row computes gonality and analyze computes it
# again.  Each item is one `audit --fixture NAME --strict` request; a unit is
# a fixed number of passes over all eight tables.

AUDIT_PASSES = {"full": 12, "tiny": 1}
AUDIT_STRICT_EXIT = 3


def audit_items(seed: int, size: str) -> list:
    return [name for _ in range(AUDIT_PASSES[size]) for name in fixture_names()]


def audit_run(name: str) -> list:
    return cli_request(["audit", "--fixture", name, "--strict"])


def _flagged_in_markdown(text: str) -> set:
    """(curve, field) pairs of the flagged-rows table in an audit report."""
    rows = [line for line in text.splitlines() if line.startswith("| (")]
    return {tuple(cell.strip() for cell in row.split("|")[1:3]) for row in rows}


def audit_check(name: str, output, reference) -> str | None:
    code, text = output
    expected = reference["fixture_audit"][name]
    if code != expected["exit"] or sha256(text) != expected["stdout"]:
        return f"audit {name}: exit {code} or stdout differs from the reference"
    registered = {
        (format_exponents(row.exponents), row.expect_flag)
        for row in fixture(name)
        if row.expect_flag
    }
    if _flagged_in_markdown(text) != registered:
        return f"audit {name}: flagged rows differ from the registered expect_flag rows"
    if (code == AUDIT_STRICT_EXIT) != bool(registered):
        return f"audit {name}: --strict exit {code} does not match the registered flags"
    return None


# --- chow_grid ---------------------------------------------------------------
# No catalog path calls the chow layer, so this workload is the only one that
# measures it: chi and h0 of line bundles on surface and threefold scrolls,
# the four-path genus of curves cut by split rank-2 bundles, and the surface
# and cone genus formulas.  Items are drawn with the seed from fixed grids,
# a fixed number per kind, and every grid value is in the reference.
# NonIntegralGenus is an expected outcome for some grid points, not a failure.

CHOW_GRIDS = {
    "chi2": [(2, e, h, f) for e in range(2, 9) for h in range(-5, 6) for f in range(-5, 6)],
    "chi3": [(3, e, h, f) for e in range(3, 9) for h in range(-5, 6) for f in range(-5, 6)],
    "h0": [
        (d, e, h, f)
        for d in (2, 3)
        for e in range(d, 9)
        for h in range(-1, 5)
        for f in range(-5, 6)
    ],
    "pa": [
        (dims, a, c, b, z)
        for dims in ((1, 1, 1), (1, 2, 3))
        for a in range(1, 5)
        for c in range(1, 5)
        for b in range(-5, 6)
        for z in range(-5, 6)
    ],
    "surface": [(deg, n, ell) for deg in range(1, 31) for n in range(3, 9) for ell in range(1, 5)],
    "cone": [(deg, n) for deg in range(1, 31) for n in range(3, 9)],
}
# Per unit, by kind.  In one unit's sorted latencies cone and h0 fill the
# bottom quarter and chi2 and surface the middle half, so the median falls
# inside one cluster; pa, the slowest kind, holds the tail.
CHOW_MIX = {
    "full": {"cone": 60, "h0": 240, "chi2": 420, "surface": 180, "chi3": 150, "pa": 150},
    "tiny": {"cone": 3, "h0": 12, "chi2": 21, "surface": 9, "chi3": 8, "pa": 7},
}


def chow_items(seed: int, size: str) -> list:
    rng = random.Random(seed)
    items = [
        [kind, rng.randrange(len(CHOW_GRIDS[kind]))]
        for kind, count in CHOW_MIX[size].items()
        for _ in range(count)
    ]
    rng.shuffle(items)
    return items


def chow_value(kind: str, point):
    """One formula evaluation; None when the genus is not an integer."""
    try:
        if kind in ("chi2", "chi3"):
            d, e, h, f = point
            return chow.euler_characteristic(Ambient.balanced(d, e), DivisorClass(h, f))
        if kind == "h0":
            d, e, h, f = point
            return list(chow.h0_class(Ambient.balanced(d, e), DivisorClass(h, f)))
        if kind == "pa":
            dims, a, c, b, z = point
            bundle = RankTwoBundleClass(a + c, b + z, a * c, a * z + b * c)
            return chow.pa_from_bundle(Ambient(dims), bundle)
        if kind == "surface":
            return chow.genus_on_surface(*point)
        return chow.genus_on_cone(*point)
    except NonIntegralGenus:
        return None


def chow_run(item):
    kind, index = item
    return chow_value(kind, CHOW_GRIDS[kind][index])


def chow_check(item, output, reference) -> str | None:
    kind, index = item
    if output != reference["chow_grid"][kind][index]:
        return f"{kind} at {CHOW_GRIDS[kind][index]}: {output!r} differs from the reference"
    return None


WORKLOADS = {
    "catalog_sweep": Workload(catalog_items, catalog_run, catalog_check),
    "wide_curves": Workload(wide_items, wide_run, wide_check),
    "fixture_audit": Workload(audit_items, audit_run, audit_check),
    "chow_grid": Workload(chow_items, chow_run, chow_check),
}
