"""Catalog construction, fixture audits, and output rendering.

The catalog enumerates monomial curves by genus (one row per numerical
semigroup, on a curve singular at a single point), computes every
invariant from scratch, and checks the structural identities on each row
as it is built.  The audit recomputes a bundled reference table and
reports, row by row, whether the recorded values agree with the computed
ones.  Rendering produces deterministic JSON, CSV, or markdown for
catalog rows and markdown for audit reports; JSON is encoded one row at a
time, so the whole catalog never exists as one tree of dicts.  A row is
the curve's `CurveAnalysis` with its `structures` filled; rows, audit
reports and flag records are named tuples.  Every check of the paper's
statements on a curve record lives in `checks`.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, NamedTuple

from .checks import check_scroll_correspondence
from .curves import (
    CurveAnalysis,
    MonomialCurve,
    analyze,
    canonical_exponents,
    canonical_section_exponents,
    equal_up_to_reversal,
    format_exponents,
    gonality,
    make_curve,
    representative_curve,
    verify_dualizing_candidate,
)
from .errors import PathsDisagree
from .scrolls import ScrollStructure, scroll_structures
from .semigroups import enumerate_genus

if TYPE_CHECKING:
    from .fixtures import FixtureRow


class FlagRecord(NamedTuple):
    """A fixture row whose recorded value disagrees with recomputation."""

    row: FixtureRow
    field: str
    fixture_value: object
    computed_value: object


class AuditReport(NamedTuple):
    """Outcome of recomputing one bundled table."""

    name: str
    matched: int
    flagged: tuple[FlagRecord, ...]

    @property
    def total(self) -> int:
        return self.matched + len(self.flagged)


def _catalog_row(
    curve: MonomialCurve, record: CurveAnalysis, structures: tuple[ScrollStructure, ...]
) -> CurveAnalysis:
    """The row of an analyzed curve from the scroll structures of its
    canonical model at the minimum scroll dimension, with the structural
    identities checked."""
    msd = len(structures[0].blocks)
    raw = canonical_section_exponents(curve)
    if not verify_dualizing_candidate(curve, raw):
        raise PathsDisagree(f"canonical sections of {record.exponents} fail the degree test")
    check_scroll_correspondence(record.exponents, record.genus, record.gonality, msd)
    return record._replace(structures=structures)


def row_for_curve(curve: MonomialCurve) -> CurveAnalysis:
    """The catalog row of a single curve, invariant checks included.

    The canonical model is computed first, so a curve of genus 0 raises
    GenusZero, as the canonical, gonality and scrolls commands do.
    """
    structures = scroll_structures(canonical_exponents(curve))
    record = analyze(curve)
    return _catalog_row(curve, record, structures)


def build_catalog(
    genus_range, non_gorenstein: bool = False, scroll_dim: int | None = None
) -> list[CurveAnalysis]:
    """All catalog rows for the given genera, in deterministic order.

    Every numerical semigroup of each genus is enumerated and taken to its
    representative curve, singular at t = 0 alone; `enumerate_genus`
    rejects a negative genus, or one past its bound, as the walk reaches
    it.  `scroll_dim` keeps only rows whose canonical model needs a scroll
    of exactly that dimension, and row structures are computed at that
    dimension.  The filters run cheapest first, the scroll structures at
    the minimum dimension (whose block count is that dimension) before
    `analyze`, and every invariant of a kept row is computed once.
    """
    curves: dict[tuple[int, ...], MonomialCurve] = {}
    for g in genus_range:
        if g == 0:
            continue
        for semigroup in enumerate_genus(g):
            curve = representative_curve(semigroup)
            curves[curve.exponents] = curve

    rows = []
    for curve in curves.values():
        structures = scroll_structures(canonical_exponents(curve))
        if scroll_dim is not None and len(structures[0].blocks) != scroll_dim:
            continue
        record = analyze(curve)
        if non_gorenstein and record.eta == 0:
            continue
        rows.append(_catalog_row(curve, record, structures))
    rows.sort(key=lambda r: (r.genus, r.exponents))
    return rows


def _table_dimension(name: str) -> int:
    return 3 if name.startswith("threefold") else 2


def _table_genus(name: str) -> int:
    return int(name.rsplit("g", 1)[1])


def _audit_row(name: str, row: FixtureRow) -> FlagRecord | None:
    """Recompute one fixture row; report the first field that disagrees.

    Fields are compared in order of how fundamental they are: genus first
    (a genus mismatch makes the remaining columns incomparable), then the
    canonical exponents, gonality, the class label, and last the recorded
    scroll data, which is accepted whenever it appears in the computed
    structure set.
    """
    curve = make_curve(row.exponents)
    genus = _table_genus(name)
    if curve.genus != genus:
        return FlagRecord(row, "genus", genus, curve.genus)
    canonical = canonical_exponents(curve)
    if not equal_up_to_reversal(canonical, row.canonical):
        return FlagRecord(row, "canonical", row.canonical, canonical)
    surface = name.startswith("surface")
    record = analyze(curve) if surface else None
    gon = record.gonality if surface else gonality(curve)
    if gon != row.gonality:
        return FlagRecord(row, "gonality", row.gonality, gon)
    structures = scroll_structures(canonical, _table_dimension(name))
    if surface:
        if record.label != row.label:
            return FlagRecord(row, "label", row.label, record.label)
        pairs = sorted({(s.m_min, s.ell) for s in structures})
        if (row.m, row.ell) not in pairs:
            return FlagRecord(row, "ell", (row.m, row.ell), pairs)
    elif name.startswith("twopoint"):
        dims = sorted({s.m_min for s in structures})
        if row.m not in dims:
            return FlagRecord(row, "m", row.m, dims)
    else:
        pairs = sorted({s.scroll_type.dims[:2] for s in structures})
        if row.mn not in pairs:
            return FlagRecord(row, "mn", row.mn, pairs)
    return None


def audit_fixture(name: str) -> AuditReport:
    """Recompute a bundled table and compare it row by row."""
    from .fixtures import fixture

    rows = fixture(name)
    flagged = []
    for row in rows:
        record = _audit_row(name, row)
        if record is not None:
            flagged.append(record)
    return AuditReport(name, matched=len(rows) - len(flagged), flagged=tuple(flagged))


def _structures_cell(row: CurveAnalysis) -> str:
    return "; ".join(
        f"dims={s.scroll_type.dims} step={s.step} ell={s.ell}" for s in row.structures
    )


_JSON = json.JSONEncoder(separators=(",", ":"))


def _render_rows(rows, fmt: str) -> str:
    if fmt == "json":
        # one row's dicts at a time: the bytes of json.dumps of the list
        return "[" + ",".join(_JSON.encode(row.to_dict()) for row in rows) + "]"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["exponents", "genus", "gonality", "eta", "mu", "g_prime",
             "label", "canonical", "structures"]
        )
        for row in rows:
            writer.writerow(
                [
                    " ".join(map(str, row.exponents)),
                    row.genus,
                    row.gonality,
                    row.eta,
                    row.mu,
                    row.g_prime,
                    row.label,
                    " ".join(map(str, row.canonical)),
                    _structures_cell(row),
                ]
            )
        return buffer.getvalue()
    if fmt == "markdown":
        lines = [
            "| C | gn | class | C' | structures |",
            "| --- | --- | --- | --- | --- |",
        ]
        for row in rows:
            lines.append(
                "| {} | {} | {} | {} | {} |".format(
                    format_exponents(row.exponents),
                    row.gonality,
                    row.label,
                    format_exponents(row.canonical),
                    _structures_cell(row),
                )
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _render_report(report: AuditReport, fmt: str) -> str:
    if fmt != "markdown":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"{report.name}: matched {report.matched} of {report.total}"]
    if report.flagged:
        lines += [
            "",
            "| C | field | recorded | computed |",
            "| --- | --- | --- | --- |",
        ]
        for record in report.flagged:
            lines.append(
                "| {} | {} | {} | {} |".format(
                    format_exponents(record.row.exponents),
                    record.field,
                    record.fixture_value,
                    record.computed_value,
                )
            )
    return "\n".join(lines) + "\n"


def render(obj, fmt: str) -> str:
    """Serialize catalog rows or an audit report.

    Catalog rows render as json, csv, or markdown, an audit report as
    markdown only (md accepted as an alias); output is deterministic
    byte for byte.
    """
    fmt = {"md": "markdown"}.get(fmt, fmt)
    if isinstance(obj, AuditReport):
        return _render_report(obj, fmt)
    return _render_rows(list(obj), fmt)
