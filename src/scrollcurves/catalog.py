"""Catalog construction, fixture audits, and output rendering.

The catalog enumerates monomial curves by genus (one row per numerical
semigroup in one-singular-point mode, one row per bundled exponent tuple
in two-point mode), computes every invariant from scratch, and checks the
structural identities on each row as it is built.  The audit recomputes a
bundled reference table and reports, row by row, whether the recorded
values agree with the computed ones.  Rendering produces deterministic
JSON, CSV, or markdown.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .curves import (
    MonomialCurve,
    analyze,
    canonical_exponents,
    canonical_section_exponents,
    equal_up_to_reversal,
    gonality,
    make_curve,
    normalize_values,
    representative_curve,
    verify_dualizing_candidate,
)
from .errors import BoundExceeded, PathsDisagree
from .fixtures import FixtureRow, fixture
from .scrolls import ScrollStructure, min_scroll_dimension, scroll_structures
from .semigroups import DEFAULT_GENUS_BOUND, enumerate_genus

FLAG_NAMES = (
    "gorenstein",
    "hyperelliptic",
    "nearly_normal",
    "kunz",
    "almost_gorenstein",
    "nearly_gorenstein",
)

LABELS = (
    ("gorenstein", "Gor"),
    ("nearly_normal", "NN"),
    ("kunz", "K"),
    ("nearly_gorenstein", "NG"),
)


@dataclass(frozen=True)
class CatalogRow:
    """One catalog entry: a curve with its computed invariants."""

    exponents: tuple[int, ...]
    genus: int
    gonality: int
    eta: int
    mu: int
    g_prime: int
    flags: tuple[tuple[str, bool], ...]
    canonical: tuple[int, ...]
    structures: tuple[ScrollStructure, ...]
    provenance: str

    @property
    def label(self) -> str:
        flags = dict(self.flags)
        for key, text in LABELS:
            if flags[key]:
                return text
        return "--"

    def to_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "genus": self.genus,
            "gonality": self.gonality,
            "eta": self.eta,
            "mu": self.mu,
            "g_prime": self.g_prime,
            "flags": dict(self.flags),
            "canonical": list(self.canonical),
            "structures": [
                {"dims": list(s.scroll_type.dims), "step": s.step, "ell": s.ell}
                for s in self.structures
            ],
        }


@dataclass(frozen=True)
class FlagRecord:
    """A fixture row whose recorded value disagrees with recomputation."""

    row: FixtureRow
    field: str
    fixture_value: object
    computed_value: object


@dataclass(frozen=True)
class AuditReport:
    """Outcome of recomputing one bundled table."""

    name: str
    matched: int
    flagged: tuple[FlagRecord, ...]

    @property
    def total(self) -> int:
        return self.matched + len(self.flagged)


def format_exponents(exponents) -> str:
    """Parametrization string of an exponent tuple.

    A leading coordinate 1 is implied: curve exponents never contain 0,
    so one is prepended; canonical exponent sets contain 0 and that entry
    renders as the 1 itself.
    """
    exponents = tuple(exponents)
    parts = [] if 0 in exponents else ["1"]
    for a in exponents:
        parts.append("1" if a == 0 else "t" if a == 1 else f"t^{a}")
    return "(" + ":".join(parts) + ")"


def _check_row(curve: MonomialCurve, row: CatalogRow, msd: int) -> None:
    """Structural identities every catalog row must satisfy; msd is the
    minimum scroll dimension of the row's canonical exponents."""
    raw = canonical_section_exponents(curve)
    if not verify_dualizing_candidate(curve, raw):
        raise PathsDisagree(f"canonical sections of {row.exponents} fail the degree test")
    if row.genus >= 4 and (msd <= 2) != (row.gonality <= 3):
        raise PathsDisagree(
            f"{row.exponents}: scroll dimension {msd} and gonality {row.gonality} "
            "break the trigonal correspondence"
        )
    if row.genus >= 5 and (msd == 3) != (row.gonality == 4):
        raise PathsDisagree(
            f"{row.exponents}: scroll dimension {msd} and gonality {row.gonality} "
            "break the tetragonal correspondence"
        )


def row_for_curve(
    curve: MonomialCurve, provenance: str = "computed", scroll_dim: int | None = None
) -> CatalogRow:
    """The catalog row of a single curve, invariant checks included."""
    record = analyze(curve)
    canonical = normalize_values(record.canonical)
    gon = record.gonality
    msd = min_scroll_dimension(canonical)
    depth = scroll_dim if scroll_dim is not None else msd
    structures = scroll_structures(canonical, depth)
    booleans = dict(record.flags)
    booleans["hyperelliptic"] = record.hyperelliptic
    flags = tuple((name, bool(booleans[name])) for name in FLAG_NAMES)
    row = CatalogRow(
        exponents=curve.exponents,
        genus=curve.genus,
        gonality=gon,
        eta=record.eta,
        mu=record.mu,
        g_prime=record.g_prime,
        flags=flags,
        canonical=canonical,
        structures=structures,
        provenance=provenance,
    )
    _check_row(curve, row, msd)
    return row


def build_catalog(
    genus_range,
    non_gorenstein: bool = False,
    scroll_dim: int | None = None,
    singular_points: int = 1,
) -> list[CatalogRow]:
    """All catalog rows for the given genera, in deterministic order.

    One-singular-point mode enumerates every numerical semigroup of each
    genus and takes its representative curve; two-point mode walks the
    bundled two-point exponent tuples instead, since those curves do not
    admit a bounded exhaustive enumeration.  `scroll_dim` keeps only rows
    whose canonical model needs a scroll of exactly that dimension, and
    row structures are computed at that dimension.
    """
    genera = sorted({int(g) for g in genus_range})
    if genera and genera[-1] > DEFAULT_GENUS_BOUND:
        raise BoundExceeded(
            f"genus {genera[-1]} is past the enumeration bound {DEFAULT_GENUS_BOUND}"
        )
    if genera and genera[0] < 0:
        raise ValueError("genus must be nonnegative")
    curves: dict[tuple[int, ...], MonomialCurve] = {}
    if singular_points == 1:
        for g in genera:
            if g == 0:
                continue
            for semigroup in enumerate_genus(g):
                curve = representative_curve(semigroup)
                curves[curve.exponents] = curve
    elif singular_points == 2:
        for name in ("twopoint-g4", "twopoint-g5"):
            for fixture_row in fixture(name):
                curve = make_curve(fixture_row.exponents)
                if curve.genus in genera:
                    curves[curve.exponents] = curve
    else:
        raise ValueError("singular_points must be 1 or 2")

    provenance = "computed" if singular_points == 1 else "fixture"
    rows = []
    for curve in curves.values():
        if non_gorenstein or scroll_dim is not None:
            canonical = normalize_values(canonical_exponents(curve))
            if scroll_dim is not None and min_scroll_dimension(canonical) != scroll_dim:
                continue
        if non_gorenstein:
            record = analyze(curve)
            if record.eta == 0:
                continue
        rows.append(row_for_curve(curve, provenance, scroll_dim))
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
    canonical = normalize_values(canonical_exponents(curve))
    printed = normalize_values(tuple(sorted(row.canonical)))
    if not equal_up_to_reversal(canonical, printed):
        return FlagRecord(row, "canonical", row.canonical, canonical)
    gon = gonality(curve)
    if gon != row.gonality:
        return FlagRecord(row, "gonality", row.gonality, gon)
    structures = scroll_structures(canonical, _table_dimension(name))
    if name.startswith("surface"):
        label = analyze(curve).label
        if label != row.label:
            return FlagRecord(row, "label", row.label, label)
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
    rows = fixture(name)
    flagged = []
    for row in rows:
        record = _audit_row(name, row)
        if record is not None:
            flagged.append(record)
    return AuditReport(name, matched=len(rows) - len(flagged), flagged=tuple(flagged))


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _report_dict(report: AuditReport) -> dict:
    return {
        "matched": report.matched,
        "flagged": [
            {
                "exponents": list(record.row.exponents),
                "field": record.field,
                "fixture": _plain(record.fixture_value),
                "computed": _plain(record.computed_value),
            }
            for record in report.flagged
        ],
    }


def _structures_cell(row: CatalogRow) -> str:
    return "; ".join(
        f"dims={s.scroll_type.dims} step={s.step} ell={s.ell}" for s in row.structures
    )


def _render_rows(rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([row.to_dict() for row in rows], separators=(",", ":"))
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
    if fmt == "json":
        return json.dumps(_report_dict(report), separators=(",", ":"))
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["exponents", "field", "fixture", "computed"])
        for record in report.flagged:
            writer.writerow(
                [
                    " ".join(map(str, record.row.exponents)),
                    record.field,
                    record.fixture_value,
                    record.computed_value,
                ]
            )
        return buffer.getvalue()
    if fmt == "markdown":
        lines = [
            f"{report.name}: matched {report.matched} of {report.total}",
        ]
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
    raise ValueError(f"unknown format {fmt!r}")


def render(obj, fmt: str = "json") -> str:
    """Serialize catalog rows or an audit report.

    `fmt` is json, csv, or markdown (md accepted as an alias); output is
    deterministic byte for byte.
    """
    fmt = {"md": "markdown"}.get(fmt, fmt)
    if isinstance(obj, AuditReport):
        return _render_report(obj, fmt)
    return _render_rows(list(obj), fmt)
