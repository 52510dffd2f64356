"""Catalog construction, table audits, and rendering."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from scrollcurves import catalog as catalog_module
from scrollcurves import curves as curves_module
from scrollcurves import scrolls as scrolls_module
from scrollcurves.catalog import (
    audit_fixture,
    build_catalog,
    format_exponents,
    render,
    row_for_curve,
)
from scrollcurves.curves import analyze, canonical_exponents, make_curve, representative_curve
from scrollcurves.errors import BoundExceeded, UnknownFixture
from scrollcurves.fixtures import fixture, fixture_names
from scrollcurves.scrolls import min_scroll_dimension, scroll_structures
from scrollcurves.semigroups import enumerate_genus

TABLE_SHAPES = {
    "surface-g4": (4, 0),
    "surface-g5": (10, 1),
    "surface-g6": (9, 0),
    "threefold-g6": (4, 1),
    "threefold-g7": (13, 4),
    "threefold-g8": (22, 7),
    "twopoint-g4": (4, 0),
    "twopoint-g5": (8, 1),
}


class TestFixtures:
    def test_names(self):
        assert fixture_names() == tuple(sorted(TABLE_SHAPES))

    def test_row_counts(self):
        for name, (rows, flags) in TABLE_SHAPES.items():
            table = fixture(name)
            assert len(table) == rows
            assert sum(1 for r in table if r.expect_flag) == flags

    def test_total_rows(self):
        assert sum(len(fixture(n)) for n in fixture_names()) == 74

    def test_unknown_name(self):
        with pytest.raises(UnknownFixture, match="surface-g4"):
            fixture("surface-g9")


class TestAudit:
    def test_counts_match_registry(self):
        for name, (rows, flags) in TABLE_SHAPES.items():
            report = audit_fixture(name)
            assert report.total == rows
            assert report.matched == rows - flags
            assert len(report.flagged) == flags

    def test_flags_are_exactly_the_registered_rows(self):
        for name in fixture_names():
            expected = [
                (row.exponents, row.expect_flag)
                for row in fixture(name)
                if row.expect_flag
            ]
            got = [(rec.row.exponents, rec.field) for rec in audit_fixture(name).flagged]
            assert got == expected, name

    def test_surface_g4_fully_matched(self):
        report = audit_fixture("surface-g4")
        assert (report.matched, report.flagged) == (4, ())

    def test_surface_g5_flags_fiber_degree(self):
        (record,) = audit_fixture("surface-g5").flagged
        assert record.row.exponents == (4, 7, 9, 10)
        assert record.field == "ell"
        assert record.fixture_value == (1, 3)
        assert record.computed_value == [(1, 1)]

    def test_threefold_g6_flags_gap_count(self):
        (record,) = audit_fixture("threefold-g6").flagged
        assert record.row.exponents == (5, 6, 13, 14)
        assert record.field == "genus"
        assert record.fixture_value == 6
        assert record.computed_value == 7

    def test_twopoint_duplicate_row_flags_genus(self):
        (record,) = audit_fixture("twopoint-g5").flagged
        assert record.row.exponents == (2, 3, 4, 5, 9)
        assert (record.field, record.computed_value) == ("genus", 4)


class TestBuildCatalog:
    def test_genus_four_non_gorenstein(self):
        rows = build_catalog([4], non_gorenstein=True)
        assert [r.exponents for r in rows] == [
            (3, 7, 8),
            (4, 5, 7, 8),
            (4, 6, 7, 8, 9),
            (5, 6, 7, 8, 9),
        ]
        labels = {r.exponents: r.label for r in rows}
        assert labels[(5, 6, 7, 8, 9)] == "NN"
        assert labels[(4, 5, 7, 8)] == "K"
        assert labels[(4, 6, 7, 8, 9)] == "NG"
        assert labels[(3, 7, 8)] == "--"

    def test_genus_zero_empty(self):
        assert build_catalog([0]) == []

    def test_row_counts_follow_semigroup_counts(self):
        rows = build_catalog([4, 5])
        assert len(rows) == 7 + 12
        assert rows == sorted(rows, key=lambda r: (r.genus, r.exponents))

    def test_deterministic(self):
        assert build_catalog([5]) == build_catalog([5])

    def test_scroll_dim_filter_is_exact(self):
        rows = build_catalog([6], scroll_dim=3)
        assert rows
        for row in rows:
            assert min_scroll_dimension(row.canonical) == 3
            assert row.gonality == 4
            assert all(len(s.blocks) == 3 for s in row.structures)

    def test_genus_six_threefold_non_gorenstein_set(self):
        rows = build_catalog([6], scroll_dim=3, non_gorenstein=True)
        assert {r.exponents for r in rows} == {
            (4, 7, 8, 9),
            (4, 7, 10, 12, 13),
            (5, 7, 8, 10, 11),
            (5, 6, 8, 10, 11),
        }

    def test_genus_six_catalog_covers_clean_fixture_semigroups(self):
        semigroups = {
            make_curve(r.exponents).s_zero for r in build_catalog([6], scroll_dim=3)
        }
        for row in fixture("threefold-g6"):
            if row.expect_flag is None:
                assert make_curve(row.exponents).s_zero in semigroups

    def test_two_point_fixture_rows(self):
        """The catalog enumerates curves singular at t = 0 alone, so the
        twopoint tables are the only curves singular at both points whose
        rows run the dualizing check and the scroll correspondence."""
        curves = [
            make_curve(r.exponents) for name in ("twopoint-g4", "twopoint-g5")
            for r in fixture(name)
        ]
        assert all(c.s_zero.delta and c.s_infinity.delta for c in curves)
        rows = [row_for_curve(c) for c in curves]
        assert len(rows) == 12
        assert all(r.gonality == 3 and len(r.structures[0].blocks) == 2 for r in rows)
        # (2, 3, 4, 5, 9) is listed in both tables, flagged in twopoint-g5
        assert sorted(r.genus for r in rows) == [4] * 5 + [5] * 7

    @staticmethod
    def _two_point_rows(genera):
        """Rows of the twopoint-table curves of the given genera, one per
        exponent tuple, in catalog order."""
        curves = {}
        for name in ("twopoint-g4", "twopoint-g5"):
            for r in fixture(name):
                curve = make_curve(r.exponents)
                if curve.genus in genera:
                    curves[curve.exponents] = curve
        rows = [row_for_curve(c) for c in curves.values()]
        return sorted(rows, key=lambda r: (r.genus, r.exponents))

    def test_two_point_mode(self):
        rows = self._two_point_rows({4, 5})
        assert len(rows) == 11
        assert all(r.gonality == 3 for r in rows)
        genera = sorted(r.genus for r in rows)
        assert genera == [4] * 4 + [5] * 7
        assert sum(1 for r in rows if r.exponents == (2, 3, 4, 5, 9)) == 1

    def test_two_point_single_genus(self):
        rows = self._two_point_rows({5})
        assert len(rows) == 7

    def test_range_input(self):
        assert build_catalog(range(4, 6)) == build_catalog([4, 5])

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            build_catalog([40])

    def test_walk_stops_at_the_first_genus_past_the_bound(self):
        def genera():
            yield from (4, 17)
            raise AssertionError("the walk read past the first genus over the bound")

        with pytest.raises(BoundExceeded, match="genus 17 exceeds"):
            build_catalog(genera())

    def test_validation(self):
        with pytest.raises(ValueError):
            build_catalog([-1])


class TestOneRecordPerCurve:
    """A catalog row is its curve's `analyze` record with the scroll
    structures of its canonical model filled in; a bare record has none
    and does not render."""

    @staticmethod
    def assert_row_is_record(row):
        assert row._replace(structures=None) == analyze(make_curve(row.exponents))
        assert row.structures == scroll_structures(row.canonical)

    def test_catalog_rows(self):
        rows = build_catalog(range(1, 9))
        assert len(rows) == 1 + 2 + 4 + 7 + 12 + 23 + 39 + 67
        for row in rows:
            self.assert_row_is_record(row)

    def test_fixture_curve_rows(self):
        rows = [row for name in fixture_names() for row in fixture(name)]
        assert len(rows) == 74
        for row in rows:
            self.assert_row_is_record(row_for_curve(make_curve(row.exponents)))

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_bare_record_does_not_render(self, fmt):
        record = analyze(make_curve((4, 5, 7, 8)))
        assert record.structures is None
        with pytest.raises(TypeError):
            render([record], fmt)


class TestRender:
    def test_empty_csv_is_header_only(self):
        out = render([], "csv")
        assert out == (
            "exponents,genus,gonality,eta,mu,g_prime,label,canonical,structures\n"
        )

    def test_json_schema_key_order(self):
        rows = build_catalog([4], non_gorenstein=True)
        decoded = json.loads(render(rows, "json"))
        assert len(decoded) == 4
        for entry in decoded:
            assert list(entry) == [
                "exponents",
                "genus",
                "gonality",
                "eta",
                "mu",
                "g_prime",
                "flags",
                "canonical",
                "structures",
            ]
            assert list(entry["flags"]) == [
                "gorenstein",
                "hyperelliptic",
                "nearly_normal",
                "kunz",
                "almost_gorenstein",
                "nearly_gorenstein",
            ]
            for structure in entry["structures"]:
                assert list(structure) == ["dims", "step", "ell"]

    def test_markdown_columns(self):
        out = render(build_catalog([4], non_gorenstein=True), "markdown")
        lines = out.splitlines()
        assert lines[0] == "| C | gn | class | C' | structures |"
        assert lines[1] == "| --- | --- | --- | --- | --- |"
        assert len(lines) == 6

    def test_md_alias(self):
        rows = build_catalog([4], non_gorenstein=True)
        assert render(rows, "md") == render(rows, "markdown")

    def test_byte_stable(self):
        for fmt in ("json", "csv", "markdown"):
            assert render(build_catalog([5]), fmt) == render(build_catalog([5]), fmt)

    def test_audit_json_flagged(self):
        report = audit_fixture("threefold-g6")
        assert report.matched == 3
        (flag,) = report.flagged
        assert (flag.row.exponents, flag.field, flag.fixture_value, flag.computed_value) == (
            (5, 6, 13, 14),
            "genus",
            6,
            7,
        )

    def test_audit_markdown_mentions_counts(self):
        out = render(audit_fixture("surface-g5"), "markdown")
        assert "matched 9 of 10" in out
        assert "(1:t^4:t^7:t^9:t^10)" in out

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render([], "yaml")
        report = audit_fixture("surface-g4")
        with pytest.raises(TypeError):
            render(report)
        for fmt in ("yaml", "json", "csv"):
            with pytest.raises(ValueError, match="unknown format"):
                render(report, fmt)

    def test_exponent_formatting(self):
        assert format_exponents((4, 5, 7, 8)) == "(1:t^4:t^5:t^7:t^8)"
        assert format_exponents((1, 2)) == "(1:t:t^2)"
        assert format_exponents((0, 2, 3, 4)) == "(1:t^2:t^3:t^4)"
        assert format_exponents((0, 1, 2, -3)) == "(1:t:t^2:t^-3)"


def whole_list_json(rows) -> str:
    """The JSON render as it was before rows were encoded one at a time:
    `json.dumps` of the whole list of row dicts."""
    return json.dumps([row.to_dict() for row in rows], separators=(",", ":"))


class TestRowByRowJson:
    """The JSON render encodes one row's dicts at a time, with the bytes of
    one `json.dumps` of every row's dict."""

    @pytest.fixture(scope="class")
    def sweep_rows(self):
        return build_catalog(range(4, 13))

    def test_bytes_match_whole_list_dumps(self, sweep_rows):
        filtered = build_catalog(range(4, 11), non_gorenstein=True, scroll_dim=3)
        assert (len(sweep_rows), len(filtered)) == (1405, 223)
        for rows in (sweep_rows, filtered, []):
            assert render(rows, "json") == whole_list_json(rows)
        assert render([], "json") == "[]"

    def test_peak_memory_is_a_small_multiple_of_the_output(self, sweep_rows):
        """Encoding the whole list of dicts peaked near 11x the output;
        row by row it holds the encoded rows and the output, about 2-3x."""
        tracemalloc.start()
        try:
            out = render(sweep_rows, "json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) > 400_000
        assert peak < 4 * len(out), (peak, len(out))


def count_calls(monkeypatch, modules, name, log):
    """Replace `name` on each module by one wrapper that appends its first
    argument to `log` before calling the original."""
    original = getattr(modules[0], name)

    def wrapper(first, *args, **kwargs):
        log.append(first)
        return original(first, *args, **kwargs)

    for module in modules:
        assert getattr(module, name) is original
        monkeypatch.setattr(module, name, wrapper)


class TestComputeOnce:
    """Each invariant of a curve is computed once per catalog row or
    audited fixture row."""

    def test_filtered_catalog_analyzes_each_curve_at_most_once(self, monkeypatch):
        curves = [
            representative_curve(s) for g in range(4, 9) for s in enumerate_genus(g)
        ]
        assert len(curves) == 148
        rejected = {
            c.exponents for c in curves if min_scroll_dimension(canonical_exponents(c)) != 3
        }
        analyzed, measured = [], []
        count_calls(monkeypatch, (catalog_module,), "analyze", analyzed)
        count_calls(monkeypatch, (catalog_module,), "scroll_structures", measured)
        rows = build_catalog(range(4, 9), non_gorenstein=True, scroll_dim=3)
        assert len(rows) == 55
        exponents = [c.exponents for c in analyzed]
        assert len(exponents) == len(set(exponents)) == 148 - len(rejected)
        assert not rejected & set(exponents)
        # one walk of the steps per curve: the structures at the minimum
        # dimension give the filter its dimension and a kept row its structures
        assert len(measured) == 148

    def test_surface_audits_run_gonality_once_per_row(self, monkeypatch):
        calls = []
        count_calls(monkeypatch, (curves_module, catalog_module), "gonality", calls)
        total = 0
        for name in fixture_names():
            before = len(calls)
            report = audit_fixture(name)
            early = sum(f.field in ("genus", "canonical") for f in report.flagged)
            assert len(calls) - before == report.total - early, name
            total += len(calls) - before
        assert total == 62

    def test_raw_canonical_sections_computed_once_per_row(self, monkeypatch):
        """Every catalog row reads its raw sections at least twice (for the
        canonical exponents and for the dualizing check), and each read
        returns the one tuple computed for that curve."""
        original = curves_module.canonical_section_exponents
        sections: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

        def recording(curve):
            raw = original(curve)
            sections.setdefault(curve.exponents, []).append(raw)
            return raw

        for module in (curves_module, catalog_module):
            monkeypatch.setattr(module, "canonical_section_exponents", recording)
        rows = build_catalog(range(4, 9))
        assert len(rows) == len(sections) == 148
        for row in rows:
            reads = sections[row.exponents]
            assert len(reads) >= 2, row.exponents
            assert all(raw is reads[0] for raw in reads), row.exponents
            assert len(reads[0]) == row.genus

    def test_render_builds_one_ambient_per_structure(self, monkeypatch):
        rows = build_catalog(range(4, 8))
        structures = sum(len(row.structures) for row in rows)
        assert structures > len(rows)
        built = []
        original = scrolls_module.Ambient

        def counting(dims):
            built.append(dims)
            return original(dims)

        monkeypatch.setattr(scrolls_module, "Ambient", counting)
        outputs = [render(rows, fmt) for fmt in ("json", "csv", "markdown")]
        assert len(built) == structures
        # a second pass reads every scroll type from its structure
        assert [render(rows, fmt) for fmt in ("json", "csv", "markdown")] == outputs
        assert len(built) == structures

    def test_analyze_succeeds_on_every_fixture_curve(self):
        rows = [row for name in fixture_names() for row in fixture(name)]
        assert len(rows) == 74
        for row in rows:
            curve = make_curve(row.exponents)
            assert analyze(curve).genus == curve.genus
