"""Command line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import subprocess
import sys
import time

import pytest

from scrollcurves import catalog as catalog_module
from scrollcurves import chow as chow_module
from scrollcurves import cli as cli_module
from scrollcurves import curves as curves_module
from scrollcurves import fixtures as fixtures_module
from scrollcurves import scrolls as scrolls_module
from scrollcurves.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


class TestAnalyze:
    def test_json_output(self, capsys):
        code, out, _ = run_cli("analyze", "--exponents", "4,5,7,8", capsys=capsys)
        assert code == 0
        record = json.loads(out)
        assert record["genus"] == 4
        assert record["gonality"] == 3
        assert record["flags"]["kunz"] is True
        assert record["canonical"] == [0, 3, 4, 5]
        assert record["structures"] == [{"dims": [0, 2], "step": 1, "ell": 1}]

    def test_md_output(self, capsys):
        code, out, _ = run_cli(
            "analyze", "--exponents", "4,6,7,8,9", "--format", "md", capsys=capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "| C | gn | class | C' | structures |"
        assert "| NG |" in lines[2]

    def test_spaces_allowed_in_list(self, capsys):
        code, out, _ = run_cli("analyze", "--exponents", "4, 5, 7, 8", capsys=capsys)
        assert code == 0
        assert json.loads(out)["genus"] == 4

    def test_genus_zero_is_a_validation_error(self, capsys):
        code, out, err = run_cli("analyze", "--exponents", "1,2", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: (1:t^1:t^2) has genus 0, no canonical sections\n"

    def test_wide_curve_row_is_fast_and_unchanged(self, capsys):
        # genus 4,851: the dualizing certificate shifts the semigroup at
        # infinity once per canonical exponent, as int-mask work, not loops
        # over tuples; both branches have two generators, so they are
        # symmetric and mu needs no sieve.  The digest is the stdout of the
        # tuple-set routes.
        start = time.perf_counter()
        code, out, _ = run_cli("analyze", "--exponents", "3,100", capsys=capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2e92ddd070160e1f583d493a76ac88a1781123266c2798d37be23c89c60ae899"
        )
        assert elapsed < 3.0

    def test_wider_curve_row_is_fast_and_unchanged(self, capsys):
        # genus 19,701; the g' curve sieves 19,700 generators for a
        # conductor of 39,004, one and of two ints per integer.  The digest
        # is the stdout of the any() sieve and the full gonality window.
        start = time.perf_counter()
        code, out, _ = run_cli("analyze", "--exponents", "3,200", capsys=capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2580f1a376471eb421d32b5c92822e606fdfc4958a910001581a96ebc4901af5"
        )
        assert elapsed < 3.0

    def test_non_symmetric_wide_row_is_fast_and_unchanged(self, capsys):
        # genus 8,177; the branch at infinity has eta 73, so mu sieves the
        # semigroup its K generates, where a Minkowski chain of K took
        # 56 sumsets over the whole mask.  The digest is the stdout of the
        # chain and the stabilizer.
        start = time.perf_counter()
        code, out, _ = run_cli("analyze", "--exponents", "4,6,223", capsys=capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "afac58f94642afd4aceff547c8b72ea897c4d1b0ee0b27d90ab4ea27bce376e5"
        )
        assert elapsed < 1.0

    def test_input_past_the_schur_limit_is_refused(self, capsys):
        code, out, err = run_cli("analyze", "--exponents", "3,401", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: the branch at infinity has Schur bound 159198 on its "
            "conductor, past the limit 50000\n"
        )

    def test_genus_count_mismatch_exits_cleanly(self, capsys, monkeypatch):
        monkeypatch.setattr(curves_module.MonomialCurve, "genus", property(lambda self: 5))
        code, out, err = run_cli("canonical", "--exponents", "4,5,7,8", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: (1:t^4:t^5:t^7:t^8) has 4 canonical sections but genus 5\n"


class TestSingleValueCommands:
    def test_canonical(self, capsys):
        code, out, _ = run_cli("canonical", "--exponents", "4,5,7,8", capsys=capsys)
        assert (code, out.strip()) == (0, "(1:t^3:t^4:t^5)")

    def test_gonality(self, capsys):
        code, out, _ = run_cli("gonality", "--exponents", "3,7,8", capsys=capsys)
        assert (code, out.strip()) == (0, "3")

    def test_gonality_of_a_wide_curve_skips_the_row(self, capsys):
        # genus 4,851; the whole row (mu, scroll structures, the dualizing
        # certificate) takes seconds, the answer alone a fraction of one
        start = time.perf_counter()
        code, out, _ = run_cli("gonality", "--exponents", "3,100", capsys=capsys)
        elapsed = time.perf_counter() - start
        assert (code, out.strip()) == (0, "99")
        assert elapsed < 2.0

    def test_gonality_checks_the_scroll_correspondence(self, capsys, monkeypatch):
        # 3,7,8 has genus 4, gonality 3 and minimum scroll dimension 2
        monkeypatch.setattr(scrolls_module, "min_scroll_dimension", lambda values: 3)
        code, out, err = run_cli("gonality", "--exponents", "3,7,8", capsys=capsys)
        assert (code, out) == (2, "")
        assert "trigonal correspondence" in err

    def test_scrolls(self, capsys):
        code, out, _ = run_cli(
            "scrolls", "--exponents", "3,7,8", "--max-dim", "3", capsys=capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "canonical exponents: 0 1 3 4"
        assert lines[1] == "min scroll dimension: 2"
        assert "d=2 step=1 ell=1 dims=(1,1) blocks=0,1|3,4" in lines
        assert any(line.startswith("d=3") for line in lines)

    def test_scrolls_max_dim_caps_output(self, capsys):
        code, out, _ = run_cli(
            "scrolls", "--exponents", "3,7,8", "--max-dim", "2", capsys=capsys
        )
        assert code == 0
        assert not any(line.startswith("d=3") for line in out.splitlines())

    def test_scrolls_past_the_split_limit_is_refused(self, capsys):
        # up to dimension 10 the 40 canonical exponents take 67 million
        # splits, 50.9 million at d = 10; the count passes the limit at
        # d = 8 and nothing is enumerated
        start = time.perf_counter()
        code, out, err = run_cli(
            "scrolls", "--exponents", "3,61,62", "--max-dim", "10", capsys=capsys
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: scroll structures up to dimension 10 take more than "
            "1000000 block splits\n"
        )
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "exponents, top", [("3,200", 19701), ("156,311", 47895)]
    )
    def test_scrolls_with_a_huge_max_dim_is_refused_fast(self, exponents, top):
        # every dimension from the minimum (198 for 3,200) up to the genus:
        # the splits pass the limit within a few dimensions, so the count
        # stops there instead of summing over all of them for minutes
        proc = subprocess.run(
            [sys.executable, "-m", "scrollcurves.cli", "scrolls",
             "--exponents", exponents, "--max-dim", "100000"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: scroll structures up to dimension {top} take more than "
            "1000000 block splits\n"
        )

    def test_scrolls_under_the_split_limit(self, capsys):
        # 324,762 splits, 704 structures
        code, out, _ = run_cli(
            "scrolls", "--exponents", "3,31,32", "--max-dim", "14", capsys=capsys
        )
        lines = out.splitlines()
        assert (code, len(lines)) == (0, 2 + 704)
        assert lines[-1].startswith("d=14 ")

    def test_split_limit_is_inclusive(self, capsys, monkeypatch):
        # 3,7,8 up to dimension 3 walks 2 + 6 splits
        monkeypatch.setattr(scrolls_module, "SPLIT_LIMIT", 8)
        code, _, _ = run_cli("scrolls", "--exponents", "3,7,8", "--max-dim", "3", capsys=capsys)
        assert code == 0
        monkeypatch.setattr(scrolls_module, "SPLIT_LIMIT", 7)
        code, out, err = run_cli(
            "scrolls", "--exponents", "3,7,8", "--max-dim", "3", capsys=capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: scroll structures up to dimension 3 take more than 7 block splits\n"


class TestCatalog:
    def test_csv_row_count(self, capsys):
        code, out, _ = run_cli(
            "catalog", "--genus", "4", "--non-gorenstein", "--format", "csv",
            capsys=capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 4

    def test_genus_range_json(self, capsys):
        code, out, _ = run_cli("catalog", "--genus", "4..5", capsys=capsys)
        assert code == 0
        assert len(json.loads(out)) == 7 + 12

    def test_scroll_dim_filter(self, capsys):
        code, out, _ = run_cli(
            "catalog", "--genus", "6", "--scroll-dim", "3", "--non-gorenstein",
            capsys=capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert {tuple(r["exponents"]) for r in rows} == {
            (4, 7, 8, 9),
            (4, 7, 10, 12, 13),
            (5, 7, 8, 10, 11),
            (5, 6, 8, 10, 11),
        }

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.json"
        code, out, _ = run_cli(
            "catalog", "--genus", "4", "--out", str(target), capsys=capsys
        )
        assert code == 0
        assert out == ""
        assert len(json.loads(target.read_text())) == 7

    def test_unwritable_out_file_is_one_error_line(self, tmp_path, capsys):
        target = tmp_path / "missing" / "rows.json"
        code, out, err = run_cli(
            "catalog", "--genus", "4", "--out", str(target), capsys=capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    def test_unwritable_out_is_refused_before_building(self, tmp_path, monkeypatch, capsys):
        def build_catalog(*args, **kwargs):
            raise AssertionError("the catalog was built for an unwritable --out")

        monkeypatch.setattr(catalog_module, "build_catalog", build_catalog)
        for target in (tmp_path / "missing" / "rows.json", tmp_path):
            code, out, err = run_cli(
                "catalog", "--genus", "4..16", "--out", str(target), capsys=capsys
            )
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(target) in err

    def test_refused_genus_leaves_out_untouched(self, tmp_path, capsys):
        existing = tmp_path / "rows.json"
        existing.write_bytes(b"kept\n")
        fresh = tmp_path / "fresh.json"
        for target in (existing, fresh):
            code, out, err = run_cli(
                "catalog", "--genus", "17..20", "--out", str(target), capsys=capsys
            )
            assert (code, out) == (2, "")
            assert err == "error: genus 17 exceeds the enumeration bound 16\n"
        assert existing.read_bytes() == b"kept\n"
        assert not fresh.exists()

    def test_genus_range_stops_at_the_bound(self, capsys):
        code, out, err = run_cli("catalog", "--genus", "17..100000", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: genus 17 exceeds the enumeration bound 16\n"


class TestAudit:
    def test_clean_table(self, capsys):
        code, out, _ = run_cli("audit", "--fixture", "surface-g4", capsys=capsys)
        assert code == 0
        assert "matched 4 of 4" in out

    def test_strict_clean(self, capsys):
        code, _, _ = run_cli(
            "audit", "--fixture", "surface-g4", "--strict", capsys=capsys
        )
        assert code == 0

    def test_strict_flagged(self, capsys):
        code, out, _ = run_cli(
            "audit", "--fixture", "surface-g5", "--strict", capsys=capsys
        )
        assert code == 3
        assert "matched 9 of 10" in out

    def test_lax_flagged(self, capsys):
        code, _, _ = run_cli("audit", "--fixture", "surface-g5", capsys=capsys)
        assert code == 0

    def test_unknown_fixture(self, capsys):
        code, _, err = run_cli("audit", "--fixture", "nope", capsys=capsys)
        assert code == 2
        assert "available" in err


class TestFormula:
    def test_chi_spot_value(self, capsys):
        code, out, _ = run_cli(
            "formula", "chi", "--d", "3", "--e", "3", "--h", "1", "--f", "0",
            capsys=capsys,
        )
        assert (code, out.strip()) == (0, "6")

    def test_chi_trivial_bundle(self, capsys):
        code, out, _ = run_cli(
            "formula", "chi", "--d", "2", "--e", "4", "--h", "0", "--f", "0",
            capsys=capsys,
        )
        assert (code, out.strip()) == (0, "1")

    def test_pa_bundle_tetragonal_value(self, capsys):
        code, out, _ = run_cli(
            "formula", "pa-bundle", "--e", "3", "--u", "4", "--v", "-1",
            "--w", "4", "--z", "-2", capsys=capsys,
        )
        assert (code, out.strip()) == (0, "6")

    def test_pa_bundle_non_integral_text(self, capsys):
        code, out, err = run_cli(
            "formula", "pa-bundle", "--e", "3", "--u", "2", "--v", "1",
            "--w", "1", "--z", "0", capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: bundle data RankTwoBundleClass(u=2, v=1, w=1, z=0) yields genus 1/2; "
            "no such curve exists\n"
        )

    def test_disagreeing_routes_text(self, capsys, monkeypatch):
        """A forced disagreement of the chi routes exits 2 with its values
        reduced."""
        real = chow_module._tangent
        monkeypatch.setattr(
            chow_module, "_tangent", lambda amb: real(amb)._replace(todd=real(amb).todd + 1)
        )
        code, out, err = run_cli(
            "formula", "chi", "--d", "3", "--e", "3", "--h", "1", "--f", "1",
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: chi closed form 9 vs ring evaluation 217/24 on (1, 1, 1), "
            "class DivisorClass(h=1, f=1)\n"
        )

    def test_chi_rejects_dimension(self, capsys):
        code, _, err = run_cli(
            "formula", "chi", "--d", "4", "--e", "4", "--h", "1", "--f", "0",
            capsys=capsys,
        )
        assert code == 2
        assert "error" in err

    def test_chi_rejects_zero_dimension(self, capsys):
        code, out, err = run_cli(
            "formula", "chi", "--d", "0", "--e", "3", "--h", "1", "--f", "1",
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("d", ["1", "1000000000"])
    def test_chi_refuses_other_dimensions_before_the_scroll(self, capsys, monkeypatch, d):
        monkeypatch.setattr(chow_module.Ambient, "balanced", None)
        code, out, err = run_cli(
            "formula", "chi", "--d", d, "--e", "3", "--h", "1", "--f", "1",
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: closed-form chi needs d in {{2, 3}}, got d={d}\n"

    def test_chi_rejects_cone(self, capsys):
        code, out, err = run_cli(
            "formula", "chi", "--d", "2", "--e", "1", "--h", "1", "--f", "0",
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: Chow operations need a smooth scroll, got (0, 1)\n"

    def test_pa_bundle_rejects_cone(self, capsys):
        code, out, err = run_cli(
            "formula", "pa-bundle", "--e", "2", "--u", "2", "--v", "0",
            "--w", "1", "--z", "0",
            capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: Chow operations need a smooth scroll, got (0, 1, 1)\n"


class TestExitCodes:
    def test_no_command(self, capsys):
        assert run_cli(capsys=capsys)[0] == 1

    def test_unknown_command(self, capsys):
        assert run_cli("bogus", capsys=capsys)[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run_cli("analyze", capsys=capsys)[0] == 1

    def test_malformed_exponent_list(self, capsys):
        assert run_cli("analyze", "--exponents", "4,a", capsys=capsys)[0] == 1

    def test_malformed_genus_range(self, capsys):
        assert run_cli("catalog", "--genus", "4..x", capsys=capsys)[0] == 1

    def test_domain_validation(self, capsys):
        code, _, err = run_cli("analyze", "--exponents", "0,5", capsys=capsys)
        assert code == 2
        assert "error" in err

    def test_genus_bound(self, capsys):
        assert run_cli("catalog", "--genus", "40", capsys=capsys)[0] == 2

    def test_help(self, capsys):
        code, out, _ = run_cli("--help", capsys=capsys)
        assert code == 0
        assert "COMMAND" in out


def _commands(parser):
    """The subcommand action of a parser, or None."""
    found = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return found[0] if found else None


class TestParser:
    SEQUENCE = [
        ["canonical", "--exponents", "4,5,7,8"],
        ["analyze", "--exponents", "4,5,7,8"],
        ["formula", "chi", "--d", "3", "--e", "3", "--h", "1", "--f", "1"],
        ["canonical", "--exponents", "3,7,8"],
        ["analyze"],
        ["formula", "chi", "--d", "x"],
        ["bogus"],
    ]

    def test_one_parser_answers_as_fresh_ones_do(self, capsys, monkeypatch):
        """The parser `main` keeps builds each subcommand on first use and
        reuses it; its answers equal those of a fresh parser per call."""

        def answers():
            return [run_cli(*argv, capsys=capsys) for argv in self.SEQUENCE]

        monkeypatch.setattr(cli_module, "_parser", functools.cache(cli_module.build_parser))
        kept = answers()
        assert [code for code, _, _ in kept] == [0, 0, 0, 0, 1, 1, 1]
        assert cli_module._parser.cache_info().misses == 1
        monkeypatch.setattr(cli_module, "_parser", cli_module.build_parser)
        assert answers() == kept

    @pytest.mark.parametrize(
        "path",
        [(), ("analyze",), ("canonical",), ("gonality",), ("scrolls",), ("catalog",),
         ("audit",), ("formula",), ("formula", "chi"), ("formula", "pa-bundle")],
        ids=lambda path: "-".join(path) or "top",
    )
    def test_help_names_every_option_and_command(self, path, capsys, monkeypatch):
        """Each parser's `--help`, the subcommands' built on demand, exits 0
        and names every option the parser defines and every command under
        it."""
        parser = cli_module.build_parser()
        monkeypatch.setattr(cli_module, "_parser", lambda: parser)
        code, out, err = run_cli(*path, "--help", capsys=capsys)
        assert (code, err) == (0, "")
        for name in path:
            parser = _commands(parser)._name_parser_map[name]
        commands = _commands(parser)
        names = [s for action in parser._actions for s in action.option_strings]
        names += list(commands.choices) if commands else []
        missing = [n for n in names if not re.search(rf"(?<![\w-]){re.escape(n)}(?![\w-])", out)]
        assert missing == []

    def test_audit_help_lists_every_table(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")
        code, out, _ = run_cli("audit", "--help", capsys=capsys)
        assert code == 0
        listed = re.search(r"table name: (.*)", out).group(1).split(", ")
        assert listed == list(fixtures_module.fixture_names())


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "scrollcurves.cli", "gonality", "--exponents", "4,5,7,8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"
