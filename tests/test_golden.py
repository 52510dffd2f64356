"""Golden bytes of the behaviour contract.

Every digest below is the sha256 of output taken before the curve record
and the scroll type were merged: catalog renders in all three formats,
the filtered catalogs, `analyze` in json and markdown, and the stdout and
exit code of every strict audit.  The stdout of each demo's `main()` is
pinned the same way, taken before `ValueSet` was deleted.  A change that
keeps the contract keeps every digest; `test_byte_stable` in
test_catalog.py only compares two runs of the same code with each other.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from scrollcurves.catalog import build_catalog, render
from scrollcurves.cli import main
from scrollcurves.fixtures import fixture_names

FORMATS = ("json", "csv", "markdown")

CATALOGS = {
    "genus 1..8": (
        range(1, 9),
        {},
        {
            "json": "ced629e69593b59a28a1434abf990c0b7a5409274827d2baac7878a6bcad1c14",
            "csv": "7cf56702759c434f495251611f4187ada582dd2ab7c0e2b0cf601987c40167f9",
            "markdown": "17fd6b0527cea278c9803d12cfabd0fc193f500683799310a84a96301359e480",
        },
    ),
    "genus 4..8 non-Gorenstein": (
        range(4, 9),
        {"non_gorenstein": True},
        {
            "json": "ceb4cbfe4a7c00785a40d6a3d8b7feccbedefc502730e46b29768db41c5fabd9",
            "csv": "96b88f1e93568165dadf5b6c1f1cd1e06e4a89ab3cd0225bae54b319f4a38c2e",
            "markdown": "852f8d5c750c491da76f048e22ef3a01a322b592b7a3ef2c45466c838d244ee3",
        },
    ),
    "genus 4..8 scroll dimension 3": (
        range(4, 9),
        {"scroll_dim": 3},
        {
            "json": "3a88e00856b0a0f4b1caf4df3342f73dea5f9064e4d9de6cad0aa04db64f3e4b",
            "csv": "81ed476d0ff94d9675b1c4f274338f59e3d7df8dba773386319e959e7cdeac01",
            "markdown": "aa9599963a4c214dc7ebfa6e8ba4a00c57a8349dd6fbb4c13946dfb0337113f4",
        },
    ),
}

ANALYZE = {
    ("4,5,7,8", "json"): "bd4f96e691371338642ea33c41dd42b0400e3f49f4a62fe903bc161c84e1f46d",
    ("4,5,7,8", "md"): "11e931f6c06dbf1b7e8dc12b35eabf980efd55d7d7657bf1b97bcda6917f07b3",
    ("4,6,7,8,9", "json"): "a8e031cd9f6c3008b92bc7416082c0e3a6789065acb44b7c7679248a4aae31c5",
    ("4,6,7,8,9", "md"): "e1d92dab464520e35586aab6e3f5cea585ca43771b41fb1ec76bd7eea991f76b",
    ("2,10,11", "json"): "a8a2fb81710d84bf3bbf36ed115be6c18fb3cbc608b52b6d80bd5c9c4fe16023",
    ("2,10,11", "md"): "6405956e0764174c939515890a8d54945274ab3a713153d78e4692262f23ea23",
    ("5,6,13,14", "json"): "61682ef9c781a03b74940cb7b8d09cd0270a27923ef8571a94a8994d4f52888c",
    ("5,6,13,14", "md"): "e459551a5a3a8967b6f057278524ea5a5a33d661f71a02f708183d4a3c232399",
}

AUDITS = {
    "surface-g4": (0, "aca478d84d38fa1e2c9032afe78c0acb26f11fd2238a368ef3743f87f2221b6c"),
    "surface-g5": (3, "3fea329b6bbc1ec038446ed1377c2beff7632ab74c53d18bf2d8c13a8c34bbf6"),
    "surface-g6": (0, "82e08042a2517eb191839aa22f594fb087b4730f2805ac6c3499ee75145ecc76"),
    "threefold-g6": (3, "d972a9aeafa41f491f1764c5c2ff0965855c6948aebfa32e8d4b8a14f32e6090"),
    "threefold-g7": (3, "251c04ca0813d6c324ba154d830f1ec8b4125313f6b2e95452077888d4a8d0b8"),
    "threefold-g8": (3, "c08556f341ab291b01f36d5c8b0aef476b622fff08d5104a17cbc161f1bf0e98"),
    "twopoint-g4": (0, "7a75a270686d4bc6deca0b79f77fb8b1eb8bfeaa2bff30aae10e2f0a60a775f6"),
    "twopoint-g5": (3, "0c2338322022558d60d2f02cdf2b52ebc44342994ccd1317b4c71a8e79eb199d"),
}

DEMOS = {
    "canonical_models": "b374de3b4fa2a96299e3052cec34cce45f1984e861f483c549bbf805cbddfeba",
    "chow_formulas": "59156d7f9774a4029e7c035573acdc60a62d5aa0370acc8713e05b4b31ff4bd5",
    "gonality_and_scrolls": "3cb07790a214ca1508fd93a93af2fea1d4a901f1ce65fa707e5e2bba753c97cd",
    "semigroup_tour": "840a0f2a5e3c42c0de09273bc76cfc8a3592884803074ed394dba1d0f2781938",
    "table_audit": "e4ba1d40e103c79463ae5340140a5eac46b97b61dee31c21c1b162ebc92cf42e",
}

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_catalog_renders(name):
    genera, options, digests = CATALOGS[name]
    rows = build_catalog(genera, **options)
    assert {fmt: sha256(render(rows, fmt)) for fmt in FORMATS} == digests


@pytest.mark.parametrize("exponents, fmt", sorted(ANALYZE))
def test_analyze_output(capsys, exponents, fmt):
    code = main(["analyze", "--exponents", exponents, "--format", fmt])
    assert (code, sha256(capsys.readouterr().out)) == (0, ANALYZE[exponents, fmt])


def test_strict_audits(capsys):
    assert sorted(fixture_names()) == sorted(AUDITS)
    for name in fixture_names():
        code = main(["audit", "--fixture", name, "--strict"])
        assert (code, sha256(capsys.readouterr().out)) == AUDITS[name], name


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMO_DIR.glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output(capsys, name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMO_DIR / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert sha256(capsys.readouterr().out) == DEMOS[name]
