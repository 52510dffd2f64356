"""Stale imports and exports in the package, its layering, and the modules
each command loads.

Every name a module of `scrollcurves`, a test or a demo imports must be
used in that file (found with the stdlib `ast`), and the package's
`__init__` exports exactly the names of its export table through
`__all__`, each of which resolves on the package to the object its home
module holds.  Deleting a function or a type tends to leave such names
behind.  The modules form one order (`LAYERS`), and each imports only
package modules before it; the intersection theory of `chow` imports
nothing of the package but its errors.  A fresh interpreter running one
command loads only the layers that command runs.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scrollcurves

PACKAGE = Path(scrollcurves.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))
LAYERS = (
    "errors", "fixtures", "semigroups", "curves", "chow", "scrolls", "checks", "catalog", "cli"
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including the head of a dotted access."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS, ids=lambda p: p.stem if p.parent == PACKAGE else p.parent.name + "/" + p.stem
)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = {n: line for n, line in _imported_names(tree).items() if n not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_init_exports_what_it_imports():
    """The package imports each export from its home module on first
    access, as its table (module -> names) says."""
    table = scrollcurves._EXPORTS
    names = [name for names in table.values() for name in names]
    assert len(names) == len(set(names)), "the export table lists a name twice"
    assert scrollcurves.__all__ == sorted(names)
    for module, names in table.items():
        home = importlib.import_module(f"scrollcurves.{module}")
        for name in names:
            value = getattr(scrollcurves, name)
            assert value is getattr(home, name), name
            assert getattr(value, "__module__", home.__name__) == home.__name__, name
    listed = set(dir(scrollcurves))
    assert [name for name in scrollcurves.__all__ if name not in listed] == []
    with pytest.raises(AttributeError):
        scrollcurves.no_such_export


@pytest.mark.parametrize("module", sorted(scrollcurves._EXPORTS))
def test_init_resolves_the_modules_it_exports_from(module, monkeypatch):
    """`import scrollcurves` then `scrollcurves.chow` works without an
    import of the module itself, as when the package imported every one."""
    loaded = importlib.import_module(f"scrollcurves.{module}")
    monkeypatch.delattr(scrollcurves, module)
    assert getattr(scrollcurves, module) is loaded


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports; inside the package every
    import of its own modules is relative."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules.update([node.module] if node.module else [a.name for a in node.names])
    return modules


def test_layers_name_every_module():
    assert sorted(LAYERS) == [p.stem for p in MODULES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_follow_the_layers(path):
    rank = LAYERS.index(path.stem)
    imported = _package_imports(_tree(path))
    later = sorted(m for m in imported if LAYERS.index(m) >= rank)
    assert not later, f"{path.name} imports {later}, at or above its layer"
    if path.stem == "chow":
        assert imported <= {"errors"}


def test_cli_import_loads_no_dataclass_machinery():
    """The records are named tuples and slotted classes, so a fresh
    `import scrollcurves.cli` loads neither `dataclasses` nor the `inspect`
    it pulls in (with `ast`, `dis` and `tokenize`), about 1 MB and 20 ms
    per CLI call."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, scrollcurves.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


# Each row but the last may load the package modules of the rows above it.
_PARSER = {"cli", "errors"}
_CANONICAL = _PARSER | {"semigroups", "curves"}
_SCROLLS = _CANONICAL | {"chow", "scrolls"}
BUDGETS = {
    "parser": (None, _PARSER),
    "usage-error": (["analyze"], _PARSER),
    "formula-chi": (["formula", "chi", "--d", "3", "--e", "3", "--h", "1", "--f", "1"],
                    _PARSER | {"chow"}),
    "formula-pa-bundle": (
        ["formula", "pa-bundle", "--e", "3", "--u", "2", "--v", "0", "--w", "1", "--z", "0"],
        _PARSER | {"chow"},
    ),
    "canonical": (["canonical", "--exponents", "4,5,7,8"], _CANONICAL),
    "scrolls": (["scrolls", "--exponents", "4,5,7,8"], _SCROLLS),
    "gonality": (["gonality", "--exponents", "4,5,7,8"], _SCROLLS | {"checks"}),
    "audit": (["audit", "--fixture", "surface-g4"], set(LAYERS)),
}


@pytest.mark.parametrize("argv, allowed", BUDGETS.values(), ids=BUDGETS)
def test_command_loads_only_its_layers(argv, allowed):
    """A fresh interpreter that builds the parser, or runs one command
    (`analyze` without exponents is a usage error), loads only the package
    modules that command runs, so only `audit` loads the fixture tables,
    and none of fractions or decimal, nor json or csv but through the
    catalog: the package and the CLI import every layer on demand."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = "cli.build_parser()" if argv is None else f"cli.main({argv!r})"
    code = f"import sys\nfrom scrollcurves import cli\n{run}\nprint(sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(ast.literal_eval(done.stdout.splitlines()[-1]))
    package = {m.split(".", 1)[1] for m in loaded if m.startswith("scrollcurves.")}
    assert package <= allowed, sorted(package - allowed)
    banned = {"fractions", "decimal"} | (set() if "catalog" in allowed else {"json", "csv"})
    assert loaded & banned == set()
