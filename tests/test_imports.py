"""Stale imports and exports in the package, and its layering, found with
the stdlib `ast`.

Every name a module of `scrollcurves`, a test or a demo imports must be
used in that file, and the package's `__init__` must export exactly what it imports
through `__all__`, each name of which resolves on the package.  Deleting
a function or a type tends to leave such names behind.  The modules form
one order (`LAYERS`), and each imports only package modules before it;
the intersection theory of `chow` imports nothing of the package but its
errors.
"""

from __future__ import annotations

import ast
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


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("__init__.py defines no __all__")


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS, ids=lambda p: p.stem if p.parent == PACKAGE else p.parent.name + "/" + p.stem
)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = {n: line for n, line in _imported_names(tree).items() if n not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_init_exports_what_it_imports():
    tree = _tree(PACKAGE / "__init__.py")
    exported = _dunder_all(tree)
    assert len(exported) == len(set(exported)), "__all__ lists a name twice"
    imported = _imported_names(tree)
    assert sorted(set(imported) - set(exported)) == []
    missing = [name for name in exported if not hasattr(scrollcurves, name)]
    assert missing == []


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
