"""Stale imports and exports in the package, found with the stdlib `ast`.

Every name a module of `scrollcurves` imports must be used in that
module, and the package's `__init__` must export exactly what it imports
through `__all__`, each name of which resolves on the package.  Deleting
a function or a type tends to leave such names behind.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import scrollcurves

PACKAGE = Path(scrollcurves.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
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
