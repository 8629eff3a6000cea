"""No dead names in the package: a simplification that removes the last use of
an import or a private helper must remove the import or the helper too.

Two rules, read from the source with ``ast`` (no linter is needed):

* every name a module imports is used in that module. ``from __future__``
  imports are exempt, and so is ``__init__.py``, whose imports are the
  package's public API;
* every module-level private name (one leading underscore) is referenced
  somewhere in the package besides its own definition, as a bare name or as
  an attribute (``fileio._gc_paused``).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mmwindoor"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def _loaded_names(tree: ast.AST) -> list[str]:
    """Every name the tree reads: bare names and attribute names."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every import in the module, at any depth."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(((alias.asname or alias.name).split(".")[0], node.lineno))
    return bound


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every module-level private name the module binds."""
    defined = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.append((stmt.name, stmt.lineno))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        defined.append((node.id, stmt.lineno))
    return [(name, line) for name, line in defined
            if name.startswith("_") and not name.startswith("__")]


def test_the_package_is_read():
    assert {"cli.py", "estimation.py", "fileio.py"} <= TREES.keys()


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    used = set(_loaded_names(tree))
    unused = [f"{module}:{line}: {name}" for name, line in _imported_names(tree) if name not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_every_private_name_is_referenced():
    referenced = {name for tree in TREES.values() for name in _loaded_names(tree)}
    dead = [f"{module}:{line}: {name}"
            for module, tree in TREES.items()
            for name, line in _private_definitions(tree)
            if name not in referenced]
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
