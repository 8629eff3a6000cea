"""No dead names in the package: a simplification that removes the last use of
an import, a private helper or a public name must remove it too.

Four rules, read from the source with ``ast`` (no linter is needed):

* every name a module imports is used in that module. ``from __future__``
  imports are exempt;
* every module-level private name (one leading underscore) is referenced
  somewhere in the package besides its own definition, as a bare name or as
  an attribute (``fileio._gc_paused``);
* every module-level public name (function, class or assigned name) is used
  by another package module, by the acceptance suite, by README.md (as a
  whole word) or by the benchmark's tracer (``<module>.<name>``). The click
  commands registered with ``@main.command`` are exempt. The library has one
  surface, reached by module path: ``__init__.py`` holds only its docstring
  and ``__version__``;
* only ``fileio`` opens a file: it owns the file boundary both ways, so no other
  module calls ``open``, ``io.open``, ``os.open`` or ``os.fdopen``.
"""

import ast
import re
from pathlib import Path

import pytest
from test_perfbench_names import _traced_names

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mmwindoor"
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


def _is_command(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` is a function registered as a click command with ``@main.command``."""
    return any(ast.unparse(d).startswith("main.command(") for d in stmt.decorator_list)


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every module-level name the module binds, click commands aside."""
    defined = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not _is_command(stmt):
            defined.append((stmt.name, stmt.lineno))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        defined.append((node.id, stmt.lineno))
    return defined


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every module-level private name the module binds."""
    return [(name, line) for name, line in _definitions(tree)
            if name.startswith("_") and not name.startswith("__")]


def test_the_package_is_read():
    assert {"cli.py", "estimation.py", "fileio.py"} <= TREES.keys()


@pytest.mark.parametrize("module", list(TREES))
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


def test_the_package_root_holds_no_names():
    body = TREES["__init__.py"].body
    assert len(body) == 2 and isinstance(body[0], ast.Expr), "a docstring, then __version__"
    assert [ast.unparse(t) for t in body[1].targets] == ["__version__"]


def test_every_public_name_is_used():
    """A public name that only its own module and its unit tests use is dead surface."""
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    accepted = set(_loaded_names(acceptance)) | {
        alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
        for alias in node.names}
    readme_words = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    traced = set(_traced_names())
    loaded = {module: set(_loaded_names(tree)) for module, tree in TREES.items()}

    def used(module: str, name: str) -> bool:
        return (name in accepted or name in readme_words or f"{module[:-3]}.{name}" in traced
                or any(name in names for other, names in loaded.items() if other != module))

    unused = [f"{module}:{line}: {name}"
              for module, tree in TREES.items() if module != "__init__.py"
              for name, line in _definitions(tree)
              if not name.startswith("_") and not used(module, name)]
    assert not unused, ("public but used by no other module, the acceptance suite, README.md "
                        "or the benchmark:\n" + "\n".join(unused))


#: The calls that open a file, as ``ast.unparse`` writes their callee.
OPENERS = {"open", "io.open", "os.open", "os.fdopen"}


def test_only_fileio_opens_a_file():
    opened = [f"{module}:{node.lineno}: {ast.unparse(node.func)}"
              for module, tree in TREES.items() if module != "fileio.py"
              for node in ast.walk(tree)
              if isinstance(node, ast.Call) and ast.unparse(node.func) in OPENERS]
    assert not opened, "a file opened outside fileio:\n" + "\n".join(opened)
