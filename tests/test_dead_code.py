"""Every module-level function, class and constant of the package has a use.

A name counts as used when it appears somewhere in ``src/fockcanon/`` or
``perfbench/`` outside its own definition: as an identifier, an attribute,
an imported or exported name, or a string that the benchmark looks up with
``getattr``.  Tests do not count, so a function only a test calls fails.
A constant is a name bound by a module-level assignment; dunder names such as
``__version__`` are exempt.

Likewise every module-level import of a package module is used by that
module, or is re-exported: another module of the package imports the name
from it.  The package's ``__init__``
imports only to re-export, so it is exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import fockcanon

PACKAGE = Path(fockcanon.__file__).resolve().parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _names(node, skip: str | None = None):
    """Identifiers that node mentions, leaving out the name ``skip``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.alias):
            name = sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value
        else:
            continue
        if name.isidentifier() and name != skip:
            yield name


def _defined(stmt) -> str | None:
    """The name that a def, a class or a one-name assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def test_every_definition_is_used():
    definitions = []
    uses: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            defined = _defined(stmt) if path.parent == PACKAGE else None
            if defined is not None and not defined.startswith("__"):
                definitions.append((path.name, defined))
            uses.update(_names(stmt, skip=defined))
    unused = [f"{module}: {name}" for module, name in definitions if not uses[name]]
    assert not unused, "defined but never used: " + ", ".join(unused)


def _imported(stmt) -> list[str]:
    """The names that a module-level import binds, ``__future__`` left out."""
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def _reexported(tree) -> set[tuple[str, str]]:
    """(module, name) for each ``from .module import name`` in tree."""
    return {
        (sub.module.removeprefix("fockcanon."), alias.name)
        for sub in ast.walk(tree)
        if isinstance(sub, ast.ImportFrom) and sub.module
        for alias in sub.names
    }


def test_every_import_is_used_or_reexported():
    unused = []
    reexported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        uses = {
            sub.id if isinstance(sub, ast.Name) else sub.value
            for stmt in tree.body
            if not isinstance(stmt, (ast.Import, ast.ImportFrom))
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) or (isinstance(sub, ast.Constant) and isinstance(sub.value, str))
        }
        unused += [
            (path.stem, name, stmt.lineno)
            for stmt in tree.body
            for name in _imported(stmt)
            if name not in uses
        ]
        reexported |= _reexported(tree)
    left = [
        f"{module}.py:{line}: {name}"
        for module, name, line in unused
        if module != "__init__" and (module, name) not in reexported
    ]
    assert not left, "imported but never used: " + ", ".join(left)
