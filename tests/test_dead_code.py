"""Every module-level function, class and constant of the package has a use.

A name counts as used when it appears somewhere in ``src/fockcanon/`` or
``perfbench/`` outside its own definition: as an identifier, an attribute,
an imported or exported name, or a string that the benchmark looks up with
``getattr``.  Tests do not count, so a function only a test calls fails.
A constant is a name bound by a module-level assignment; dunder names such as
``__version__`` are exempt.
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
