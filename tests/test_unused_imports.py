"""No module in ``src/``, ``tests/`` or ``tools/`` imports a name that it never reads.

A name counts as read when the module loads it anywhere (``ast.Name`` in a
load context, which covers attribute bases, decorators, annotations and
f-strings) or lists it in ``__all__``.  ``__future__`` imports, the
re-exports of an ``__init__.py`` and imports on a line marked
``# noqa: F401`` are exempt.  The check uses the standard library's ``ast``
only, since the project configures no linter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"


def unused_imports(text: str) -> list[str]:
    """The names that the module source ``text`` imports and never reads, in source order."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if NOQA not in lines[alias.lineno - 1] and NOQA not in lines[node.lineno - 1]:
                imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for _line, name in sorted(imported) if name not in read]


def test_the_check_flags_only_unread_imports():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, sys",
        "import numpy.linalg",
        "from json import dumps, loads as parse",
        "from math import pi  # noqa: F401",
        "from collections import (",
        "    Counter,",
        "    deque,  # noqa: F401",
        ")",
        "__all__ = ['dumps']",
        "def f(x: Counter) -> None:",
        "    return numpy.linalg.norm(sys.argv)",
    ])
    assert unused_imports(source) == ["os", "parse"]


def test_no_module_imports_a_name_it_never_reads():
    found = {}
    for top in ("src", "tests", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                names = unused_imports(path.read_text())
                if names:
                    found[str(path.relative_to(ROOT))] = names
    assert found == {}
