"""No module of `grng` imports a name it never uses.

No linter ships with the project, so this parses each module with `ast`.
`__init__.py` is exempt, as its imports are the package's re-exports, and
so is `from __future__ import annotations`, which binds no name.
"""

import ast
from pathlib import Path

import pytest

import grng

MODULES = sorted(p for p in Path(grng.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """The names `source` imports and never reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os, sys\nfrom typing import Optional, Tuple\n"
                          "from . import a as b\nsys.exit(b)\n") == [
        "os", "Optional", "Tuple"]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"cli.py", "sampleio.py", "stats.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
