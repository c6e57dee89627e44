"""Static guard: no package module imports a name it does not use.

Every ``src/w22/*.py`` other than ``__init__.py`` (whose imports are the
package's exports) is parsed, and the test fails on an imported name that
no expression of the module reads.  ``from __future__`` imports are
compiler directives and are exempt.
"""

import ast
from pathlib import Path

import pytest

import w22

SOURCES = sorted(p for p in Path(w22.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_sources_found():
    assert {"algebra.py", "identities.py", "linalg.py", "verma.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "from typing import Optional\nx: int = 1",
        "import os.path\nx = 1",
        "from fractions import Fraction as F\nFraction = 1",
        "from . import linalg\ndef f(linalg_rows): return linalg_rows",
    ],
)
def test_guard_catches(source):
    assert unused_imports(ast.parse(source))


def test_guard_accepts_used_names():
    source = "from __future__ import annotations\nimport os.path\nfrom math import gcd as g\nx = os.path.sep, g"
    assert unused_imports(ast.parse(source)) == []
