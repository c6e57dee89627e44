"""Static exactness guard: no package module can produce a float.

Every ``src/w22/*.py`` is parsed, and the test fails on a float or complex
literal, on the names ``float`` and ``complex``, and on any import from
``math`` other than its integer functions.  The runtime half is the
exactness property in ``test_properties.py`` and the scalar checks of
``Combination.__mul__``.
"""

import ast
from pathlib import Path

import pytest

import w22

SOURCES = sorted(Path(w22.__file__).parent.glob("*.py"))
INTEGER_MATH = {"gcd", "factorial", "isqrt"}


def inexact_constructs(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in ("math", "cmath"):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            for alias in node.names:
                if node.module == "cmath" or alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from {node.module} import {alias.name}"


def test_sources_found():
    assert {"algebra.py", "linalg.py", "scalars.py", "verma.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_inexact_constructs(path):
    assert list(inexact_constructs(ast.parse(path.read_text(), str(path)))) == []


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "y = 2j", "z = float(1)", "w = complex", "import math", "from math import sqrt"],
)
def test_guard_catches(source):
    assert list(inexact_constructs(ast.parse(source)))
