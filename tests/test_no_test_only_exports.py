"""Static guard: the package exports no name whose only callers are tests.

Every name in the ``__all__`` of a ``src/w22/*.py`` module must be read,
as a name or as an attribute, somewhere outside the tests: in a package
module other than ``__init__.py`` (whose imports are the exports
themselves), in the benchmark under ``perfbench/``, or in the README's
library quickstart.
"""

import ast
import importlib
from pathlib import Path

import pytest

import w22
from test_readme import quickstart_lines

PACKAGE = sorted(p for p in Path(w22.__file__).parent.glob("*.py") if p.name != "__init__.py")
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def read_names(tree):
    """The names and attributes an expression of ``tree`` reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unread_exports(exports, trees):
    read = set().union(*map(read_names, trees))
    return sorted(name for name in exports if name not in read)


CALLERS = [ast.parse(p.read_text(), str(p)) for p in PACKAGE + PERFBENCH] + [
    ast.parse("\n".join(quickstart_lines()), "<quickstart>")
]


def test_sources_found():
    assert {"identities.py", "verma.py"} <= {p.name for p in PACKAGE}
    assert {"run.py", "workloads.py"} <= {p.name for p in PERFBENCH}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_export_has_a_caller_outside_the_tests(path):
    module = importlib.import_module(f"w22.{path.stem}")
    assert unread_exports(module.__all__, CALLERS) == []


def test_guard_catches_names_defined_or_stored_but_never_read():
    tree = ast.parse("def f(): pass\ndef g(): return 1\nx = 1\nclass K: pass\ny = g()")
    assert unread_exports(["f", "g", "x", "K"], [tree]) == ["K", "f", "x"]


def test_guard_accepts_names_and_attributes():
    tree = ast.parse("import m\nm.f()\ng(h)")
    assert unread_exports(["f", "g", "h"], [tree]) == []
