"""Import hygiene of the ainfkit sources, read from their syntax trees.

Every import sits at module level, so a module's dependencies are the ones
listed at its top, and no module imports another module's `_private` name.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ainfkit")
                 .glob("*.py"))


def _function_imports(tree):
    """Line numbers of the imports inside a function body."""
    return sorted({node.lineno for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def _private_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if any(part.startswith("_")
                       for part in alias.name.split(".")):
                    yield node.lineno, alias.name


def test_sources_found():
    assert len(SOURCES) >= 12


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _function_imports(tree) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_of_a_private_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert list(_private_imports(tree)) == []


def test_checks_see_what_they_forbid():
    tree = ast.parse(
        "from ainfkit.ainf import _relation_tuples\n"
        "import ainfkit._hidden\n"
        "def f():\n"
        "    from ainfkit.kunneth import kunneth_K\n"
        "    def g():\n"
        "        import json\n")
    assert _function_imports(tree) == [4, 6]
    assert list(_private_imports(tree)) == [
        (1, "ainfkit.ainf._relation_tuples"), (2, "ainfkit._hidden")]
