"""The demos take up to a minute or more each, so they are not run here;
this checks that every name they import from urbanrec still exists."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def urbanrec_imports(tree: ast.Module):
    """(module, name) for each name a file imports from urbanrec."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "urbanrec":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = list(urbanrec_imports(ast.parse(path.read_text(), str(path))))
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), \
            f"{path.name}: {module_name} has no {name}"
