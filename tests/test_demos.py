"""Every name a demo imports from the package exists, without running the demos."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_imports(path):
    """(module, name) for each ``from rcbasin... import name`` in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "rcbasin"
            for alias in node.names]


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    imports = package_imports(path)
    assert imports, f"{path.name} imports nothing from rcbasin"
    for module, name in imports:
        # as ``from module import name`` does: an attribute, else a submodule
        assert (hasattr(importlib.import_module(module), name)
                or importlib.util.find_spec(f"{module}.{name}") is not None), \
            f"{path.name}: {module}.{name}"
