"""The demos still import: every name they take from fluidfed exists.

The demos are parsed, not run, so this stays fast and needs no plotting
backend.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _fluidfed_imports(path: Path) -> list:
    """(module, name or None) for each fluidfed import in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fluidfed":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "fluidfed"
            ]
    return found


def test_there_are_demos_to_check():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = _fluidfed_imports(path)
    assert imports, f"{path.name} imports nothing from fluidfed"
    for module, name in imports:
        owner = importlib.import_module(module)
        if name is not None:
            assert hasattr(owner, name), f"{path.name}: {module}.{name} does not exist"
