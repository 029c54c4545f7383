"""The demos still run against the package: every name they take from
fluidfed exists, and every call of such a name fits its signature.

The demos are parsed, not run, so this stays fast and needs no plotting
backend.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _fluidfed_imports(tree: ast.AST) -> list:
    """(module, name or None, bound name) for each fluidfed import in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fluidfed":
            found += [(node.module, alias.name, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (alias.name, None, alias.asname or alias.name)
                for alias in node.names
                if alias.name.split(".")[0] == "fluidfed"
            ]
    return found


def test_there_are_demos_to_check():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = _fluidfed_imports(ast.parse(path.read_text(), filename=str(path)))
    assert imports, f"{path.name} imports nothing from fluidfed"
    for module, name, _ in imports:
        owner = importlib.import_module(module)
        if name is not None:
            assert hasattr(owner, name), f"{path.name}: {module}.{name} does not exist"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_fit_their_signatures(path):
    # a call with *args or **kwargs cannot be bound without running the demo
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        bound: getattr(importlib.import_module(module), name)
        for module, name, bound in _fluidfed_imports(tree)
        if name is not None
    }
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(imported[node.func.id]).bind(
                *node.args, **{k.arg: None for k in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{node.lineno}: {node.func.id}(...) {exc}")
