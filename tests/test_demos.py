"""The demos and the README's ```python blocks still run against the
package: every name they take from fluidfed exists, and every call of such
a name fits its signature.

The code is parsed, not run, so this stays fast and needs no plotting
backend.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_blocks() -> list:
    """Each ```python block of README.md, parsed with README line numbers."""
    text = (ROOT / "README.md").read_text()
    return [
        ast.increment_lineno(ast.parse(m.group(1), filename="README.md"),
                             text.count("\n", 0, m.start(1)))
        for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)
    ]


# (file name, parsed code), one per demo and per README block
SOURCES = [pytest.param(p.name, ast.parse(p.read_text(), filename=str(p)), id=p.name)
           for p in DEMOS]
SOURCES += [pytest.param("README.md", tree, id=f"README.md-{i}")
            for i, tree in enumerate(_readme_blocks(), 1)]


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


@pytest.mark.parametrize("name, tree", SOURCES)
def test_demo_imports_resolve(name, tree):
    imports = _fluidfed_imports(tree)
    assert imports, f"{name} imports nothing from fluidfed"
    for module, attr, _ in imports:
        owner = importlib.import_module(module)
        if attr is not None:
            assert hasattr(owner, attr), f"{name}: {module}.{attr} does not exist"


@pytest.mark.parametrize("name, tree", SOURCES)
def test_demo_calls_fit_their_signatures(name, tree):
    # a call with *args or **kwargs cannot be bound without running the code
    imported = {
        bound: getattr(importlib.import_module(module), attr)
        for module, attr, bound in _fluidfed_imports(tree)
        if attr is not None
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
            pytest.fail(f"{name}:{node.lineno}: {node.func.id}(...) {exc}")
