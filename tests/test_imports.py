"""Imports stay honest.

An AST scan of the package modules (the ``__init__`` re-exports
excepted) and of the test modules: a name bound by an ``import`` must
appear as a name somewhere else in its module, or in its ``__all__``.
The README's library example must import only names that exist.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(
    path for path in (ROOT / "src" / "mcis").rglob("*.py") if path.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """``name:line`` for each imported name the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name}:{line}" for name, line in imported.items() if name not in used]


def test_scanner_flags_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Any, Sequence\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Sequence) -> None:\n"
        "    return os.path.join(a)\n"
    )
    assert unused_imports(source) == ["np:3", "Any:4"]


@pytest.mark.parametrize(
    "path", SCANNED, ids=[str(p.relative_to(ROOT)) for p in SCANNED]
)
def test_imported_names_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_readme_library_example_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [
        node for node in ast.parse(block).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    modules = [getattr(node, "module", None) or node.names[0].name for node in imports]
    assert any(module.startswith("mcis") for module in modules)
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
