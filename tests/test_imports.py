"""Imports and private helpers stay honest.

An AST scan of the package modules (the ``__init__`` re-exports
excepted) and of the test modules: a name bound by an ``import`` must
appear as a name somewhere else in its module, or in its ``__all__``.
A module-level private name (``_name``) of the package must be read
somewhere in the package, so a helper cannot outlive its last caller.
The README's library example must import only names that exist.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mcis").rglob("*.py"))
SCANNED = [path for path in PACKAGE if path.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py")
)


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


def unread_private_names(sources: dict) -> list[str]:
    """``module:name`` for each module-level ``_name`` (function, class
    or assignment) that no module of ``sources`` reads, as a name or as
    an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [
                (module, name) for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}:{name}" for module, name in defined if name not in read]


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


def test_private_scanner_flags_only_unread_helpers():
    sources = {
        "a": "_LIMIT = 3\n_dead = 1\ndef _helper(x):\n    return x + _LIMIT\n"
             "class _Gone:\n    pass\n",
        "b": "from .a import _helper\nimport a\ndef f():\n    return _helper(1)\n"
             "def g():\n    return a._dead\n",
    }
    assert unread_private_names(sources) == ["a:_Gone"]


def test_private_helpers_are_read_somewhere():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in PACKAGE}
    assert unread_private_names(sources) == []


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
