"""Every name a module of the package imports is used in it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "openset"


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads. A name read counts as a
    use, and so does a string in a module-level `__all__`, which re-exports."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_name():
    source = "import numpy as np\nfrom .gradcore import Array, as_matrix\n\nx: Array = np.zeros(1)\n"
    assert unused_imports(source) == ["line 2: as_matrix"]
    assert unused_imports("from .a import f\n\n__all__ = ['f']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


ROOT = SRC.parent.parent


def unused_definitions(definitions: dict[str, list[str]], sources: list[str]) -> list[str]:
    """The module-level functions and classes in `definitions` (module ->
    names) that no source names: a name read, an attribute, an imported name
    or a string equal to the name counts (`perfbench/tracer.py` names its
    targets in strings); the definition itself does not."""
    named: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return [f"{module}: {name}" for module, names in definitions.items() for name in names if name not in named]


def _definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def test_the_check_sees_an_unused_definition():
    definitions = {"m.py": ["used", "traced", "unused"]}
    sources = ["def used():\n    pass\n\n\ndef traced():\n    pass\n\n\ndef unused():\n    used()\n",
               "TARGETS = [('openset.m', 'traced')]\n"]
    assert unused_definitions(definitions, sources) == ["m.py: unused"]


def test_every_definition_has_a_user():
    definitions = {path.name: _definitions(path) for path in sorted(SRC.glob("*.py"))}
    sources = [path.read_text(encoding="utf-8")
               for folder in ("src", "tests", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert sum(map(len, definitions.values())) > 0
    assert unused_definitions(definitions, sources) == []
