"""Every name a module of the package imports is used in it, and every
private function or class it defines is used in the package.

No linter is part of the test environment, so these guards parse each
module with `ast`: a name bound by an import must appear as a name in the
module, or, in `__init__`, be listed in `__all__`. That catches the imports
that deleting a function leaves behind. A module-level function or class
whose name starts with `_` must be named (or imported) somewhere in the
package, which catches a private helper that only its own tests still call.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dupcodes"


def unused_imports(source: str) -> list[str]:
    """The names that the module source imports and never uses, sorted."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_guard_finds_an_unused_import():
    source = "import numpy as np\nfrom .channel import deletion_rows, error_keys\n__all__ = ['error_keys']\n"
    assert unused_imports(source) == ["deletion_rows", "np"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == [], path.name


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """The module-level private functions and classes of the package
    (module name -> source) that no module names or imports, sorted as
    module.name."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_the_guard_finds_an_unreferenced_private_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n\ndef public():\n    def _inner():\n        pass\n    return _used\n",
    }
    assert unreferenced_privates(sources) == ["a._Gone", "a._dead"]


def test_every_private_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []
