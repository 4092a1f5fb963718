"""Every name a module of the package imports is used in it.

No linter is part of the test environment, so this guard parses each
module with `ast`: a name bound by an import must appear as a name in the
module, or, in `__init__`, be listed in `__all__`. It catches the imports
that deleting a function leaves behind.
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
