"""Every name a module of the package imports is used in it, every
private function or class it defines is used in the package, and the CLI
ends a refused run in one place.

No linter is part of the test environment, so these guards parse each
module with `ast`: a name bound by an import must appear as a name in the
module, or, in `__init__`, be listed in `__all__`. That catches the imports
that deleting a function leaves behind. A module-level function or class
whose name starts with `_` must be named (or imported) somewhere in the
package, which catches a private helper that only its own tests still call.
A public module-level function or class must be named somewhere in the
package outside `__init__`, named by the benchmark harness
(`perfbench/*.py`) or listed as a paper count or a user entry point below,
which catches public code that only the tests read: a re-export in
`__init__` and its `__all__` is not a reader. Every kept entry point has a
line in README's "Public surface", and every top-level helper of
`tests/conftest.py` is named by some test module.
A method of a construction in `cli.CONSTRUCTIONS` holds its rule itself:
it is not a bare `return f(...)` of a public module-level function of
`codes`, apart from the decoders that the benchmark self-test patches by
name, and no two constructions define a method of one name with one body.
A listed paper count or entry point has no reader in the package, so
neither list goes stale. In `cli.py` only `main` may `return 2` or print
an `error:` or `refused:` line; a subcommand raises its refusal instead.
Importing `dupcodes.cli` builds no argparse parser: the first `main` call
does.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dupcodes"
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# Paper counts that only the tests call, each held to an enumeration oracle.
TESTED_PAPER_COUNTS = {"bounds.rll_weight_count", "bounds.irreducible_count", "bounds.deletion_histogram"}
# The paper's operations and its error ball, which nothing in the package
# calls: entry points kept for users, each with its line in README's
# "Public surface" (the quick start runs `tandem_duplicate`).
KEPT_PUBLIC = {
    "channel.tandem_duplicate",
    "channel.tandem_delete",
    "channel.palindromic_duplicate",
    "channel.palindromic_delete",
    "channel.error_ball",
}
# Module functions of `codes` that a construction method may forward to:
# perfbench/selftest.py patches them by name with a wrong decoder, so
# `decode` must look them up at call time (`docs/decisions.md`, D20).
FORWARDED = {"c1_decode", "c2_decode"}


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


def named(tree) -> set[str]:
    """Every name that the tree names or imports, attributes included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


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
        used |= named(tree)
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


def unreferenced_publics(sources: dict[str, str], outside: list[str]) -> list[str]:
    """The module-level public functions and classes of the package (module
    name -> source) that no module but `__init__` and no `outside` source
    names, sorted as module.name: a re-export is not a reader. An outside
    source names what any of its words spells, in strings too: the
    benchmark selects functions by name."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((module, node.name))
        if module != "__init__":
            used |= named(tree)
    for source in outside:
        used.update(re.findall(r"\w+", source))
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_the_guard_finds_an_unreferenced_public_definition():
    sources = {
        "__init__": "from .a import exported\n__all__ = ['exported']\n",
        "a": "def used():\n    pass\n\ndef dead():\n    pass\n\nclass Gone:\n    pass\n\ndef exported():\n    pass\n\n"
        "def benched():\n    pass\n\ndef _private():\n    pass\n",
        "b": "from . import a\n\ndef public():\n    return a.used()\n",
    }
    outside = ["OPS = {'a.benched': ('a', r'benched')}\n"]
    assert unreferenced_publics(sources, outside) == ["a.Gone", "a.dead", "a.exported", "b.public"]


def test_every_public_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    outside = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert sorted(set(unreferenced_publics(sources, outside)) - TESTED_PAPER_COUNTS - KEPT_PUBLIC) == []


def test_no_listed_public_name_has_a_reader_in_the_package():
    """Neither list goes stale: a paper count or kept entry point that a
    module of the package (`__init__` aside) starts to read leaves its
    list. A name that the benchmark spells is still listed, since a
    pattern that selects it for tracing is no reader."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unread = set(unreferenced_publics(sources, []))
    assert sorted((TESTED_PAPER_COUNTS | KEPT_PUBLIC) - unread) == []


def public_surface(readme: str) -> set[str]:
    """The names that README's "Public surface" section gives a line each:
    the backquoted name that opens a list item."""
    section = readme.split("\n## Public surface\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+)", section, re.M))


def test_the_public_surface_is_listed_in_the_readme():
    """Every name of `dupcodes.__all__` and every kept entry point has its
    line in README, and README lists no name that the package does not
    export."""
    import dupcodes

    listed = public_surface((PACKAGE.parents[1] / "README.md").read_text())
    assert listed == set(dupcodes.__all__)
    assert {name.split(".")[1] for name in KEPT_PUBLIC} <= listed


def unnamed_helpers(helpers: str, tests: list[str]) -> list[str]:
    """The top-level functions of the helpers source that no tests source
    names, sorted. A tests source names what any of its words spells, in
    strings too: `monkeypatch.setattr` takes a helper by name."""
    used = {name for source in tests for name in re.findall(r"\w+", source)}
    tree = ast.parse(helpers)
    return sorted(node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name not in used)


def test_the_guard_finds_an_unnamed_conftest_helper():
    helpers = "def used():\n    pass\n\ndef patched():\n    pass\n\ndef dead():\n    return used()\n"
    tests = [
        "from conftest import used\n",
        "import conftest\n\ndef test(monkeypatch):\n    monkeypatch.setattr(conftest, 'patched', None)\n",
    ]
    assert unnamed_helpers(helpers, tests) == ["dead"]


def test_every_conftest_helper_is_named_by_a_test_module():
    tests_dir = Path(__file__).resolve().parent
    tests = [path.read_text() for path in sorted(tests_dir.glob("test_*.py"))]
    assert unnamed_helpers((tests_dir / "conftest.py").read_text(), tests) == []


def methods(source: str, classes: set[str]):
    """(Class, method name, body) for each method of the named classes of
    the module source, the body without its docstring."""
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef) or cls.name not in classes:
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            body = method.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                body = body[1:]
            yield cls.name, method.name, body


def forwarding_methods(source: str, classes: set[str]) -> list[str]:
    """The methods of the named classes of the module source whose body, a
    docstring aside, is one bare `return f(...)` of a public module-level
    function f of the module, as Class.method:f, sorted."""
    tree = ast.parse(source)
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    found = []
    for cls, name, body in methods(source, classes):
        call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in functions:
            found.append(f"{cls}.{name}:{call.func.id}")
    return sorted(found)


def test_the_guard_finds_a_method_that_forwards_to_a_twin():
    source = (
        "def twin(x, code):\n    return x\n\n"
        "def _helper(x):\n    return x\n\n"
        "class Code:\n"
        "    def member(self, x):\n        \"\"\"Doc.\"\"\"\n        return twin(x, self)\n\n"
        "    def member_rows(self, rows):\n        return _helper(rows)\n\n"
        "    def decode(self, y):\n        if y:\n            return twin(y, self)\n        return y\n\n"
        "    def codebook_rows(self, limit):\n        return self.member(limit)\n\n"
        "class Other:\n    def member(self, x):\n        return twin(x, self)\n"
    )
    assert forwarding_methods(source, {"Code"}) == ["Code.member:twin"]


def test_no_construction_method_forwards_to_a_module_twin():
    """Each rule of a construction has one name, its method: a new
    construction writes no module-level twin of the interface."""
    from dupcodes import cli

    classes = {cls.__name__ for cls, _ in cli.CONSTRUCTIONS.values()}
    found = forwarding_methods((PACKAGE / "codes.py").read_text(), classes)
    assert [entry for entry in found if entry.split(":")[1] not in FORWARDED] == []
    assert {entry.split(":")[1] for entry in found} == FORWARDED


def copied_methods(source: str, classes: set[str]) -> list[str]:
    """The methods that two or more of the named classes of the module
    source define with equal bodies, docstrings dropped and bodies compared
    by `ast.dump`, as method:Class,Class..., sorted."""
    owners = {}
    for cls, name, body in methods(source, classes):
        owners.setdefault((name, "\n".join(map(ast.dump, body))), []).append(cls)
    return sorted(f"{name}:{','.join(sorted(found))}" for (name, _), found in owners.items() if len(found) > 1)


def test_the_guard_finds_a_method_that_two_classes_copy():
    source = (
        "class A:\n"
        "    def member(self, x):\n        \"\"\"A's.\"\"\"\n        return self.rule(x)\n\n"
        "    def decode(self, y):\n        return y\n\n"
        "class B:\n"
        "    def member(self, x):\n        \"\"\"B's, in other words.\"\"\"\n        return self.rule(x)\n\n"
        "    def decode(self, y):\n        return None\n\n"
        "class C:\n"
        "    def member(self, x):\n        return self.rule(x[:1])\n\n"
        "    def decode(self, y):\n        return y\n\n"
        "class Unlisted:\n"
        "    def member(self, x):\n        return self.rule(x)\n"
    )
    assert copied_methods(source, {"A", "B", "C"}) == ["decode:A,C", "member:A,B"]


def test_no_two_constructions_copy_a_method():
    """A Word adapter that constructions share is written once, in
    `codes._Construction`, and a new construction copies none of them
    (`docs/decisions.md`, D21)."""
    from dupcodes import cli

    classes = {cls.__name__ for cls, _ in cli.CONSTRUCTIONS.values()}
    assert copied_methods((PACKAGE / "codes.py").read_text(), classes) == []


def exits_outside_main(source: str) -> list[str]:
    """The functions of the module source, other than `main`, that contain
    `return 2` (or `return 2, rows`) or print a string starting with
    `error:` or `refused:`, as name:line, sorted."""

    def refusal_text(node) -> bool:
        if isinstance(node, ast.JoinedStr) and node.values:
            node = node.values[0]
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith(("error:", "refused:"))

    def status_2(node) -> bool:
        if isinstance(node, ast.Tuple) and node.elts:
            node = node.elts[0]
        return isinstance(node, ast.Constant) and node.value == 2

    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name == "main":
            continue
        for node in ast.walk(func):
            exits = isinstance(node, ast.Return) and status_2(node.value)
            prints = (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "print"
                and any(refusal_text(arg) for arg in node.args)
            )
            if exits or prints:
                found.add(f"{func.name}:{node.lineno}")
    return sorted(found)


def test_the_guard_finds_an_exit_outside_main():
    source = (
        "def cmd(args):\n"
        "    if args.n < 1:\n"
        "        print(f'error: {args.n}')\n"
        "        return 2\n"
        "    if args.q < 2:\n"
        "        return 2, []\n"
        "    print('refused: no')\n"
        "    return 0, []\n"
        "\n"
        "def main(argv=None):\n"
        "    print('error: x')\n"
        "    return 2\n"
    )
    assert exits_outside_main(source) == ["cmd:3", "cmd:4", "cmd:6", "cmd:7"]


def test_the_cli_exits_with_a_refusal_only_in_main():
    assert exits_outside_main((PACKAGE / "cli.py").read_text()) == []


def test_importing_the_cli_builds_no_parser():
    """The parser is built on the first `main` call, not at import, which the
    benchmark's set-up time measures (`docs/decisions.md` D15). A fresh
    interpreter counts ArgumentParser constructions through a patched
    `__init__`, before and after one `build_parser()` call."""
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import dupcodes.cli\n"
        "print(len(built))\n"
        "dupcodes.cli.build_parser()\n"
        "print(len(built))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120
    )
    assert done.returncode == 0, done.stderr
    at_import, after_build = map(int, done.stdout.split())
    assert at_import == 0
    assert after_build == 6  # the program's parser and one per subcommand
