"""Every public function, class, method and property of the package has a
caller outside the tests, and every private one a reader in the package.

A public module-level function or class of ``src/vqse``, or a public
method or property of one of its classes, that only the tests reach is
test-only API, and belongs in ``tests/conftest.py``.  A
name counts as used when it is read, as a name or an attribute, anywhere
in ``src/vqse`` or ``perfbench/`` outside its own definition, or when it
appears as a string constant: ``perfbench/tracing.py`` rebinds module
attributes it names by string.  An import or an ``__all__`` entry alone
is no use.  A private (``_name``, not dunder) function, class or method
must be read so in ``src/vqse`` itself: one that only the tests or the
benchmark read is a test helper, and belongs in ``tests/conftest.py``.

Every imported name is read, too: a name that a module of ``src/vqse`` or
``tests`` imports and never reads, as a name, is dead weight (an unused
``numpy`` import made ``vqse --version`` load numpy).  A name listed in
``__all__`` counts as read, and ``from __future__`` imports are not
names.  The modules are read with ``ast``, not imported."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "vqse"
READERS = (PACKAGE, ROOT / "perfbench")
IMPORTERS = (PACKAGE, ROOT / "tests")


def references(tree: ast.AST) -> Counter:
    """How often each identifier is read in ``tree``: names, attributes
    and identifier-valued string constants, outside ``__all__``."""
    found = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            continue
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
        stack.extend(ast.iter_child_nodes(node))
    return found


def definitions(tree: ast.Module, private: bool = False):
    """(name, node) of each public module-level function or class of
    ``tree``, and of each public method or property of its classes, named
    ``Class.member``; with ``private``, of each private (``_name``, not
    dunder) one instead."""

    def wanted(name: str) -> bool:
        if private:
            return name.startswith("_") and not name.startswith("__")
        return not name.startswith("_")

    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if wanted(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                methods = (ast.FunctionDef, ast.AsyncFunctionDef)
                if isinstance(member, methods) and wanted(member.name):
                    yield f"{node.name}.{member.name}", member


def unused_names(package: Path, readers, private: bool = False) -> set:
    """(module path relative to ``package``, name) of each public (or, with
    ``private``, private) definition of ``package`` (:func:`definitions`)
    that nothing under ``readers`` reads outside the definition itself."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for reader in readers
        for path in sorted(reader.rglob("*.py"))
    }
    total = sum((references(tree) for tree in trees.values()), Counter())
    unused = set()
    for path, tree in trees.items():
        if not path.is_relative_to(package):
            continue
        for name, node in definitions(tree, private):
            if total[node.name] == references(node)[node.name]:
                unused.add((path.relative_to(package).as_posix(), name))
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_names(PACKAGE, READERS) == set()


def test_every_private_name_is_read_in_the_package():
    assert unused_names(PACKAGE, (PACKAGE,), private=True) == set()


def test_public_name_scan_sees_every_form(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text(
        "from .a import exported\n__all__ = ['exported']\n"
    )
    (package / "a.py").write_text(
        "def exported():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 'recursive'\n"
        "def _private():\n"
        "    pass\n"
        "def called():\n"
        "    pass\n"
        "class Read:\n"
        "    pass\n"
        "def by_attribute():\n"
        "    pass\n"
        "def by_bench():\n"
        "    pass\n"
        "def by_string():\n"
        "    pass\n"
        "def main():\n"
        "    called()\n"
        "    return Read\n"
        "class Kept:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def used(self):\n"
        "        return self.size\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.n\n"
        "    def unused(self):\n"
        "        return self.unused\n"
        "    def _private(self):\n"
        "        pass\n"
        "VALUE = Kept().used()\n"
    )
    (package / "b.py").write_text("from . import a\nVALUE = a.by_attribute\n")
    (bench / "run.py").write_text(
        "import pkg.a\npkg.a.by_bench()\nTABLE = [(pkg.a, 'by_string')]\n"
    )
    assert unused_names(package, (package, bench)) == {
        ("a.py", "exported"),
        ("a.py", "recursive"),
        ("a.py", "main"),
        ("a.py", "Kept.unused"),
    }


def test_private_name_scan_sees_every_form(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "a.py").write_text(
        "def _unread():\n"
        "    pass\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "def _called():\n"
        "    pass\n"
        "def _by_attribute():\n"
        "    pass\n"
        "def _by_bench():\n"
        "    pass\n"
        "class _Forms:\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "    def _used(self):\n"
        "        return self._cache\n"
        "    def _unused(self):\n"
        "        return self._unused\n"
        "    def public(self):\n"
        "        return self._used()\n"
        "def public():\n"
        "    return _Forms, _called()\n"
    )
    (package / "b.py").write_text("from . import a\nVALUE = a._by_attribute\n")
    (bench / "run.py").write_text("import pkg.a\npkg.a._by_bench()\n")
    assert unused_names(package, (package,), private=True) == {
        ("a.py", "_unread"),
        ("a.py", "_recursive"),
        ("a.py", "_by_bench"),
        ("a.py", "_Forms._unused"),
    }


def unread_imports(path: Path) -> set:
    """The names that the module at ``path`` binds by an import and never
    reads as a name; a string listed in ``__all__`` is read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return imported - read


def test_every_imported_name_is_read():
    unread = {
        (path.relative_to(ROOT).as_posix(), name)
        for importer in IMPORTERS
        for path in sorted(importer.rglob("*.py"))
        for name in unread_imports(path)
    }
    assert unread == set()


def test_unread_import_scan_sees_every_form(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import numpy as np\n"
        "import sys\n"
        "from dataclasses import dataclass, field\n"
        "from .a import exported, unused as renamed\n"
        "__all__ = ['exported']\n"
        "def f(x: np.ndarray):\n"
        "    from math import pi, tau\n"
        "    return os.path.join(str(pi), sys.argv[0])\n"
        "@dataclass\n"
        "class C:\n"
        "    pass\n"
        "def g():\n"
        "    json = 1\n"
        "    return 'field'\n"
    )
    assert unread_imports(path) == {"json", "field", "renamed", "tau"}
