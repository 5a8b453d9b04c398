"""Every import in ``src/repro``, ``tests``, ``examples`` and ``benchmarks``
is used.

A stdlib :mod:`ast` check, so it needs no linter.  An imported name counts
as used when it appears anywhere in its file as a name, including inside an
annotation written as a string (e.g. a ``TYPE_CHECKING`` import).  Package
``__init__.py`` files are exempt: their imports are the package's exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _bound_names(tree: ast.AST):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _string_annotations(tree: ast.AST):
    """The parsed expressions of every string inside an annotation."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            annotation = getattr(node, "annotation", None)
        if annotation is None:
            continue
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    yield ast.parse(part.value, mode="eval")
                except SyntaxError:
                    continue


def unused_imports(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    used = {node.id for root in (tree, *_string_annotations(tree))
            for node in ast.walk(root) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in _bound_names(tree)
            if name not in used]


def test_the_check_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "def f(x: 'OrderedDict[str, int]') -> np.ndarray:\n"
        "    import json\n"
        "    return TYPE_CHECKING\n")
    assert unused_imports(source) == [("os", 2), ("Sequence", 4), ("json", 8)]


def test_every_import_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for base in (ROOT / "src" / "repro", ROOT / "tests",
                     ROOT / "examples", ROOT / "benchmarks")
        for path in sorted(base.rglob("*.py")) if path.name != "__init__.py"
        for name, line in unused_imports(path.read_text())]
    assert not unused, "unused imports:\n" + "\n".join(unused)
