"""The engine finds dropout sites, loss heads and recurrent sites by type.

``repro/execution.py``, ``repro/dropout/sampler.py`` and
``repro/models/dropout_strategy.py`` call neither ``hasattr`` nor
``getattr``: a probe such as ``getattr(module, "draw_pool", None)`` would let
a module that merely looks like a :class:`~repro.dropout.sampler.PatternSite`
be pooled, reseeded or configured.  A stdlib :mod:`ast` check, like
``test_unused_imports.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

TYPED_MODULES = ("execution.py", "dropout/sampler.py",
                 "models/dropout_strategy.py")


def attribute_probes(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of every ``hasattr`` or ``getattr`` call in ``source``."""
    return [(node.func.id, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("hasattr", "getattr")]


def test_the_check_flags_only_probe_calls():
    source = (
        "value = getattr(module, 'draw_pool', None)\n"
        "if hasattr(module, 'backend'):\n"
        "    pass\n"
        "probe = getattr\n"
        "module.getattr('x')\n")
    assert attribute_probes(source) == [("getattr", 1), ("hasattr", 2)]


@pytest.mark.parametrize("module", TYPED_MODULES)
def test_no_attribute_probes(module):
    probes = attribute_probes((ROOT / "src" / "repro" / module).read_text())
    assert not probes, f"src/repro/{module} probes attributes: {probes}"
