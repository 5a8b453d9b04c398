"""The pattern schedule is the only per-step draw.

Both execution modes pool every live dropout site and install its patterns
through :class:`~repro.dropout.sampler.PatternSchedule`, so
``repro/execution.py``, ``repro/dropout/sampler.py``, ``repro/training/`` and
``repro/models/`` call no ``resample``: a per-step ``resample`` there would
give the masked and pooled modes two pattern streams again, and would draw
at rate-0 sites.  A site's own first draw (in ``repro/dropout/layers.py`` and
``repro/heads/``) stays allowed.  A stdlib :mod:`ast` check, like
``test_typed_protocol.py``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

SCHEDULED = ("execution.py", "dropout/sampler.py", "training", "models")


def resample_calls(source: str) -> list[int]:
    """The line of every ``<expression>.resample(...)`` call in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "resample"]


def test_the_check_flags_only_resample_calls():
    source = (
        "module.resample()\n"
        "def resample(self):\n"
        "    return self.sampler.sample(3)\n"
        "draw = site.resample\n"
        "self.model.site.resample()\n")
    assert resample_calls(source) == [1, 5]


@pytest.mark.parametrize("path", SCHEDULED)
def test_no_resample_calls(path):
    target = SRC / path
    files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
    assert files, f"src/repro/{path} holds no module"
    calls = {str(file.relative_to(SRC)): resample_calls(file.read_text())
             for file in files}
    calls = {name: lines for name, lines in calls.items() if lines}
    assert not calls, f"resample() called outside a site: {calls}"
