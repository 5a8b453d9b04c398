"""perfbench's traced run times every backend primitive.

The traced run wraps each name in ``BACKEND_OPS``
(``perfbench/perfkit/metrics.py``) on the runtime's
:class:`~repro.backends.ExecutionBackend` and reports its time and calls; a
public method missing from that list would run untimed.  The list is read
with the stdlib :mod:`ast`, without importing perfbench.
"""

import ast
import inspect
from pathlib import Path

from repro.backends import ExecutionBackend

METRICS = Path(__file__).resolve().parents[2] / "perfbench" / "perfkit" / "metrics.py"


def backend_ops() -> tuple[str, ...]:
    """The literal value of ``BACKEND_OPS`` in perfbench's metric catalogue."""
    for node in ast.parse(METRICS.read_text()).body:
        if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and node.target.id == "BACKEND_OPS"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BACKEND_OPS assignment in {METRICS}")


def test_every_public_backend_method_is_timed():
    public = {name for name, _ in inspect.getmembers(ExecutionBackend,
                                                     inspect.isfunction)
              if not name.startswith("_")} - {"count"}
    assert public, "ExecutionBackend has no public method"
    untimed = sorted(public - set(backend_ops()))
    assert not untimed, f"not in perfbench's BACKEND_OPS: {untimed}"
