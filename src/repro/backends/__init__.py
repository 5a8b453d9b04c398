"""The execution backend of the compact pattern engine.

The compact dropout ops (:mod:`repro.dropout.compact_ops`) describe *what* to
compute — gather the surviving rows/tiles, multiply, scatter back — and the
:class:`ExecutionBackend` decides *how*: one BLAS GEMM per gathered operand
pair for the row, input and head ops, and one GEMM per column class of a
compiled :class:`~repro.dropout.engine.TileExecutionPlan` for every tile
pattern, the tile layer's and the tiled recurrent projection's (see
``backends/backend.py``).

:class:`~repro.execution.EngineRuntime` builds one instance per runtime and
installs it on every pattern layer it binds, so its ``calls`` counters
(``runtime.stats()["backend_calls"]``) hold exactly that runtime's work.
"""

from __future__ import annotations

from repro.backends.backend import ExecutionBackend

#: Shared fallback instance used by compact ops called without a runtime
#: (ad-hoc layer use, unit tests); runtimes always install their own instance.
_DEFAULT_BACKEND = ExecutionBackend()


def default_backend() -> ExecutionBackend:
    """The process-wide fallback :class:`ExecutionBackend` instance."""
    return _DEFAULT_BACKEND


__all__ = ["ExecutionBackend", "default_backend"]
