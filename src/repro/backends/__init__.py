"""Pluggable execution backends of the compact pattern engine.

The compact dropout ops (:mod:`repro.dropout.compact_ops`) describe *what* to
compute — gather the surviving rows/tiles, multiply, scatter back — and an
:class:`ExecutionBackend` decides *how*.  Three backends ship:

``"numpy"``
    :class:`NumpyBackend`, the reference implementation: one BLAS GEMM per
    gathered operand pair / per surviving tile-row group.
``"fused"``
    :class:`FusedBackend`: tile-row groups of a compiled
    :class:`~repro.dropout.engine.TileExecutionPlan` that share an identical
    column set are concatenated into single stacked GEMM calls, cutting the
    Python-loop, gather and skinny-GEMM overhead of tile-pattern execution.
``"stacked"``
    :class:`StackedBackend`: fused classes of equal kept-count (same shape,
    different column sets) are stacked along a new axis and executed as one
    batched 3-D GEMM — one interpreter round-trip, gather and ``matmul`` for
    a whole family of tile-row classes.  The stacked index layouts are
    cached per plan identity, so the pooled pattern stream's consecutive
    steps replay them for free.  The gate-aligned recurrent DropConnect
    plans, whose per-gate replication makes every family ``num_gates``
    times deeper, benefit the most — through the plan-driven ops (the tile
    layers and ``recurrent_compact_linear``); the LSTM unroll's per-window
    context path pre-gathers its blocks and bypasses the plan entry points
    entirely (see ``backends/stacked.py``).

Selection is by name through :class:`repro.execution.ExecutionConfig`
(``backend="fused"``), which validates against this registry and whose
:class:`~repro.execution.EngineRuntime` instantiates the backend and installs
it on every pattern layer it binds.  Third-party backends plug in with::

    from repro.backends import ExecutionBackend, register_backend

    class MyBackend(ExecutionBackend): ...
    register_backend("mine", MyBackend)

after which ``ExecutionConfig(backend="mine")`` works everywhere (trainers,
experiment drivers, the serving engine).
"""

from __future__ import annotations

from repro.backends.base import ExecutionBackend
from repro.backends.fused import FusedBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import (
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.stacked import StackedBackend

register_backend("numpy", NumpyBackend)
register_backend("fused", FusedBackend)
register_backend("stacked", StackedBackend)

#: Shared fallback instance used by compact ops called without a runtime
#: (ad-hoc layer use, unit tests); runtimes always install their own instance.
_DEFAULT_BACKEND = NumpyBackend()


def default_backend() -> NumpyBackend:
    """The process-wide fallback :class:`NumpyBackend` instance."""
    return _DEFAULT_BACKEND


__all__ = [
    "ExecutionBackend",
    "NumpyBackend",
    "FusedBackend",
    "StackedBackend",
    "available_backends",
    "create_backend",
    "default_backend",
    "register_backend",
    "unregister_backend",
]
