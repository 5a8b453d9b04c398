"""Pluggable execution backends of the compact pattern engine.

The compact dropout ops (:mod:`repro.dropout.compact_ops`) describe *what* to
compute — gather the surviving rows/tiles, multiply, scatter back — and an
:class:`ExecutionBackend` decides *how*.  Two backends ship:

``"numpy"``
    :class:`NumpyBackend`, the reference implementation: one BLAS GEMM per
    gathered operand pair / per surviving tile-row group.
``"stacked"``
    :class:`StackedBackend`: the tile-row groups of a compiled
    :class:`~repro.dropout.engine.TileExecutionPlan` that share a column set
    run as one concatenated GEMM, and equal-shape classes are stacked into
    one batched 3-D GEMM, with the layouts cached per plan identity.  The
    gate-aligned recurrent plans, whose per-gate replication makes every
    family ``num_gates`` times deeper, benefit the most, both through the
    plan-driven ops and through the LSTM unroll's per-window context path
    (see ``backends/stacked.py``).  Row, input and head ops run the same
    inherited gather/GEMM/scatter code on both backends.

Selection is by name through :class:`repro.execution.ExecutionConfig`
(``backend="stacked"``), which validates against this registry and whose
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
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import (
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.stacked import StackedBackend

register_backend("numpy", NumpyBackend)
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
    "StackedBackend",
    "available_backends",
    "create_backend",
    "default_backend",
    "register_backend",
    "unregister_backend",
]
