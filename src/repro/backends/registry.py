"""Name-based registry of execution backends.

:class:`~repro.execution.ExecutionConfig` validates its ``backend`` field
against this registry (instead of a hardcoded tuple), and
:class:`~repro.execution.EngineRuntime` instantiates its backend through it —
so a new backend only needs one :func:`register_backend` call to become
selectable everywhere (config validation, trainers, experiment drivers, the
serving engine).

Factories, not instances, are registered: every
:class:`~repro.execution.EngineRuntime` gets a private backend object so the
per-backend call counters of concurrent runtimes never mix.
"""

from __future__ import annotations

from typing import Callable

from repro.backends.base import ExecutionBackend

_REGISTRY: dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(name: str, factory: Callable[[], ExecutionBackend],
                     overwrite: bool = False) -> None:
    """Register ``factory`` (a zero-argument callable) under ``name``."""
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (used by tests plugging in temporary ones)."""
    _REGISTRY.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Names of every registered backend, in registration order."""
    return tuple(_REGISTRY)


def create_backend(name: str) -> ExecutionBackend:
    """A fresh backend instance for ``name``; unknown names fail fast."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"available: {available_backends()}") from None
    backend = factory()
    if not isinstance(backend, ExecutionBackend):
        raise TypeError(
            f"backend factory for {name!r} returned {type(backend).__name__}, "
            f"expected an ExecutionBackend")
    return backend
