"""Frozen-model serving: compact inference engine, micro-batching, load gen.

Training reuses the module tree one call at a time; serving freezes it.
:class:`~repro.serving.engine.InferenceEngine` compiles an eval-mode model
into a flat numpy program once (interned effective weights, preallocated
workspace buffers, no autodiff tape) whose outputs are bit-identical to the
model's own ``forward()``.  :class:`~repro.serving.batcher.MicroBatcher`
turns single requests into pooled engine steps (collect up to
``serve_max_batch`` rows or for ``serve_max_wait_ms``, execute once, fan the
rows back to per-request futures).  :mod:`~repro.serving.loadgen` drives
either path with closed- or open-loop synthetic load and reports p50/p99
latency and steady-state throughput.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.engine import InferenceEngine
from repro.serving.loadgen import (
    LoadReport,
    run_closed_loop,
    run_open_loop,
    run_rate_sweep,
)

__all__ = [
    "InferenceEngine",
    "MicroBatcher",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
    "run_rate_sweep",
]
