"""Frozen-model serving: compact inference engine, micro-batching, load gen.

Training reuses the module tree one call at a time; serving freezes it.
:class:`~repro.serving.engine.InferenceEngine` compiles an eval-mode model
into a flat numpy program once (interned effective weights, preallocated
workspace buffers, no autodiff tape) whose outputs are bit-identical to the
model's own ``forward()``; one lock makes its calls safe from any thread.
:class:`~repro.serving.batcher.MicroBatcher` turns single requests into
pooled engine steps (collect up to ``serve_max_batch`` rows or until the
oldest has waited ``serve_max_wait_ms`` since its submission, execute once,
fan the rows back to per-request futures); when more requests wait than one
batch holds, it groups language-model requests of similar length, so a
batch pads less.  :mod:`~repro.serving.loadgen` drives either path with
closed- or open-loop synthetic load and reports p50/p99 latency and
steady-state throughput.
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
