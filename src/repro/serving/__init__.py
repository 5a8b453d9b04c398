"""Frozen-model serving: compact inference engine and micro-batching.

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
batch pads less.  The repository benchmark (``perfbench/``) drives both
under open-loop load.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.engine import InferenceEngine

__all__ = [
    "InferenceEngine",
    "MicroBatcher",
]
