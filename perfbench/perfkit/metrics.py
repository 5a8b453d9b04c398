"""The metric catalogue: every name the benchmark reports, with unit and direction.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests check the two agree.  Every end-to-end metric is defined on
every workload (``perfbench/METRICS.md`` says what each one means per
workload); a per-layer metric whose layer a workload never calls reads 0.
"""

from __future__ import annotations

import re

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("speedup_x", "x", "higher", 0.15),
)

#: Backend primitives wrapped in the traced run (those a backend lacks read 0).
BACKEND_OPS: tuple[str, ...] = (
    "gemm", "gather_rows", "gather_cols", "gather_block",
    "scatter_rows", "scatter_cols", "scatter_block", "zeros",
    "tile_forward", "tile_backward_input", "tile_backward_weight",
    "context_forward", "context_backward_h", "context_backward_blocks",
)

#: The two serving rungs the traced run reports separately.
RUNGS: tuple[str, ...] = ("light", "heavy")

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("data.next_batch_ms", "ms", "lower"),
    ("dropout.resample_ms", "ms", "lower"),
    ("dropout.pool_refills", "count", "lower"),
    ("dropout.keep_fraction", "ratio", "lower"),
    ("dropout.workspace_hit_rate", "ratio", "higher"),
    ("dropout.plan_cache_hit_rate", "ratio", "higher"),
    ("dropout.search_ms", "ms", "lower"),
    *((f"backend.{op}.{field}", unit, "lower")
      for op in BACKEND_OPS for field, unit in (("ms", "ms"), ("calls", "count"))),
    ("backend.gemm.gflop", "GFLOP", "lower"),
    ("model.forward_ms", "ms", "lower"),
    ("nn.embedding.fwd_ms", "ms", "lower"),
    ("nn.lstm.fwd_ms", "ms", "lower"),
    ("heads.loss.fwd_ms", "ms", "lower"),
    ("heads.kept_fraction", "ratio", "lower"),
    ("tensor.backward_ms", "ms", "lower"),
    ("tensor.backward_self_ms", "ms", "lower"),
    ("optim.step_ms", "ms", "lower"),
    ("optim.zero_grad_ms", "ms", "lower"),
    ("optim.dirty_fraction", "ratio", "lower"),
    ("execution.bind_ms", "ms", "lower"),
    *(item for rung in RUNGS for item in (
        (f"serving.infer_ms.{rung}", "ms", "lower"),
        (f"serving.queue_wait_ms.p50.{rung}", "ms", "lower"),
        (f"serving.queue_wait_ms.p99.{rung}", "ms", "lower"),
        (f"serving.batch_rows_mean.{rung}", "count", "higher"),
        (f"serving.batches.{rung}", "count", "lower"),
        (f"loadgen.lag_ms.p99.{rung}", "ms", "lower"),
    )),
    ("trace.slowdown", "x", "lower"),
    ("trace.step_coverage", "ratio", "higher"),
)

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    """Metric and workload names: a letter or digit, then ``[A-Za-z0-9_.-]``, at most 64."""
    return bool(_NAME.fullmatch(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT.fullmatch(unit))


def units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints in its result line."""
    if trace:
        return {name: unit for name, unit, _ in PER_LAYER}
    return {name: unit for name, unit, _, _ in END_TO_END}
