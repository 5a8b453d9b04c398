"""Differentiable compact GEMM operations for the approximate dropout patterns.

These are the software equivalents of the modified GPU kernels the paper adds
to Caffe: instead of running the dense GEMM and then masking the output, the
forward pass *only touches the surviving rows/tiles* of the weight matrix and
scatters the compact result back into a zero-filled full-size output.  The
backward pass mirrors the same structure, so dropped neurons/synapses receive
exactly zero gradient — identical semantics to mask-based dropout, but with
``≈ 1/dp`` of the arithmetic.

Five operations are provided:

* :func:`row_compact_linear` — Row-based Dropout Pattern (RDP) applied to the
  output neurons of an affine layer, with optional compaction along the input
  dimension when the *previous* layer's pattern is known (dropped inputs are
  zero, so their columns can be skipped too).
* :func:`tile_compact_linear` — Tile-based Dropout Pattern (TDP) applied to
  the weight matrix of an affine layer (structured DropConnect).
* :func:`recurrent_compact_linear` — gate-aligned TDP (structured
  DropConnect) applied to the hidden-to-hidden projection of a recurrent
  cell; the same compiled-plan execution as the tile op, with the per-gate
  plan replicated across the stacked gate blocks.
* :func:`head_compact_linear` — class-pruned gather-GEMM of the compact loss
  heads (:mod:`repro.heads`): only the kept vocabulary rows are projected
  and the result stays *compact* (the sampled softmax consumes it directly),
  while the weight/bias gradients scatter into full-size zeroed buffers.

All of them return ordinary :class:`~repro.tensor.Tensor` objects wired into
the autodiff tape.

Scatter buffers: every full-size output or gradient an op scatters into is a
fresh zero-filled array (a lazy calloc, so rows and columns the scatter never
touches cost nothing), so a tensor held from one step is never overwritten by
a later one.  The plan-driven ops execute a compiled
:class:`~repro.dropout.engine.TileExecutionPlan` (one fused GEMM per surviving
tile-row, compact backward) instead of looping over individual tiles against a
dense mask.

Backends: the numeric primitives — gathers, GEMMs, scatter-buffer allocation
and the tile-plan loops — are routed through a pluggable
:class:`~repro.backends.ExecutionBackend` (``backend=`` on every op).  The
ops own the autodiff orchestration and the backend owns the array execution
strategy, so swapping ``numpy`` for an accelerated backend never changes the
tape structure or the results.  When no backend is passed, the process-wide
reference :func:`~repro.backends.default_backend` is used;
:meth:`repro.execution.EngineRuntime.bind` installs its own instance on every
pattern layer instead.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field

from repro.backends import ExecutionBackend, default_backend
from repro.dropout.engine import (
    TileExecutionPlan,
    compile_recurrent_plan,
    compile_tile_plan,
    plan_column_classes,
    plan_row_indices,
)
from repro.dropout.patterns import (
    RecurrentTilePattern,
    RowDropoutPattern,
    TileDropoutPattern,
)
from repro.tensor import Tensor
from repro.tensor import dirty as _dirty


def row_compact_linear(x: Tensor, weight: Tensor, bias: Tensor | None,
                       pattern: RowDropoutPattern,
                       input_pattern: RowDropoutPattern | None = None,
                       scale_factor: float = 1.0,
                       backend: ExecutionBackend | None = None) -> Tensor:
    """Affine layer forward that only computes the rows kept by ``pattern``.

    Parameters
    ----------
    x:
        Input activations of shape ``(batch, in_features)``.
    weight:
        Weight tensor of shape ``(out_features, in_features)``.
    bias:
        Optional bias tensor of shape ``(out_features,)``.
    pattern:
        RDP pattern over the ``out_features`` neurons of this layer; dropped
        rows of the output are zero-filled.
    input_pattern:
        Optional RDP pattern of the *previous* layer over ``in_features``.
        When given, the columns of the weight matrix (and of ``x``) belonging
        to dropped inputs are skipped as well — they would be multiplied by
        zero anyway.
    scale_factor:
        Constant multiplier applied to the surviving outputs.  The layers pass
        ``1 / (1 - target_rate)`` (inverted dropout with the *expected* keep
        probability), so no rescaling is needed at inference time and a single
        aggressive pattern draw cannot blow up the activations.
    backend:
        Optional :class:`~repro.backends.ExecutionBackend` executing the
        gathers/GEMMs/allocations; the reference numpy backend when omitted.

    Returns
    -------
    Tensor of shape ``(batch, out_features)``.
    """
    if x.ndim != 2:
        raise ValueError(f"row_compact_linear expects 2-D input, got shape {x.shape}")
    out_features, in_features = weight.shape
    if pattern.num_units != out_features:
        raise ValueError(
            f"pattern covers {pattern.num_units} units but the layer has {out_features} outputs")
    if x.shape[1] != in_features:
        raise ValueError(
            f"input feature dimension {x.shape[1]} does not match weight columns {in_features}")
    if input_pattern is not None and input_pattern.num_units != in_features:
        raise ValueError(
            f"input_pattern covers {input_pattern.num_units} units but the layer "
            f"has {in_features} inputs")

    backend = backend or default_backend()
    kept_rows = pattern.kept_indices

    weight_compact = backend.gather_rows(weight.data, kept_rows)
    if input_pattern is not None:
        kept_cols = input_pattern.kept_indices
        weight_compact = backend.gather_cols(weight_compact, kept_cols)
        x_compact = backend.gather_cols(x.data, kept_cols)
    else:
        kept_cols = None
        x_compact = x.data

    out_compact = backend.gemm(x_compact, weight_compact.T)
    if bias is not None:
        out_compact += bias.data[kept_rows]
    if scale_factor != 1.0:
        out_compact *= scale_factor

    batch = x.shape[0]
    dtype = out_compact.dtype
    out_full = backend.zeros((batch, out_features), dtype)
    backend.scatter_cols(out_full, kept_rows, out_compact)

    def backward_x(grad: np.ndarray) -> np.ndarray:
        grad_compact = backend.gather_cols(grad, kept_rows) * scale_factor
        if kept_cols is not None:
            grad_x = backend.zeros(x.data.shape, x.data.dtype)
            backend.scatter_cols(grad_x, kept_cols,
                                 backend.gemm(grad_compact, weight_compact))
        else:
            grad_x = backend.gemm(grad_compact, weight_compact)
        return grad_x

    def backward_weight(grad: np.ndarray) -> np.ndarray:
        grad_compact = backend.gather_cols(grad, kept_rows) * scale_factor
        grad_weight = backend.zeros(weight.data.shape, weight.data.dtype)
        if kept_cols is not None:
            backend.scatter_block(grad_weight, kept_rows, kept_cols,
                                  backend.gemm(grad_compact.T, x_compact))
        else:
            backend.scatter_rows(grad_weight, kept_rows,
                                 backend.gemm(grad_compact.T, x_compact))
        return grad_weight

    parents = [(x, backward_x), (weight, backward_weight)]
    if bias is not None:
        def backward_bias(grad: np.ndarray) -> np.ndarray:
            grad_compact = backend.gather_cols(grad, kept_rows) * scale_factor
            grad_bias = backend.zeros(bias.data.shape, bias.data.dtype)
            backend.scatter_rows(grad_bias, kept_rows, grad_compact.sum(axis=0))
            return grad_bias

        parents.append((bias, backward_bias))

    return Tensor.from_op(out_full, parents, "row_compact_linear")


def tile_compact_linear(x: Tensor, weight: Tensor, bias: Tensor | None,
                        pattern: TileDropoutPattern,
                        scale_factor: float = 1.0,
                        plan: TileExecutionPlan | None = None,
                        backend: ExecutionBackend | None = None) -> Tensor:
    """Affine layer forward that only multiplies the weight tiles kept by ``pattern``.

    Parameters
    ----------
    x:
        Input activations of shape ``(batch, in_features)``.
    weight:
        Weight tensor of shape ``(out_features, in_features)``; the pattern's
        ``(rows, cols)`` must match.
    bias:
        Optional bias of shape ``(out_features,)`` (never dropped).
    pattern:
        TDP pattern over the weight matrix.
    scale_factor:
        Constant multiplier applied to the surviving tiles' contribution
        (inverted DropConnect with the expected keep probability).
    plan:
        Optional precompiled :class:`TileExecutionPlan`; compiled (and cached
        process-wide) from ``pattern`` when omitted.
    backend:
        Optional :class:`~repro.backends.ExecutionBackend` executing the
        plan's GEMMs; the reference numpy backend loops one GEMM per
        surviving tile-row group, the ``stacked`` backend batches same-shape
        column classes into 3-D GEMM calls.

    Returns
    -------
    Tensor of shape ``(batch, out_features)``.
    """
    if x.ndim != 2:
        raise ValueError(f"tile_compact_linear expects 2-D input, got shape {x.shape}")
    out_features, in_features = weight.shape
    if (pattern.rows, pattern.cols) != (out_features, in_features):
        raise ValueError(
            f"pattern shape ({pattern.rows}, {pattern.cols}) does not match weight "
            f"shape {weight.shape}")
    if x.shape[1] != in_features:
        raise ValueError(
            f"input feature dimension {x.shape[1]} does not match weight columns {in_features}")
    if plan is None:
        plan = compile_tile_plan(pattern)
    elif plan.kind != "tile" or (
            plan.rows, plan.cols, plan.dp, plan.bias, plan.tile) != (
            pattern.rows, pattern.cols, pattern.dp, pattern.bias, pattern.tile):
        raise ValueError("plan was compiled for a different pattern")
    return _plan_compact_linear(x, weight, bias, plan, scale_factor, backend,
                                op="tile_compact_linear")


def _plan_compact_linear(x: Tensor, weight: Tensor, bias: Tensor | None,
                         plan: TileExecutionPlan, scale_factor: float,
                         backend: ExecutionBackend | None, op: str) -> Tensor:
    """Shared autodiff body of the plan-driven affine ops.

    Both :func:`tile_compact_linear` and :func:`recurrent_compact_linear`
    execute a compiled :class:`TileExecutionPlan` — they differ only in how
    the plan is built (generic tile grid vs gate-aligned replication) and in
    their validation, so the forward/backward orchestration lives here once.
    """
    backend = backend or default_backend()
    dtype = np.result_type(x.data, weight.data)
    batch = x.shape[0]
    out = backend.zeros((batch, plan.rows), dtype)
    backend.tile_forward(plan, x.data, weight.data, out)
    if scale_factor != 1.0:
        out *= scale_factor
    if bias is not None:
        out += bias.data

    def backward_x(grad: np.ndarray) -> np.ndarray:
        grad_x = backend.zeros(x.data.shape, x.data.dtype)
        backend.tile_backward_input(plan, grad, weight.data, grad_x,
                                    scale=scale_factor)
        return grad_x

    def backward_weight(grad: np.ndarray) -> np.ndarray:
        grad_weight = backend.zeros(weight.data.shape, weight.data.dtype)
        backend.tile_backward_weight(plan, grad, x.data, grad_weight,
                                     scale=scale_factor)
        # The backend wrote exactly the plan-covered rows (and within them
        # only surviving columns) — record them so the sparse optimizer can
        # skip the dropped tile-rows, whatever backend ran the write.
        _dirty.record_rows(grad_weight, plan_row_indices(plan))
        return grad_weight

    parents = [(x, backward_x), (weight, backward_weight)]
    if bias is not None:
        parents.append((bias, lambda grad: grad.sum(axis=0)))

    return Tensor.from_op(out, parents, op)


def recurrent_compact_linear(h: Tensor, weight: Tensor,
                             pattern: RecurrentTilePattern,
                             bias: Tensor | None = None,
                             scale_factor: float = 1.0,
                             plan: TileExecutionPlan | None = None,
                             backend: ExecutionBackend | None = None) -> Tensor:
    """Recurrent projection ``h @ weight.T`` touching only the tiles kept by a
    gate-aligned :class:`~repro.dropout.patterns.RecurrentTilePattern`.

    This is the structured-DropConnect step of the recurrent path: ``weight``
    is the ``(num_gates * hidden, hidden)`` hidden-to-hidden matrix of an
    LSTM cell and the same TDP pattern is applied to every gate block.
    Dropped tiles contribute exactly zero output and receive exactly zero
    gradient — identical semantics to masking the weight, at ``≈ 1/dp`` of
    the arithmetic.

    Parameters mirror :func:`tile_compact_linear`; ``plan`` defaults to the
    interned :func:`~repro.dropout.engine.compile_recurrent_plan` of the
    pattern.  The op is safe to call many times inside one autodiff graph
    (a BPTT unroll).
    """
    if h.ndim != 2:
        raise ValueError(
            f"recurrent_compact_linear expects 2-D input, got shape {h.shape}")
    if (pattern.rows, pattern.cols) != tuple(weight.shape):
        raise ValueError(
            f"pattern shape ({pattern.rows}, {pattern.cols}) does not match "
            f"weight shape {weight.shape}")
    if h.shape[1] != pattern.cols:
        raise ValueError(
            f"input feature dimension {h.shape[1]} does not match weight "
            f"columns {pattern.cols}")
    if plan is None:
        plan = compile_recurrent_plan(pattern)
    elif plan.kind != "recurrent" or (
            plan.rows, plan.cols, plan.dp, plan.bias, plan.tile) != (
            pattern.rows, pattern.cols, pattern.dp, pattern.bias, pattern.tile):
        raise ValueError("plan was compiled for a different pattern")
    return _plan_compact_linear(h, weight, bias, plan, scale_factor, backend,
                                op="recurrent_compact_linear")


@dataclass(frozen=True)
class RecurrentWindowContext:
    """Per-BPTT-window execution context of one recurrent DropConnect site.

    A recurrent projection runs once per *timestep*, but its pattern is fixed
    for the whole window (the schedule steps once per parameter update), so
    the expensive parts of the compact execution can be hoisted out of the
    unroll:

    * the surviving weight tiles are gathered **once per window** into a
      single flat *differentiable* tensor (``compact``) — per-class views of
      it (``blocks``) feed every timestep's GEMMs without any further
      gather;
    * symmetrically, the per-timestep weight gradients stay *compact*
      (``d out / d compact`` is a flat vector of only the surviving
      weights), so the autodiff tape accumulates small arrays across the
      unroll and the single gather op scatters into the full-size weight
      gradient once per window instead of once per timestep.
    """

    pattern: RecurrentTilePattern
    plan: TileExecutionPlan
    weight: Tensor
    classes: tuple   # (row_indices, col_indices) pairs, disjoint row sets
    compact: Tensor  # flat differentiable gather of the surviving weights
    blocks: tuple    # per-class 2-D numpy views into ``compact.data``
    #: Per-window backend scratch: the blocks are fixed for the window, so a
    #: backend may stash derived layouts here (e.g. the stacked backend's
    #: 3-D block arrays) and reuse them across the unroll's timesteps.
    scratch: dict = field(default_factory=dict)


def recurrent_compact_context(weight: Tensor, pattern: RecurrentTilePattern,
                              plan: TileExecutionPlan | None = None,
                              backend: ExecutionBackend | None = None,
                              ) -> RecurrentWindowContext:
    """Build the per-window context for :func:`recurrent_context_linear`.

    Call once per BPTT window (after the schedule installed the window's
    pattern); pass the result to every timestep.  The weight-tile gather (and
    the full-size weight-gradient scatter on the way back) then amortise over
    the whole unroll instead of being paid per timestep.
    """
    if (pattern.rows, pattern.cols) != tuple(weight.shape):
        raise ValueError(
            f"pattern shape ({pattern.rows}, {pattern.cols}) does not match "
            f"weight shape {weight.shape}")
    if plan is None:
        plan = compile_recurrent_plan(pattern)
    backend = backend or default_backend()
    classes = plan_column_classes(plan)
    flat, blocks = gather_recurrent_blocks(weight.data, classes, backend)
    return assemble_recurrent_context(weight, pattern, plan, backend,
                                      classes, flat, blocks)


def gather_recurrent_blocks(weight_data: np.ndarray, classes: tuple,
                            backend: ExecutionBackend,
                            flat: np.ndarray | None = None,
                            ) -> tuple[np.ndarray, tuple]:
    """Gather the per-class weight blocks into one flat array.

    Returns ``(flat, blocks)`` where ``blocks`` are per-class 2-D views into
    ``flat``.  Pass an existing ``flat`` (from a previous window with the
    same plan identity) to refresh it in place — the weight-tile context
    cache uses this to re-gather only optimizer-dirtied classes.
    """
    total = sum(len(rows) * len(cols) for rows, cols in classes)
    if flat is None or flat.size != total or flat.dtype != weight_data.dtype:
        flat = np.empty(total, dtype=weight_data.dtype)
    blocks, offset = [], 0
    for rows, cols in classes:
        block = backend.gather_block(weight_data, rows, cols)
        view = flat[offset:offset + block.size].reshape(block.shape)
        view[...] = block
        blocks.append(view)
        offset += block.size
    return flat, tuple(blocks)


def assemble_recurrent_context(weight: Tensor, pattern: RecurrentTilePattern,
                               plan: TileExecutionPlan,
                               backend: ExecutionBackend, classes: tuple,
                               flat: np.ndarray, blocks: tuple,
                               ) -> RecurrentWindowContext:
    """Wrap gathered class blocks into a differentiable window context.

    ``flat`` holds the concatenated surviving weights and ``blocks`` the
    per-class views into it (see :func:`gather_recurrent_blocks`).  Split
    from :func:`recurrent_compact_context` so the sparse-optimizer context
    cache can rebuild the (per-window) tape wrapper around a cached flat
    buffer without re-gathering unchanged tiles.
    """

    def backward(grad: np.ndarray) -> np.ndarray:
        # Once per window: scatter the tape-accumulated compact gradient back
        # into the full weight.  Class blocks are disjoint (disjoint row
        # sets), so plain assignment is exact; dropped tiles stay zero.
        full = backend.zeros(weight.data.shape, weight.data.dtype)
        offset = 0
        for (rows, cols), block in zip(classes, blocks):
            backend.scatter_block(
                full, rows, cols,
                grad[offset:offset + block.size].reshape(block.shape))
            offset += block.size
        return full

    compact = Tensor.from_op(flat, [(weight, backward)],
                             "recurrent_block_gather")
    return RecurrentWindowContext(pattern=pattern, plan=plan, weight=weight,
                                  classes=classes, compact=compact,
                                  blocks=tuple(blocks))


def recurrent_context_linear(h: Tensor, context: RecurrentWindowContext,
                             scale_factor: float = 1.0,
                             backend: ExecutionBackend | None = None) -> Tensor:
    """One timestep of the recurrent projection against a pre-gathered context.

    Numerically identical to :func:`recurrent_compact_linear` with the
    context's pattern; gradients flow through the context's flat compact
    gather, so the gradient of every dropped weight is exactly zero while the
    per-timestep gradient arrays stay compact.
    """
    if h.ndim != 2:
        raise ValueError(
            f"recurrent_context_linear expects 2-D input, got shape {h.shape}")
    plan = context.plan
    if h.shape[1] != plan.cols:
        raise ValueError(
            f"input feature dimension {h.shape[1]} does not match weight "
            f"columns {plan.cols}")
    backend = backend or default_backend()
    dtype = np.result_type(h.data, context.compact.data)
    out = backend.zeros((h.shape[0], plan.rows), dtype)
    # The per-class GEMM loop is a backend primitive (keyed on the plan
    # identity) so accelerated backends can batch equal-shape classes — the
    # stacked backend runs them as one 3-D np.matmul per shape family.
    backend.context_forward(plan.identity, context.classes, context.blocks,
                            h.data, out, scratch=context.scratch)
    if scale_factor != 1.0:
        out *= scale_factor

    # Both backward edges receive the same upstream grad; scale it once here
    # instead of per primitive (a scalar multiply commutes with the slicing
    # inside, so the results are bit-identical).  The one-entry cache keeps a
    # reference to the upstream array, so an id can never go stale.
    scaled_cache: list[tuple[np.ndarray, np.ndarray]] = []

    def _scaled(grad: np.ndarray) -> np.ndarray:
        if scale_factor == 1.0:
            return grad
        if scaled_cache and scaled_cache[0][0] is grad:
            return scaled_cache[0][1]
        scaled = grad * scale_factor
        scaled_cache[:] = [(grad, scaled)]
        return scaled

    def backward_h(grad: np.ndarray) -> np.ndarray:
        grad_h = backend.zeros(h.data.shape, h.data.dtype)
        backend.context_backward_h(plan.identity, context.classes,
                                   context.blocks, _scaled(grad), grad_h,
                                   scratch=context.scratch)
        return grad_h

    def backward_compact(grad: np.ndarray) -> np.ndarray:
        pieces = backend.context_backward_blocks(plan.identity, context.classes,
                                                 _scaled(grad), h.data)
        return (np.concatenate([piece.ravel() for piece in pieces]) if pieces
                else np.zeros(0, dtype=context.compact.data.dtype))

    return Tensor.from_op(out, [(h, backward_h),
                                (context.compact, backward_compact)],
                          "recurrent_context_linear")


def input_compact_linear(x: Tensor, weight: Tensor, bias: Tensor | None,
                         input_pattern: RowDropoutPattern,
                         backend: ExecutionBackend | None = None) -> Tensor:
    """Affine layer that skips the input columns dropped by ``input_pattern``.

    This is the *consumer* side of a row pattern (Fig. 3(a) step 2) on its
    own: the layer's outputs are fully dense, but the columns of ``x`` that an
    upstream RDP dropout zeroed are skipped in the GEMM, together with the
    matching weight columns.  It accelerates layers that directly consume a
    pattern-dropped activation — e.g. the LSTM vocabulary projection behind
    ``output_dropout`` — where the dense product would multiply by zeros for
    ``1 - 1/dp`` of the inner dimension.

    Numerically identical (dropped columns contribute exactly zero either
    way); gradients of the dropped input columns and weight columns are zero,
    matching what the upstream mask's backward pass would produce.
    """
    if x.ndim != 2:
        raise ValueError(f"input_compact_linear expects 2-D input, got shape {x.shape}")
    out_features, in_features = weight.shape
    if input_pattern.num_units != in_features:
        raise ValueError(
            f"input_pattern covers {input_pattern.num_units} units but the layer "
            f"has {in_features} inputs")
    if x.shape[1] != in_features:
        raise ValueError(
            f"input feature dimension {x.shape[1]} does not match weight columns {in_features}")

    backend = backend or default_backend()
    kept_cols = input_pattern.kept_indices
    x_compact = backend.gather_cols(x.data, kept_cols)
    weight_compact = backend.gather_cols(weight.data, kept_cols)
    out = backend.gemm(x_compact, weight_compact.T)
    if bias is not None:
        out = out + bias.data

    def backward_x(grad: np.ndarray) -> np.ndarray:
        grad_x = backend.zeros(x.data.shape, x.data.dtype)
        backend.scatter_cols(grad_x, kept_cols, backend.gemm(grad, weight_compact))
        return grad_x

    def backward_weight(grad: np.ndarray) -> np.ndarray:
        grad_weight = backend.zeros(weight.data.shape, weight.data.dtype)
        backend.scatter_cols(grad_weight, kept_cols, backend.gemm(grad.T, x_compact))
        return grad_weight

    parents = [(x, backward_x), (weight, backward_weight)]
    if bias is not None:
        parents.append((bias, lambda grad: grad.sum(axis=0)))
    return Tensor.from_op(out, parents, "input_compact_linear")


def head_compact_linear(x: Tensor, weight: Tensor, bias: Tensor | None,
                        kept_rows: np.ndarray,
                        input_pattern: RowDropoutPattern | None = None,
                        backend: ExecutionBackend | None = None) -> Tensor:
    """Class-pruned affine layer: compute only the output rows in ``kept_rows``.

    This is the gather-GEMM of the compact loss heads (:mod:`repro.heads`):
    unlike :func:`row_compact_linear`, the result is *compact* —
    ``(batch, len(kept_rows))`` — because the consumer (a sampled softmax)
    only ever looks at the kept classes, so scattering back into the
    full-vocabulary width would waste both the scatter and the downstream
    loss arithmetic.  The backward pass scatters the weight/bias gradients of
    the kept classes into full-size zero-filled buffers, so dropped classes
    receive exactly zero gradient — the same semantics every other compact
    op guarantees.

    Parameters
    ----------
    x:
        Input activations of shape ``(batch, in_features)``.
    weight:
        Weight tensor of shape ``(out_features, in_features)`` — for a loss
        head, the ``(vocab, hidden)`` projection matrix.
    bias:
        Optional bias of shape ``(out_features,)``.
    kept_rows:
        Integer indices of the output rows (classes) to compute.
    input_pattern:
        Optional RDP pattern of the layer *feeding* ``x`` (e.g. the LSTM's
        ``output_dropout``): dropped input columns are zero, so the matching
        columns of ``x`` and ``weight`` are skipped as well.
    backend:
        Optional :class:`~repro.backends.ExecutionBackend`; the reference
        numpy backend when omitted.

    Returns
    -------
    Tensor of shape ``(batch, len(kept_rows))`` — compact logits, ordered as
    ``kept_rows``.
    """
    if x.ndim != 2:
        raise ValueError(f"head_compact_linear expects 2-D input, got shape {x.shape}")
    out_features, in_features = weight.shape
    kept_rows = np.asarray(kept_rows)
    if kept_rows.ndim != 1 or len(kept_rows) == 0:
        raise ValueError("kept_rows must be a non-empty 1-D index array")
    if kept_rows.min() < 0 or kept_rows.max() >= out_features:
        raise ValueError(
            f"kept_rows must index the {out_features} output rows, got range "
            f"[{kept_rows.min()}, {kept_rows.max()}]")
    if np.unique(kept_rows).size != len(kept_rows):
        # The gradient scatters assign (not accumulate) per kept row, so a
        # duplicated class would silently get last-write-wins gradients.
        raise ValueError("kept_rows must not contain duplicate classes")
    if x.shape[1] != in_features:
        raise ValueError(
            f"input feature dimension {x.shape[1]} does not match weight columns {in_features}")
    if input_pattern is not None and input_pattern.num_units != in_features:
        raise ValueError(
            f"input_pattern covers {input_pattern.num_units} units but the layer "
            f"has {in_features} inputs")

    backend = backend or default_backend()
    weight_compact = backend.gather_rows(weight.data, kept_rows)
    if input_pattern is not None:
        kept_cols = input_pattern.kept_indices
        weight_compact = backend.gather_cols(weight_compact, kept_cols)
        x_compact = backend.gather_cols(x.data, kept_cols)
    else:
        kept_cols = None
        x_compact = x.data

    out = backend.gemm(x_compact, weight_compact.T)
    if bias is not None:
        out = out + bias.data[kept_rows]

    def backward_x(grad: np.ndarray) -> np.ndarray:
        if kept_cols is not None:
            grad_x = backend.zeros(x.data.shape, x.data.dtype)
            backend.scatter_cols(grad_x, kept_cols,
                                 backend.gemm(grad, weight_compact))
            return grad_x
        return backend.gemm(grad, weight_compact)

    def backward_weight(grad: np.ndarray) -> np.ndarray:
        grad_weight = backend.zeros(weight.data.shape, weight.data.dtype)
        if kept_cols is not None:
            backend.scatter_block(grad_weight, kept_rows, kept_cols,
                                  backend.gemm(grad.T, x_compact))
        else:
            backend.scatter_rows(grad_weight, kept_rows,
                                 backend.gemm(grad.T, x_compact))
        return grad_weight

    parents = [(x, backward_x), (weight, backward_weight)]
    if bias is not None:
        def backward_bias(grad: np.ndarray) -> np.ndarray:
            grad_bias = backend.zeros(bias.data.shape, bias.data.dtype)
            backend.scatter_rows(grad_bias, kept_rows, grad.sum(axis=0))
            return grad_bias

        parents.append((bias, backward_bias))

    return Tensor.from_op(out, parents, "head_compact_linear")


def dense_masked_linear_reference(x: np.ndarray, weight: np.ndarray,
                                  bias: np.ndarray | None,
                                  mask: np.ndarray, scale_factor: float = 1.0,
                                  mask_axis: str = "rows") -> np.ndarray:
    """Dense reference implementation used by the tests.

    Computes the full GEMM and then applies the mask — exactly what a
    conventional dropout implementation does (Fig. 1(a)) — so the compact
    kernels above can be checked for numerical equivalence.

    ``mask_axis="rows"`` masks output rows (RDP/neuron dropout);
    ``mask_axis="weight"`` masks individual weights (TDP/DropConnect), in
    which case ``mask`` must have the weight's shape.
    """
    if mask_axis == "rows":
        out = x @ weight.T
        if bias is not None:
            out = out + bias
        return out * mask[None, :] * scale_factor
    if mask_axis == "weight":
        out = x @ (weight * mask).T * scale_factor
        if bias is not None:
            out = out + bias
        return out
    raise ValueError(f"unknown mask_axis {mask_axis!r}")
