"""Differentiable compact GEMM operations for the approximate dropout patterns.

These are the software equivalents of the modified GPU kernels the paper adds
to Caffe: instead of running the dense GEMM and then masking the output, the
forward pass *only touches the surviving rows/tiles* of the weight matrix and
scatters the compact result back into a zero-filled full-size output.  The
backward pass mirrors the same structure, so dropped neurons/synapses receive
exactly zero gradient — identical semantics to mask-based dropout, but with
``≈ 1/dp`` of the arithmetic.

The operations:

* :func:`row_compact_linear` — Row-based Dropout Pattern (RDP) applied to the
  output neurons of an affine layer, with optional compaction along the input
  dimension when the *previous* layer's pattern is known (dropped inputs are
  zero, so their columns can be skipped too).
* :func:`tile_compact_linear` — Tile-based Dropout Pattern (TDP) applied to
  the weight matrix of an affine layer (structured DropConnect).
* :func:`recurrent_compact_context` — the gate-aligned TDP of an LSTM's
  hidden-to-hidden projection, gathered once per BPTT window.  Both TDP ops
  run a :class:`TileContext` (:func:`tile_context`).
* :func:`input_compact_linear` — skips the input columns an upstream RDP
  dropped (the consumer GEMM of Fig. 3(a) step 2).
* :func:`compact_softmax_loss` — the compact loss heads' class-pruned
  softmax cross-entropy (:mod:`repro.heads`) as one tape node.

All of them produce ordinary :class:`~repro.tensor.Tensor` objects wired into
the autodiff tape.

Scatter buffers: every full-size output or gradient an op scatters into is a
fresh zero-filled array, so a tensor held from one step is never overwritten
by a later one.  The zero fill costs one write pass over the buffer (glibc
serves blocks of this size from the heap with a memset once one has been
freed, so it is not a lazy calloc).  The TDP ops execute a compiled
:class:`~repro.dropout.engine.TileExecutionPlan` (one weight block and one
GEMM per column class, compact backward) instead of looping over individual
tiles against a dense mask.

Backend: the numeric primitives — gathers, GEMMs, scatter-buffer allocation
and the tile context's per-class GEMMs — are routed through an
:class:`~repro.backends.ExecutionBackend` (``backend=`` on every op), which
counts every call.  The ops own the autodiff orchestration and the backend
owns the array execution.  When no backend is passed, the process-wide
:func:`~repro.backends.default_backend` is used;
:meth:`repro.execution.EngineRuntime.bind` installs its own instance on every
pattern layer instead.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass
from typing import Sequence

from repro.backends import ExecutionBackend, default_backend
from repro.dropout.engine import (
    TileExecutionPlan,
    compile_recurrent_plan,
    compile_tile_plan,
)
from repro.dropout.patterns import (
    RecurrentTilePattern,
    RowDropoutPattern,
    TileDropoutPattern,
)
from repro.tensor import Tensor
from repro.tensor import dirty as _dirty
from repro.tensor.functional import (RecurrentProjection, _slice_or_index,
                                     check_targets)


def row_compact_linear(x: Tensor, weight: Tensor, bias: Tensor | None,
                       pattern: RowDropoutPattern,
                       input_pattern: RowDropoutPattern | None = None,
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
    backend:
        Optional :class:`~repro.backends.ExecutionBackend` executing the
        gathers/GEMMs/allocations; :func:`~repro.backends.default_backend`
        when omitted.

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

    batch = x.shape[0]
    dtype = out_compact.dtype
    out_full = backend.zeros((batch, out_features), dtype)
    backend.scatter_cols(out_full, kept_rows, out_compact)

    cache: list = []

    def compact_grad(grad: np.ndarray) -> np.ndarray:
        # Once per upstream gradient: the walk calls the parent edges back
        # to back with the same array.
        if not cache or cache[0] is not grad:
            cache[:] = [grad, backend.gather_cols(grad, kept_rows)]
        return cache[1]

    def backward_x(grad: np.ndarray) -> np.ndarray:
        grad_compact = compact_grad(grad)
        if kept_cols is not None:
            grad_x = backend.zeros(x.data.shape, x.data.dtype)
            backend.scatter_cols(grad_x, kept_cols,
                                 backend.gemm(grad_compact, weight_compact))
        else:
            grad_x = backend.gemm(grad_compact, weight_compact)
        return grad_x

    def backward_weight(grad: np.ndarray) -> np.ndarray:
        grad_compact = compact_grad(grad)
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
            grad_compact = compact_grad(grad)
            grad_bias = backend.zeros(bias.data.shape, bias.data.dtype)
            backend.scatter_rows(grad_bias, kept_rows, grad_compact.sum(axis=0))
            return grad_bias

        parents.append((bias, backward_bias))

    return Tensor.from_op(out_full, parents, "row_compact_linear")


def tile_compact_linear(x: Tensor, weight: Tensor, bias: Tensor | None,
                        pattern: TileDropoutPattern,
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
    backend:
        Optional :class:`~repro.backends.ExecutionBackend` executing the
        :class:`TileContext` of the pattern's compiled plan;
        :func:`~repro.backends.default_backend` when omitted.

    Returns
    -------
    Tensor of shape ``(batch, out_features)``.

    Raises ``ValueError`` when the pattern's shape differs from the weight's
    or ``x`` is not ``(batch, in_features)``.
    """
    context = tile_context(weight, compile_tile_plan(pattern),
                           backend or default_backend())
    out = context.forward(x.data)
    if bias is not None:
        out += bias.data

    parents = [(x, context.backward_h),
               (weight, lambda grad: context.weight_grad(grad, x.data))]
    if bias is not None:
        parents.append((bias, lambda grad: grad.sum(axis=0)))

    return Tensor.from_op(out, parents, "tile_compact_linear")


@dataclass(frozen=True)
class TileContext(RecurrentProjection):
    """The compact projection ``h @ (W * tile mask).T`` of one compiled plan.

    The surviving weight tiles are gathered **once**, one C-ordered block
    per column class of the plan, and every GEMM of the context reads those
    blocks: :meth:`forward` and :meth:`backward_h` run the backend's
    ``context_forward``/``context_backward_h`` primitives, and
    :meth:`weight_grad` is one ``context_backward_blocks`` call whose
    blocks are scattered class by class into a fresh full-size buffer, so
    dropped tiles get exactly zero.

    :func:`tile_compact_linear` builds one per step.  The tiled recurrent
    projection builds one per BPTT window (its pattern is fixed for the
    window): as a :class:`~repro.tensor.functional.RecurrentProjection` it
    runs inside :func:`~repro.tensor.functional.lstm_recurrence`, one
    forward and one input gradient per timestep and one weight gradient
    over the rows of every timestep.
    """

    plan: TileExecutionPlan
    weight: Tensor
    backend: ExecutionBackend
    blocks: tuple  # per-class (R, C) weight blocks, in plan class order

    @property
    def tensor(self) -> Tensor:
        return self.weight

    def forward(self, h: np.ndarray) -> np.ndarray:
        if h.ndim != 2 or h.shape[1] != self.plan.cols:
            raise ValueError(
                f"expected (batch, {self.plan.cols}) inputs, got shape {h.shape}")
        out = self.backend.zeros((h.shape[0], self.plan.rows),
                                 np.result_type(h, self.weight.data))
        self.backend.context_forward(self.plan.classes, self.blocks, h, out)
        return out

    def backward_h(self, grad: np.ndarray) -> np.ndarray:
        grad_h = self.backend.zeros((grad.shape[0], self.plan.cols), grad.dtype)
        self.backend.context_backward_h(self.plan.classes, self.blocks, grad,
                                        grad_h)
        return grad_h

    def weight_grad(self, grad: np.ndarray, h: np.ndarray) -> np.ndarray:
        classes = self.plan.classes
        pieces = self.backend.context_backward_blocks(classes, grad, h)
        # Class blocks are disjoint (disjoint row sets), so plain assignment
        # is exact; scatter_block records the dirty rows.
        full = self.backend.zeros(self.weight.data.shape, self.weight.data.dtype)
        for (rows, cols), piece in zip(classes, pieces):
            self.backend.scatter_block(full, rows, cols, piece)
        return full


def tile_context(weight: Tensor, plan: TileExecutionPlan,
                 backend: ExecutionBackend) -> TileContext:
    """Gather ``plan``'s weight blocks from ``weight`` into a :class:`TileContext`."""
    if (plan.rows, plan.cols) != tuple(weight.shape):
        raise ValueError(
            f"plan shape ({plan.rows}, {plan.cols}) does not match weight "
            f"shape {weight.shape}")
    blocks = tuple(backend.gather_block(weight.data, rows, cols)
                   for rows, cols in plan.classes)
    return TileContext(plan=plan, weight=weight, backend=backend, blocks=blocks)


def recurrent_compact_context(weight: Tensor, pattern: RecurrentTilePattern,
                              backend: ExecutionBackend | None = None,
                              ) -> TileContext:
    """The tiled recurrent projection of one BPTT window.

    Call once per window (after the schedule installed the window's
    pattern): the surviving weight tiles are gathered once per window
    instead of once per timestep, and the weight gradient is scattered
    once per window.
    """
    return tile_context(weight, compile_recurrent_plan(pattern),
                        backend or default_backend())


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


@dataclass(frozen=True)
class SoftmaxLevel:
    """One softmax of :func:`compact_softmax_loss`: the weight rows it
    projects onto (``classes``, no repeats), each example's position in them
    (``targets``), the feature ``rows`` it covers (``None``: all), its loss
    ``weight`` and optional per-class ``log_weights`` added to its logits."""

    classes: np.ndarray
    targets: np.ndarray
    rows: np.ndarray | None = None
    weight: float = 1.0
    log_weights: np.ndarray | None = None


@dataclass(frozen=True)
class _Projected:
    """What the backward pass of one level needs from its forward pass."""

    classes: np.ndarray
    targets: np.ndarray
    rows: np.ndarray | None
    x: np.ndarray            # the gathered feature rows
    w: np.ndarray            # the gathered weight rows
    exps: np.ndarray         # exp(logits - row max), in the GEMM's output
    sums: np.ndarray         # row sums of ``exps``, shape (rows, 1)
    loss_weight: np.ndarray  # 0-d, in the logits' dtype
    inv_count: np.ndarray    # 1 / rows, 0-d, in the logits' dtype


def compact_softmax_loss(x: Tensor, weight: Tensor, bias: Tensor | None,
                         levels: Sequence[SoftmaxLevel],
                         input_pattern: RowDropoutPattern | None = None,
                         backend: ExecutionBackend | None = None) -> Tensor:
    """Class-pruned softmax cross-entropy of the compact loss heads, as one
    tape node.

    Each level projects its feature rows onto its ``classes`` only (a
    gather-GEMM that also skips the input columns ``input_pattern`` dropped)
    and takes the mean cross-entropy against its targets; the loss is
    ``(mean_0 w_0 + mean_1 w_1) + mean_2 w_2 ...``.  The sampled head passes
    one level, the adaptive head its head level plus each expanded band.

    The log-sum-exp runs in place on each GEMM output.  The hand-written
    backward writes every level's weight and bias gradient into one
    zero-filled buffer per parameter (the first level assigns its rows, later
    levels add theirs), the feature gradient into one array, and records the
    union of the classes once for the sparse optimizer.  Every value takes
    the same floating-point steps as composing the loss on the tape — a
    gather-GEMM (``x @ w.T``, gradients ``g @ w`` and ``g.T @ x``),
    ``+ log_weights`` and ``F.cross_entropy`` per level, then the weighted
    sum — so it equals that composition bit for bit.
    """
    if x.ndim != 2:
        raise ValueError(
            f"compact_softmax_loss expects 2-D input, got shape {x.shape}")
    out_features, in_features = weight.shape
    if x.shape[1] != in_features:
        raise ValueError(
            f"input feature dimension {x.shape[1]} does not match weight columns {in_features}")
    if input_pattern is not None and input_pattern.num_units != in_features:
        raise ValueError(
            f"input_pattern covers {input_pattern.num_units} units but the layer "
            f"has {in_features} inputs")
    if not levels:
        raise ValueError("compact_softmax_loss needs at least one level")

    backend = backend or default_backend()
    kept_cols = None if input_pattern is None else input_pattern.kept_indices
    runs, loss = [], None
    for level in levels:
        classes = _checked_classes(level.classes, out_features)
        targets = np.asarray(level.targets)
        # Rows first, then columns: the gathered operands keep the memory
        # layout (and so the BLAS rounding) of the composed reference.
        x_level = x.data if level.rows is None else x.data[level.rows]
        if kept_cols is not None:
            x_level = backend.gather_cols(x_level, kept_cols)
        count = len(x_level)
        if count == 0 or targets.shape != (count,):
            raise ValueError(
                f"a level needs a target for each of its (at least one) rows, "
                f"got {targets.shape} targets for {count} rows")
        check_targets(targets, len(classes))
        w_level = backend.gather_rows(weight.data, classes)
        if kept_cols is not None:
            w_level = backend.gather_cols(w_level, kept_cols)
        exps = backend.gemm(x_level, w_level.T)
        if bias is not None:
            exps += bias.data[classes]
        if level.log_weights is not None:
            if np.shape(level.log_weights) != (len(classes),):
                raise ValueError("log_weights must hold one offset per class")
            exps += level.log_weights
        exps -= exps.max(axis=1, keepdims=True)
        picked = exps[np.arange(count), targets]
        np.exp(exps, out=exps)
        sums = exps.sum(axis=1, keepdims=True)
        picked -= np.log(sums)[:, 0]
        # Constants in the logits' dtype: a float64 0-d array would promote
        # a float32 run.
        loss_weight = np.asarray(level.weight, exps.dtype)
        inv_count = np.asarray(1.0 / count, exps.dtype)
        term = (-picked).sum() * inv_count * loss_weight
        loss = term if loss is None else loss + term
        runs.append(_Projected(classes, targets, level.rows, x_level, w_level,
                               exps, sums, loss_weight, inv_count))
    touched = np.unique(np.concatenate([run.classes for run in runs]))
    cache: list = []

    def grads(grad: np.ndarray) -> tuple:
        # All three gradients in one pass, once per upstream gradient (the
        # walk calls the parent edges back to back with the same array).
        if cache and cache[0] is grad:
            return cache[1]
        grad_x = backend.zeros(x.data.shape, x.data.dtype)
        grad_w = backend.zeros(weight.data.shape, weight.data.dtype)
        grad_b = None if bias is None else backend.zeros(bias.data.shape,
                                                         bias.data.dtype)
        for index, run in enumerate(runs):
            mean_grad = (grad * run.loss_weight) * run.inv_count
            delta = run.exps * (mean_grad / run.sums)   # d loss / d logits
            delta[np.arange(len(delta)), run.targets] += -mean_grad
            _put(grad_x, run.rows, kept_cols, backend.gemm(delta, run.w), True)
            # The first level assigns its rows, later ones add (a pilot row sums).
            _put(grad_w, run.classes, kept_cols, backend.gemm(delta.T, run.x),
                 index > 0)
            if grad_b is not None:
                _put(grad_b, run.classes, None, delta.sum(axis=0), index > 0)
        # One dirty-row record per parameter buffer: the union of the classes.
        _dirty.record_rows(grad_w, touched)
        if grad_b is not None:
            _dirty.record_rows(grad_b, touched)
        cache[:] = [grad, (grad_x, grad_w, grad_b)]
        return cache[1]

    parents = [(x, lambda grad: grads(grad)[0]),
               (weight, lambda grad: grads(grad)[1])]
    if bias is not None:
        parents.append((bias, lambda grad: grads(grad)[2]))
    return Tensor.from_op(np.asarray(loss), parents, "compact_softmax_loss")


def _checked_classes(classes, num_rows: int) -> np.ndarray:
    """``classes`` as an index array, rejected unless it is a non-empty,
    in-range, repeat-free set of the ``num_rows`` weight rows."""
    classes = np.asarray(classes)
    if classes.ndim != 1 or len(classes) == 0:
        raise ValueError("classes must be a non-empty 1-D index array")
    if classes.min() < 0 or classes.max() >= num_rows:
        raise ValueError(
            f"classes must index the {num_rows} output rows, got range "
            f"[{classes.min()}, {classes.max()}]")
    if (not np.all(classes[1:] > classes[:-1])
            and np.unique(classes).size != len(classes)):
        # Fancy-index writes are buffered, so a repeated class would
        # silently get last-write-wins gradients.
        raise ValueError("classes must not contain duplicate classes")
    return classes


def _put(out: np.ndarray, rows, cols, values: np.ndarray, add: bool) -> None:
    """``out[rows, cols] = values`` (``+=`` when ``add``); ``None`` selects a
    whole axis, and ascending arithmetic index runs become slices."""
    index = slice(None) if rows is None else _slice_or_index(rows)
    if cols is not None:
        cols = _slice_or_index(cols)
        index = ((index, cols) if isinstance(index, slice) or isinstance(cols, slice)
                 else np.ix_(index, cols))
    if add:
        out[index] += values
    else:
        out[index] = values


def dense_masked_linear_reference(x: np.ndarray, weight: np.ndarray,
                                  bias: np.ndarray | None, mask: np.ndarray,
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
        return out * mask[None, :]
    if mask_axis == "weight":
        out = x @ (weight * mask).T
        if bias is not None:
            out = out + bias
        return out
    raise ValueError(f"unknown mask_axis {mask_axis!r}")
