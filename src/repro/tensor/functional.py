"""Functional operations built on :class:`repro.tensor.Tensor`.

These are composite differentiable operations (softmax, log-softmax,
cross-entropy, concatenation, stacking, embedding lookup, masking, the fused
LSTM recurrence) used by the layer library in :mod:`repro.nn` and the
approximate-dropout layers in :mod:`repro.dropout`.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.tensor import dirty as _dirty
from repro.tensor.tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    max_vals = x.data.max(axis=axis, keepdims=True)
    shifted = x - Tensor(max_vals, dtype=max_vals.dtype)
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    max_data = x.data.max(axis=axis, keepdims=True)
    shifted = x - Tensor(max_data, dtype=max_data.dtype)
    log_sum = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_sum


def check_targets(targets: np.ndarray, num_classes: int) -> None:
    """Reject class targets outside ``[0, num_classes)`` (fancy indexing
    would read ``-1`` as the last class)."""
    bad = targets[(targets < 0) | (targets >= num_classes)]
    if bad.size:
        raise ValueError(f"target {bad[0]} is out of range for {num_classes} classes")


def _slice_or_index(indices, strided: bool = True):
    """``indices`` as a slice when it is an ascending arithmetic run of
    non-negative integers (a contiguous run only when ``strided`` is off).

    Fancy indexing copies; the equivalent slice is a view (gather) or a
    strided assignment (scatter) over the same elements in the same order,
    so swapping it in is bit-identical.  An RDP kept set
    ``arange(bias, n, dp)`` is such a run.  Negative indices and boolean
    masks stay index arrays: as slice bounds they select something else.
    Pass ``strided=False`` where a column view feeds a GEMM: numpy's matmul
    cannot hand a view strided along both axes to BLAS and falls back to
    its own loop, which rounds differently.
    """
    indices = np.asarray(indices)
    if indices.ndim == 1 and indices.size >= 2 and indices.dtype.kind in "iu":
        first, last = int(indices[0]), int(indices[-1])
        step = int(indices[1]) - first
        if (first >= 0 and (step == 1 or strided and step > 1)
                and last - first == step * (indices.size - 1)
                and np.all(np.diff(indices) == step)):
            return slice(first, last + 1, step)
    return indices


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Cross-entropy loss from raw logits and integer class targets.

    Parameters
    ----------
    logits:
        Tensor of shape ``(batch, classes)``.
    targets:
        Integer array of shape ``(batch,)``.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError(f"targets must be 1-D class indices, got shape {targets.shape}")
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (batch, classes), got shape {logits.shape}")
    if targets.shape[0] != logits.shape[0]:
        raise ValueError("batch size mismatch between logits and targets")
    return nll_loss(log_softmax(logits, axis=-1), targets, reduction)


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood from precomputed log-probabilities."""
    targets = np.asarray(targets)
    check_targets(targets, log_probs.shape[-1])
    batch = log_probs.shape[0]
    picked = log_probs[np.arange(batch), targets]
    losses = -picked
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError(f"unknown reduction {reduction!r}")


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean-squared-error loss."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_t
    squared = diff * diff
    if reduction == "mean":
        return squared.mean()
    if reduction == "sum":
        return squared.sum()
    return squared


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each."""
    arrays = [t.data for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]
    offsets = np.cumsum([0] + sizes)

    parents = []
    for i, t in enumerate(tensors):
        start, stop = offsets[i], offsets[i + 1]

        def backward(g, start=start, stop=stop, axis=axis):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            return g[tuple(slicer)]

        parents.append((t, backward))
    return Tensor.from_op(out, parents, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    arrays = [t.data for t in tensors]
    out = np.stack(arrays, axis=axis)
    parents = []
    for i, t in enumerate(tensors):
        def backward(g, i=i, axis=axis):
            return np.take(g, i, axis=axis)

        parents.append((t, backward))
    return Tensor.from_op(out, parents, "stack")


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` at ``indices`` (an integer array of any shape).

    The result has shape ``indices.shape + (embedding_dim,)``; gradients are
    scatter-added back into the embedding matrix.
    """
    indices = np.asarray(indices)
    out = weight.data[indices]

    def backward(g, indices=indices):
        # Sort the flat lookups and segment-sum with np.add.reduceat: same
        # result as np.add.at (which is unbuffered and an order of magnitude
        # slower for embedding-sized scatters), one contiguous reduction per
        # distinct row instead of one scalar add per gathered element.
        grad_weight = np.zeros(weight.data.shape, dtype=weight.data.dtype)
        _dirty.record_reset(grad_weight)
        _dirty.mark_transferable(grad_weight)
        # Normalize negative indices so aliases of one row (-n+k and k) land
        # in the same segment — fancy assignment below is last-write-wins.
        flat_indices = indices.reshape(-1) % weight.data.shape[0]
        if flat_indices.size == 0:
            return grad_weight  # reduceat rejects the empty segment list
        flat_grad = g.reshape(-1, weight.data.shape[1])
        order = np.argsort(flat_indices, kind="stable")
        sorted_indices = flat_indices[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_indices[1:] != sorted_indices[:-1]])
        touched = sorted_indices[starts]
        grad_weight[touched] = np.add.reduceat(flat_grad[order], starts, axis=0)
        _dirty.record_rows(grad_weight, touched)
        return grad_weight

    return Tensor.from_op(out, [(weight, backward)], "embedding")


class RecurrentProjection(abc.ABC):
    """One window's recurrent projection ``h @ W.T`` of an LSTM layer.

    :func:`lstm_recurrence` calls :meth:`forward` and :meth:`backward_h` once
    per timestep and :meth:`weight_grad` once per window, with the rows of
    every timestep stacked, so the weight gradient is one batched call.  The
    weight gradient flows into :attr:`tensor`, the differentiable array the
    projection multiplies by: the weight itself or a masked or rescaled copy
    of it (:class:`DenseProjection`).  A
    :class:`~repro.dropout.compact_ops.TileContext` reads only the weight's
    surviving tiles, and its gradient is exactly zero on the dropped ones.
    """

    #: The differentiable tensor :meth:`weight_grad` returns the gradient of.
    tensor: Tensor

    @abc.abstractmethod
    def forward(self, h: np.ndarray) -> np.ndarray:
        """``h @ W.T`` for one timestep's ``(batch, hidden)`` state."""

    @abc.abstractmethod
    def backward_h(self, grad: np.ndarray) -> np.ndarray:
        """``d loss / d h`` from one timestep's ``(batch, rows)`` output gradient."""

    @abc.abstractmethod
    def weight_grad(self, grad: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``d loss / d tensor`` from output gradients ``grad`` and the
        states ``h`` they were projected from, stacked over any number of
        rows."""

    def __call__(self, h: Tensor) -> Tensor:
        """One differentiable projection step, ``h @ W.T``."""
        data = h.data
        return Tensor.from_op(
            self.forward(data),
            [(h, self.backward_h),
             (self.tensor, lambda grad: self.weight_grad(grad, data))],
            "recurrent_projection")


class DenseProjection(RecurrentProjection):
    """The projection by a dense ``(4 * hidden, hidden)`` weight tensor."""

    def __init__(self, weight: Tensor):
        self.tensor = weight

    def forward(self, h: np.ndarray) -> np.ndarray:
        return h @ self.tensor.data.T

    def backward_h(self, grad: np.ndarray) -> np.ndarray:
        return grad @ self.tensor.data

    def weight_grad(self, grad: np.ndarray, h: np.ndarray) -> np.ndarray:
        return grad.T @ h


def _sigmoid_(x: np.ndarray) -> None:
    """``x = 1 / (1 + exp(-x))`` in place, with that expression's rounding."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


def lstm_recurrence(gates_x: Tensor, h0: Tensor, c0: Tensor,
                    projection: RecurrentProjection,
                    ) -> tuple[Tensor, Tensor, Tensor]:
    """The LSTM recurrence over a window of timesteps, as one autodiff node.

    ``gates_x`` holds every timestep's input contribution to the four gate
    pre-activations ``[i | f | g | o]`` (``x_t @ W_x.T + b``) as one
    timestep-major ``(seq_len * batch, 4 * hidden)`` matrix, the output of
    one GEMM over the whole window; ``h0`` and ``c0`` are the
    ``(batch, hidden)`` initial state.  Each timestep adds the recurrent
    projection of the previous ``h`` and applies the gates::

        z_t = gates_x[t] + projection(h_{t-1})
        c_t = sigmoid(z_f) * c_{t-1} + sigmoid(z_i) * tanh(z_g)
        h_t = sigmoid(z_o) * tanh(c_t)

    Returns ``(outputs, h_last, c_last)`` with ``outputs`` of shape
    ``(seq_len, batch, hidden)``.  The backward pass is hand-written BPTT:
    the timestep-parallel gate derivatives are computed in one vectorised
    pass, one reverse loop carries ``dh`` and ``dc`` through the recurrence,
    and the projection's weight gradient is one call over all
    ``seq_len * batch`` rows.  The loop replaces the per-timestep tape nodes
    of an unfused cell; the serving engine runs the same forward loop, so its
    output is bit-identical to an eval-mode ``forward()``.
    """
    batch, hidden = h0.shape
    z_in = gates_x.data
    if z_in.ndim != 2 or z_in.shape[1] != 4 * hidden or z_in.shape[0] % batch:
        raise ValueError(
            f"gates_x must be (seq_len * {batch}, {4 * hidden}), got {z_in.shape}")
    seq_len = z_in.shape[0] // batch
    dtype = np.result_type(z_in, h0.data, c0.data)
    hs = np.empty((seq_len + 1, batch, hidden), dtype)   # h_0 .. h_T
    cs = np.empty_like(hs)                               # c_0 .. c_T
    acts = np.empty((seq_len, batch, 4 * hidden), dtype)  # activated gates
    tanh_cs = np.empty((seq_len, batch, hidden), dtype)
    hs[0] = h0.data
    cs[0] = c0.data
    i_g, f_g, g_g, o_g = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    z_steps = z_in.reshape(seq_len, batch, 4 * hidden)
    for t in range(seq_len):
        a = acts[t]
        np.add(z_steps[t], projection.forward(hs[t]), out=a)
        _sigmoid_(a[:, :2 * hidden])            # i and f
        np.tanh(a[:, g_g], out=a[:, g_g])
        _sigmoid_(a[:, o_g])
        c = cs[t + 1]
        np.multiply(a[:, f_g], cs[t], out=c)
        c += a[:, i_g] * a[:, g_g]
        np.tanh(c, out=tanh_cs[t])
        np.multiply(a[:, o_g], tanh_cs[t], out=hs[t + 1])
    h_prev = hs[:-1].reshape(seq_len * batch, hidden)

    def bptt(grad_out, grad_h, grad_c):
        """Gradients of ``gates_x``, ``h0`` and ``c0`` for the upstream
        gradients of the outputs, ``h_last`` and ``c_last`` (each may be
        ``None``).  ``h0``'s is ``None`` when it is off the tape (a detached
        carried state), which saves the first timestep's projection GEMM."""
        i, f, g, o = (acts[..., k] for k in (i_g, f_g, g_g, o_g))
        # d z / d c_t for i, f, g and d z / d h_t for o, all timesteps at once.
        factors = np.subtract(1.0, acts)
        factors *= acts                          # sigmoid'(z) = s (1 - s)
        factors[..., i_g] *= g
        factors[..., f_g] *= cs[:-1]
        k_g = factors[..., g_g]
        np.multiply(g, g, out=k_g)
        np.subtract(1.0, k_g, out=k_g)
        k_g *= i
        factors[..., o_g] *= tanh_cs
        dc_dh = np.multiply(tanh_cs, tanh_cs)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o                                # d c_t / d h_t
        dz = np.empty_like(acts)
        factors_ifg = factors.reshape(seq_len, batch, 4, hidden)[:, :, :3]
        dz_ifg = dz.reshape(seq_len, batch, 4, hidden)[:, :, :3]
        dh = np.zeros((batch, hidden), dtype) if grad_h is None else grad_h
        dc = np.zeros((batch, hidden), dtype) if grad_c is None else grad_c
        for t in reversed(range(seq_len)):
            dh_t = dh if grad_out is None else grad_out[t] + dh
            dc = dh_t * dc_dh[t] + dc
            np.multiply(factors_ifg[t], dc[:, None, :], out=dz_ifg[t])
            np.multiply(factors[t, :, o_g], dh_t, out=dz[t, :, o_g])
            dh = (projection.backward_h(dz[t]) if t or h0.requires_grad
                  else None)
            dc = dc * f[t]
        return dz.reshape(seq_len * batch, 4 * hidden), dh, dc

    def edges(seed):
        # One BPTT per output node, shared by its four parent edges (the
        # walk calls them back to back with the same gradient array; the
        # cache holds that array, so its id can never be recycled).
        cache: list = []

        def grads(grad):
            if not cache or cache[0] is not grad:
                cache[:] = [grad, bptt(*seed(grad))]
            return cache[1]

        return [(gates_x, lambda grad: grads(grad)[0]),
                (h0, lambda grad: grads(grad)[1]),
                (c0, lambda grad: grads(grad)[2]),
                (projection.tensor,
                 lambda grad: projection.weight_grad(grads(grad)[0], h_prev))]

    outputs = Tensor.from_op(hs[1:], edges(lambda grad: (grad, None, None)),
                             "lstm_recurrence")
    h_last = Tensor.from_op(hs[-1], edges(lambda grad: (None, grad, None)),
                            "lstm_recurrence_h")
    c_last = Tensor.from_op(cs[-1], edges(lambda grad: (None, None, grad)),
                            "lstm_recurrence_c")
    return outputs, h_last, c_last


def apply_mask(x: Tensor, mask: np.ndarray) -> Tensor:
    """Elementwise multiply by a constant 0/1 mask (the conventional dropout op).

    The mask is a plain numpy array: it is data, not a differentiable input.
    """
    mask = np.asarray(mask, dtype=x.data.dtype)
    out = x.data * mask
    return Tensor.from_op(out, [(x, lambda g: g * mask)], "mask")


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (used for inverted-dropout rescaling)."""
    return x * float(factor)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in).

    The (out, in) layout matches the paper's discussion: dropping output
    neuron ``i`` corresponds to dropping *row* ``i`` of the weight matrix.
    """
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def rows_select(x: Tensor, row_indices: np.ndarray) -> Tensor:
    """Differentiable row gather: returns ``x[row_indices, :]``."""
    return x[np.asarray(row_indices)]


def rows_scatter(compact: Tensor, row_indices: np.ndarray, total_rows: int) -> Tensor:
    """Scatter compact rows back into a zero matrix of ``total_rows`` rows.

    This is the inverse of :func:`rows_select`: the output has shape
    ``(total_rows, compact.shape[1])`` with ``out[row_indices] = compact`` and
    zeros elsewhere — exactly the expansion step of the row-based dropout
    pattern in the paper (the "rest of the output matrix is set to zero by
    default").
    """
    row_indices = np.asarray(row_indices)
    out = np.zeros((total_rows,) + compact.data.shape[1:], dtype=compact.data.dtype)
    out[row_indices] = compact.data

    def backward(g, row_indices=row_indices):
        return g[row_indices]

    return Tensor.from_op(out, [(compact, backward)], "rows_scatter")


def cols_scatter(compact: Tensor, col_indices: np.ndarray, total_cols: int) -> Tensor:
    """Scatter compact columns back into a zero matrix with ``total_cols`` columns."""
    col_indices = np.asarray(col_indices)
    out_shape = compact.data.shape[:-1] + (total_cols,)
    out = np.zeros(out_shape, dtype=compact.data.dtype)
    out[..., col_indices] = compact.data

    def backward(g, col_indices=col_indices):
        return g[..., col_indices]

    return Tensor.from_op(out, [(compact, backward)], "cols_scatter")


def cols_select(x: Tensor, col_indices: np.ndarray) -> Tensor:
    """Differentiable column gather: returns ``x[..., col_indices]``."""
    col_indices = np.asarray(col_indices)
    out = x.data[..., col_indices]

    def backward(g, col_indices=col_indices):
        full = np.zeros(x.data.shape, dtype=x.data.dtype)
        full[..., _slice_or_index(col_indices)] = g
        _dirty.record_cols(full, col_indices)
        _dirty.mark_transferable(full)
        return full

    return Tensor.from_op(out, [(x, backward)], "cols_select")
