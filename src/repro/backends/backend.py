"""The execution backend of the compact pattern engine.

An :class:`ExecutionBackend` owns the numeric primitives the compact dropout
ops are built from — dense GEMM on the gathered operands, compact
gather/scatter of the surviving rows/columns/blocks, scatter-buffer
allocation, and the per-class GEMMs of a tile context (the weight blocks of
a compiled :class:`~repro.dropout.engine.TileExecutionPlan`).  The autodiff
orchestration stays in :mod:`repro.dropout.compact_ops`: the ops build the
tape and decide *what* to compute, the backend decides *how* the arrays are
produced.

Every primitive increments a per-operation call counter (``self.calls``),
which :meth:`repro.execution.EngineRuntime.stats` reports as
``backend_calls``.  Each :class:`~repro.execution.EngineRuntime` builds its
own instance, so the counters of concurrent runtimes never mix.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import dirty as _dirty
from repro.tensor.functional import _slice_or_index


class ExecutionBackend:
    """Numeric execution behind the compact dropout ops.

    Scatter-buffer allocation, gather/scatter helpers, the GEMM and the
    tile context's per-class GEMMs, each counted in :attr:`calls`.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}

    def count(self, op: str, n: int = 1) -> None:
        """Record ``n`` executions of primitive ``op``."""
        self.calls[op] = self.calls.get(op, 0) + n

    # ------------------------------------------------------------------
    # scatter-buffer allocation
    # ------------------------------------------------------------------
    def zeros(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A fresh zero-filled scatter buffer.

        This is the single allocation point of the compact ops' full-size
        output/gradient arrays.  The zero fill is not free: once a block of
        this size has been freed, glibc serves the next one from the heap
        and clears it with a memset (about 0.35 ms for a 1024x1024 float64
        buffer on a 2-core x86 Xeon), so every buffer costs one write pass.
        Every buffer is reported to the active dirty tracker as freshly
        zeroed, so the sparse optimizer knows its region starts empty, and as
        transferable: nothing else writes it later, so the backward pass may
        adopt it as a leaf ``.grad`` without a defensive copy.
        """
        self.count("alloc")
        out = np.zeros(shape, dtype=dtype)
        _dirty.record_reset(out)
        _dirty.mark_transferable(out)
        return out

    # ------------------------------------------------------------------
    # compact gather / scatter
    # ------------------------------------------------------------------
    def gather_rows(self, array: np.ndarray, indices) -> np.ndarray:
        """The rows of ``array`` selected by ``indices`` (compact gather).

        An ascending arithmetic run (an RDP kept set) returns a strided
        *view* of ``array``, which BLAS reads in place; callers must not
        write into the result.
        """
        self.count("gather")
        return array[_slice_or_index(indices)]

    def gather_cols(self, array: np.ndarray, indices) -> np.ndarray:
        """The columns of ``array`` selected by ``indices`` (compact gather).

        Always a fancy-index copy, which numpy lays out F-ordered.  GEMM
        rounding depends on operand layout, so a strided view or a C-ordered
        copy here would change results.
        """
        self.count("gather")
        return array[:, indices]

    def gather_block(self, array: np.ndarray, row_indices,
                     col_indices) -> np.ndarray:
        """The 2-D block ``array[ix_(rows, cols)]`` as a C-ordered copy
        (compact tile-class gather).

        The rows are selected first (a view for an arithmetic run), then
        ``np.take`` copies the columns straight into C order, the layout the
        context GEMMs read.  Fancy indexing on both axes took 1.7-2.8x as
        long for 512x512 and 1024x512 blocks of a 1024x1024 float64 weight
        (2-core x86 Xeon, numpy 2.4).
        """
        self.count("gather")
        cols = np.asarray(col_indices)
        if cols.dtype == bool:
            cols = np.flatnonzero(cols)  # np.take would read a mask as 0/1
        return np.take(array[_slice_or_index(row_indices)], cols, axis=1)

    def scatter_rows(self, out: np.ndarray, indices, values: np.ndarray) -> None:
        """``out[indices] = values`` (compact scatter into a zeroed buffer)."""
        self.count("scatter")
        out[_slice_or_index(indices)] = values
        _dirty.record_rows(out, indices)

    def scatter_block(self, out: np.ndarray, row_indices, col_indices,
                      values: np.ndarray) -> None:
        """``out[ix_(rows, cols)] = values`` — the 2-D counterpart of
        :meth:`gather_block` (compact tile/class-block scatter).  Recorded as
        a dirty *row* set (a safe overapproximation: the untouched columns of
        a recorded row stay exactly zero)."""
        self.count("scatter")
        rows = _slice_or_index(row_indices)
        cols = _slice_or_index(col_indices)
        if isinstance(rows, slice) or isinstance(cols, slice):
            out[rows, cols] = values
        else:
            out[np.ix_(rows, cols)] = values
        _dirty.record_rows(out, row_indices)

    def scatter_cols(self, out: np.ndarray, indices, values: np.ndarray) -> None:
        """``out[:, indices] = values`` (compact scatter into a zeroed buffer)."""
        self.count("scatter")
        out[:, _slice_or_index(indices)] = values
        _dirty.record_cols(out, indices)

    # ------------------------------------------------------------------
    # GEMM
    # ------------------------------------------------------------------
    def gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense matrix product ``a @ b`` of the gathered compact operands."""
        self.count("gemm")
        return a @ b

    # ------------------------------------------------------------------
    # tile-context execution (per-class GEMMs on pre-gathered blocks)
    # ------------------------------------------------------------------
    #
    # A tile context (`repro.dropout.compact_ops.TileContext`) gathers the
    # surviving weight tiles once into per-class blocks: once per step for a
    # tile layer, once per BPTT window for the tiled recurrent projection.
    # Each forward is one `context_forward` and each input gradient one
    # `context_backward_h` against those blocks (every timestep, inside the
    # fused LSTM recurrence); the weight gradient is one
    # `context_backward_blocks` over all rows (every timestep's, stacked).

    def context_forward(self, classes, blocks, h: np.ndarray,
                        out: np.ndarray) -> None:
        """Fill ``out[:, rows] = h[:, cols] @ block.T`` for every class.

        ``classes`` is a sequence of ``(row_indices, col_indices)`` pairs
        with disjoint row sets (so plain assignment is exact) and ``blocks``
        the matching pre-gathered ``(R, C)`` weight blocks.  ``out`` arrives
        zero-filled.

        Gate-aligned recurrent plans often keep *every* tile-row, so a
        class's row set is one contiguous run — selecting it as a slice
        instead of a fancy index turns three per-timestep permutation
        copies of the gate-width gradient into views (same elements, same
        GEMMs, bit-identical results).
        """
        self.count("context_forward")
        self.count("context_gemm", len(classes))
        for (rows, cols), block in zip(classes, blocks):
            out[:, _slice_or_index(rows)] = h[:, cols] @ block.T

    def context_backward_h(self, classes, blocks, grad: np.ndarray,
                           grad_h: np.ndarray) -> None:
        """Accumulate ``d loss / d h`` into the zero-filled ``grad_h``."""
        self.count("context_backward_h")
        self.count("context_gemm", len(classes))
        for (rows, cols), block in zip(classes, blocks):
            # Column classes are disjoint; += into the zero-filled buffer
            # stores a -0.0 product as +0.0.
            grad_h[:, cols] += grad[:, _slice_or_index(rows, strided=False)] @ block

    def context_backward_blocks(self, classes, grad: np.ndarray,
                                h: np.ndarray) -> list[np.ndarray]:
        """Per-class block gradients ``grad[:, rows].T @ h[:, cols]``, in
        class order (the caller scatters them into the full-size weight
        gradient)."""
        self.count("context_backward_blocks")
        self.count("context_gemm", len(classes))
        return [grad[:, _slice_or_index(rows, strided=False)].T @ h[:, cols]
                for rows, cols in classes]
