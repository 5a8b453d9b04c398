"""Abstract execution-backend interface of the compact pattern engine.

An :class:`ExecutionBackend` owns the three numeric primitives the compact
dropout ops are built from — dense GEMM on the gathered operands, compact
gather/scatter of the surviving rows/columns, and scatter-buffer allocation —
plus the execution of a whole compiled
:class:`~repro.dropout.engine.TileExecutionPlan` (forward and both backward
passes).  The autodiff orchestration stays in
:mod:`repro.dropout.compact_ops`: the ops build the tape and decide *what* to
compute, the backend decides *how* the arrays are produced.  Swapping the
backend therefore never changes semantics, only the execution strategy
(per-group loops vs. batched stacked GEMMs vs., eventually, device kernels).

Every primitive increments a per-operation call counter (``self.calls``);
:meth:`ExecutionBackend.stats` exposes the counters so
:meth:`repro.execution.EngineRuntime.stats` can stamp per-backend call counts
into the experiment records.

Backends are instantiated through the registry
(:func:`repro.backends.create_backend`), one instance per
:class:`~repro.execution.EngineRuntime`, so the counters of concurrent
runtimes never mix.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.tensor import dirty as _dirty
from repro.tensor.functional import _slice_or_index

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> backends)
    from repro.dropout.engine import TileExecutionPlan


class ExecutionBackend(abc.ABC):
    """Numeric execution strategy behind the compact dropout ops.

    Subclasses implement the GEMM/plan primitives; the shared base provides
    scatter-buffer allocation, gather/scatter helpers and the per-operation
    call counters.
    """

    #: Registry name of the backend (set by subclasses).
    name: str = "abstract"

    def __init__(self):
        self.calls: dict[str, int] = {}

    # ------------------------------------------------------------------
    # call accounting
    # ------------------------------------------------------------------
    def count(self, op: str, n: int = 1) -> None:
        """Record ``n`` executions of primitive ``op``."""
        self.calls[op] = self.calls.get(op, 0) + n

    def reset_stats(self) -> None:
        self.calls = {}

    def stats(self) -> dict[str, Any]:
        """Per-operation call counts (plus subclass extras) for diagnostics."""
        return {"name": self.name, "calls": dict(self.calls)}

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
        """The 2-D block ``array[ix_(rows, cols)]`` (compact tile-class gather)."""
        self.count("gather")
        rows = _slice_or_index(row_indices)
        cols = _slice_or_index(col_indices)
        if isinstance(rows, slice) or isinstance(cols, slice):
            # Mixed basic/advanced indexing on two axes selects the same
            # block as np.ix_ but skips the 2-D index broadcast.
            return array[rows, cols]
        return array[np.ix_(rows, cols)]

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
    # GEMM primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense matrix product ``a @ b`` of the gathered compact operands."""

    # ------------------------------------------------------------------
    # tile-plan execution
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def tile_forward(self, plan: "TileExecutionPlan", x: np.ndarray,
                     weight: np.ndarray, out: np.ndarray) -> None:
        """Fill ``out[:, row_start:row_stop]`` for every surviving tile-row.

        ``out`` arrives zero-filled; dropped tile-rows must stay zero.
        """

    @abc.abstractmethod
    def tile_backward_input(self, plan: "TileExecutionPlan", grad: np.ndarray,
                            weight: np.ndarray, grad_x: np.ndarray,
                            scale: float = 1.0) -> None:
        """Accumulate ``d loss / d x`` into the zero-filled ``grad_x``."""

    @abc.abstractmethod
    def tile_backward_weight(self, plan: "TileExecutionPlan", grad: np.ndarray,
                             x: np.ndarray, grad_weight: np.ndarray,
                             scale: float = 1.0) -> None:
        """Write ``d loss / d W`` for the surviving tiles into ``grad_weight``."""

    # ------------------------------------------------------------------
    # window-context execution (per-class GEMMs on pre-gathered blocks)
    # ------------------------------------------------------------------
    #
    # The tiled recurrent projection (`RecurrentWindowContext`) gathers the
    # surviving weight tiles once per BPTT window into per-class blocks.
    # Inside the fused LSTM recurrence every timestep then runs one
    # `context_forward` and, on the way back, one `context_backward_h`; the
    # weight gradient is one `context_backward_blocks` per window over the
    # rows of every timestep.  These primitives own the per-class GEMM loop,
    # so backends can batch it (see StackedBackend).  ``key`` is a hashable
    # layout-cache key (the plan identity) — the class structure is a pure
    # function of it, so layouts can be cached per key.

    def context_forward(self, key, classes, blocks, h: np.ndarray,
                        out: np.ndarray, scratch: dict | None = None) -> None:
        """Fill ``out[:, rows] = h[:, cols] @ block.T`` for every class.

        ``classes`` is a sequence of ``(row_indices, col_indices)`` pairs
        with disjoint row sets (so plain assignment is exact) and ``blocks``
        the matching pre-gathered ``(R, C)`` weight blocks.  ``out`` arrives
        zero-filled.  ``scratch`` is the context's per-window dict: the
        blocks are fixed for the window, so a backend may cache derived
        layouts in it across timesteps (ignored by the reference loop).

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

    def context_backward_h(self, key, classes, blocks, grad: np.ndarray,
                           grad_h: np.ndarray,
                           scratch: dict | None = None) -> None:
        """Accumulate ``d loss / d h`` into the zero-filled ``grad_h``."""
        self.count("context_backward_h")
        self.count("context_gemm", len(classes))
        for (rows, cols), block in zip(classes, blocks):
            # += not =: different column classes may share some columns.
            grad_h[:, cols] += grad[:, _slice_or_index(rows, strided=False)] @ block

    def context_backward_blocks(self, key, classes, grad: np.ndarray,
                                h: np.ndarray) -> list[np.ndarray]:
        """Per-class block gradients ``grad[:, rows].T @ h[:, cols]``, in
        class order (the caller flattens them back into the compact gather's
        gradient)."""
        self.count("context_backward_blocks")
        self.count("context_gemm", len(classes))
        return [grad[:, _slice_or_index(rows, strided=False)].T @ h[:, cols]
                for rows, cols in classes]

    def __repr__(self) -> str:
        total = sum(self.calls.values())
        return f"{type(self).__name__}(name={self.name!r}, calls={total})"
