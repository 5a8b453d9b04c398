"""The execution backend of the compact pattern engine.

An :class:`ExecutionBackend` owns the numeric primitives the compact dropout
ops are built from — dense GEMM on the gathered operands, compact
gather/scatter of the surviving rows/columns, and scatter-buffer allocation —
plus the execution of a whole compiled
:class:`~repro.dropout.engine.TileExecutionPlan` (forward and both backward
passes) and of the tiled recurrent projection's per-class GEMMs.  The
autodiff orchestration stays in :mod:`repro.dropout.compact_ops`: the ops
build the tape and decide *what* to compute, the backend decides *how* the
arrays are produced.

Every primitive increments a per-operation call counter (``self.calls``),
which :meth:`repro.execution.EngineRuntime.stats` reports as
``backend_calls``.  Each :class:`~repro.execution.EngineRuntime` builds its
own instance, so the counters of concurrent runtimes never mix.

Tile plans
----------

For the TDP patterns this repo trains (tile 32, periods up to 16) a
2048-wide layer has up to 64 tile-rows, so one GEMM per surviving tile-row
group pays up to 64 interpreter round-trips, 64 input gathers and 64
skinny-output BLAS calls (``N = 32``) per pass.  The tile primitives cut that
in two steps.

First, within one ``(dp, bias)`` pattern the plan's tile-rows fall into **at
most ``dp`` classes with an identical column set**
(:func:`~repro.dropout.engine.plan_column_groups`).  All rows of a class are
concatenated into one GEMM::

    out[:, rows] = x[:, cols] @ weight[ix_(rows, cols)].T

Second, classes of **equal kept-count** (same number of rows and columns,
different column sets) are stacked along a new leading axis and executed as
a *single batched GEMM* (``np.matmul`` on 3-D operands)::

    xs  = x[:, cols2d]                    # (batch, F, C) — one gather for F classes
    ws  = weight[rows2d[:,:,None], cols2d[:,None,:]]   # (F, R, C)
    out[:, rows2d] = matmul(xs.transpose(1,0,2), ws.transpose(0,2,1))  # (F, batch, R)

Within one tile pattern the surviving tile-rows keep either
``floor(grid_cols/dp)`` or ``ceil(grid_cols/dp)`` tiles — at most two
distinct kept-counts — so nearly every class lands in a stackable family.
The pooled pattern stream draws from a few dozen interned patterns, so the
stacked index layouts are cached per plan identity and replayed across
training steps.

Classes without an equal-shape partner run as one concatenated GEMM each,
and lone tile-row groups (a class of one, which also covers the ``dp == 1``
plan that is already one contiguous view) run one GEMM per group.  The
tiers change the GEMMs' shapes, so results match a one-GEMM-per-group loop
to summation order, not bit for bit (checked against that loop in
``tests/backends/test_backends.py`` and the contract suite).

The classes of one plan never share a column.  Tile ``t = r*G + c`` of a
grid with ``G`` tile-columns is kept iff ``t mod dp == bias``, so tile-row
``r`` keeps exactly the tile-columns ``c ≡ (bias - r*G) mod dp``: its column
set is a residue class mod ``dp``, and two classes with different column
sets are disjoint (gate-aligned recurrent plans replay one per-gate grid, so
the same holds there).  The input-gradient scatter therefore needs no
per-class statements: a family's batched contribution lands with one
fancy-indexed ``+=`` over its flattened columns, and no tier writes a column
another tier wrote.  The scatters still ``+=`` into the zero-filled buffer
rather than assign, so a ``-0.0`` product is stored as ``+0.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.tensor import dirty as _dirty
from repro.tensor.functional import _slice_or_index

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> backends)
    from repro.dropout.engine import TileExecutionPlan

#: Safety cap on cached stacked layouts (patterns are interned, so in practice
#: the cache holds a few dozen entries; the cap only guards pathological use).
_STACKED_CACHE_CAP = 4096


@dataclass(frozen=True)
class _FusedClass:
    """All tile-row groups of one plan sharing an identical column set."""

    rows: np.ndarray          # concatenated row indices of the class's groups
    cols: np.ndarray          # the shared column indices
    #: Zero-copy selectors when the indices form one contiguous run.
    rows_slice: slice | None
    cols_slice: slice | None

    @property
    def row_selector(self):
        return self.rows_slice if self.rows_slice is not None else self.rows

    @property
    def col_selector(self):
        return self.cols_slice if self.cols_slice is not None else self.cols

    def weight_selector(self):
        """The cheapest 2-D selector of the class's weight block."""
        if self.rows_slice is not None and self.cols_slice is not None:
            return self.rows_slice, self.cols_slice
        return np.ix_(self.rows, self.cols)


def _contiguous_slice(indices: np.ndarray) -> slice | None:
    if len(indices) and indices[-1] - indices[0] + 1 == len(indices):
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return None


@dataclass(frozen=True)
class _StackedFamily:
    """All column classes of one plan sharing the same (rows, cols) shape."""

    members: tuple[_FusedClass, ...]
    rows2d: np.ndarray  # (F, R) row indices, one row of indices per member
    cols2d: np.ndarray  # (F, C) column indices, one row of indices per member


@dataclass(frozen=True)
class _StackedLayout:
    """Three-tier execution layout of one plan: batched / per-class / per-group."""

    families: tuple[_StackedFamily, ...]
    singles: tuple[_FusedClass, ...]  # classes without an equal-shape partner
    leftovers: tuple                  # lone TileRowGroup objects


def _stack_layout(plan) -> _StackedLayout:
    # Built on the engine's canonical identical-column-set partition, so the
    # plan classes and the recurrent window context's classes always agree.
    from repro.dropout.engine import plan_column_groups

    by_shape: dict[tuple[int, int], list[_FusedClass]] = {}
    leftovers: list = []
    for groups in plan_column_groups(plan):
        if len(groups) < 2:
            # A lone class member gains nothing from re-gathering; the
            # per-group loop also keeps the view fast path of slice columns.
            leftovers.extend(groups)
            continue
        rows = np.concatenate([np.arange(g.row_start, g.row_stop) for g in groups])
        cols = np.asarray(groups[0].col_indices)
        by_shape.setdefault((len(rows), len(cols)), []).append(
            _FusedClass(rows=rows, cols=cols, rows_slice=_contiguous_slice(rows),
                        cols_slice=_contiguous_slice(cols)))
    families: list[_StackedFamily] = []
    singles: list[_FusedClass] = []
    for classes in by_shape.values():
        if len(classes) < 2:
            # A lone shape gains nothing from batching; the per-class path
            # keeps its zero-copy slice selectors.
            singles.extend(classes)
            continue
        rows2d = np.stack([cls.rows for cls in classes])
        cols2d = np.stack([cls.cols for cls in classes])
        families.append(_StackedFamily(members=tuple(classes),
                                       rows2d=rows2d, cols2d=cols2d))
    return _StackedLayout(families=tuple(families), singles=tuple(singles),
                          leftovers=tuple(leftovers))


class ExecutionBackend:
    """Numeric execution behind the compact dropout ops.

    Scatter-buffer allocation, gather/scatter helpers, the GEMM, the
    batched tile-plan tiers (with a per-plan layout cache) and the
    recurrent context loop, each counted in :attr:`calls`.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self._stacked: dict[tuple, _StackedLayout] = {}

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
    # GEMM
    # ------------------------------------------------------------------
    def gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense matrix product ``a @ b`` of the gathered compact operands."""
        self.count("gemm")
        return a @ b

    # ------------------------------------------------------------------
    # tile-plan execution
    # ------------------------------------------------------------------
    def stacked_layout(self, plan: "TileExecutionPlan") -> _StackedLayout:
        """The stacked layout of ``plan`` (computed once per plan identity)."""
        key = plan.identity
        layout = self._stacked.get(key)
        if layout is None:
            if len(self._stacked) >= _STACKED_CACHE_CAP:
                self._stacked.clear()
            layout = _stack_layout(plan)
            self._stacked[key] = layout
            self.count("plan_stack")
        return layout

    def tile_forward(self, plan: "TileExecutionPlan", x: np.ndarray,
                     weight: np.ndarray, out: np.ndarray) -> None:
        """Fill ``out[:, row_start:row_stop]`` for every surviving tile-row.

        ``out`` arrives zero-filled; dropped tile-rows stay zero.
        """
        layout = self.stacked_layout(plan)
        self.count("tile_forward")
        for family in layout.families:
            self.count("stacked_gemm")
            xs = x[:, family.cols2d]                               # (batch, F, C)
            ws = weight[family.rows2d[:, :, None],
                        family.cols2d[:, None, :]]                  # (F, R, C)
            result = np.matmul(xs.transpose(1, 0, 2),
                               ws.transpose(0, 2, 1))               # (F, batch, R)
            # Row sets are disjoint across classes (each tile-row belongs to
            # exactly one), so the fancy-indexed assignment is exact.
            out[:, family.rows2d] = result.transpose(1, 0, 2)
        for cls in layout.singles:
            self.count("fused_gemm")
            out[:, cls.row_selector] = (x[:, cls.col_selector]
                                        @ weight[cls.weight_selector()].T)
        if layout.leftovers:
            self.count("tile_group_gemm", len(layout.leftovers))
            for group in layout.leftovers:
                block = weight[group.row_start:group.row_stop, group.selector]
                out[:, group.row_start:group.row_stop] = (x[:, group.selector]
                                                          @ block.T)

    def tile_backward_input(self, plan: "TileExecutionPlan", grad: np.ndarray,
                            weight: np.ndarray, grad_x: np.ndarray) -> None:
        """Accumulate ``d loss / d x`` into the zero-filled ``grad_x``."""
        layout = self.stacked_layout(plan)
        self.count("tile_backward_input")
        for family in layout.families:
            self.count("stacked_gemm")
            gc = grad[:, family.rows2d].transpose(1, 0, 2)          # (F, batch, R)
            ws = weight[family.rows2d[:, :, None],
                        family.cols2d[:, None, :]]                  # (F, R, C)
            contrib = np.matmul(gc, ws)                             # (F, batch, C)
            # Column sets are disjoint across classes, so one fancy-indexed
            # += (no duplicate index) scatters the whole family.
            grad_x[:, family.cols2d.ravel()] += (
                contrib.transpose(1, 0, 2).reshape(len(grad_x), -1))
        for cls in layout.singles:
            self.count("fused_gemm")
            gc = grad[:, cls.row_selector]
            # No other class writes these columns; += into the zero-filled
            # buffer stores a -0.0 product as +0.0.
            grad_x[:, cls.col_selector] += gc @ weight[cls.weight_selector()]
        if layout.leftovers:
            self.count("tile_group_gemm", len(layout.leftovers))
            for group in layout.leftovers:
                block = weight[group.row_start:group.row_stop, group.selector]
                gc = grad[:, group.row_start:group.row_stop]
                grad_x[:, group.selector] += gc @ block

    def tile_backward_weight(self, plan: "TileExecutionPlan", grad: np.ndarray,
                             x: np.ndarray, grad_weight: np.ndarray) -> None:
        """Write ``d loss / d W`` for the surviving tiles into ``grad_weight``."""
        layout = self.stacked_layout(plan)
        self.count("tile_backward_weight")
        for family in layout.families:
            self.count("stacked_gemm")
            gc = grad[:, family.rows2d].transpose(1, 0, 2)          # (F, batch, R)
            xs = x[:, family.cols2d].transpose(1, 0, 2)             # (F, batch, C)
            gw = np.matmul(gc.transpose(0, 2, 1), xs)               # (F, R, C)
            # The classes' weight blocks are disjoint (disjoint row sets), so
            # the batched fancy-indexed assignment scatters them all exactly.
            grad_weight[family.rows2d[:, :, None],
                        family.cols2d[:, None, :]] = gw
        for cls in layout.singles:
            self.count("fused_gemm")
            gc = grad[:, cls.row_selector]
            grad_weight[cls.weight_selector()] = gc.T @ x[:, cls.col_selector]
        if layout.leftovers:
            self.count("tile_group_gemm", len(layout.leftovers))
            for group in layout.leftovers:
                gc = grad[:, group.row_start:group.row_stop]
                grad_weight[group.row_start:group.row_stop, group.selector] = (
                    gc.T @ x[:, group.selector])

    # ------------------------------------------------------------------
    # window-context execution (per-class GEMMs on pre-gathered blocks)
    # ------------------------------------------------------------------
    #
    # The tiled recurrent projection (`RecurrentWindowContext`) gathers the
    # surviving weight tiles once per BPTT window into per-class blocks.
    # Inside the fused LSTM recurrence every timestep then runs one
    # `context_forward` and, on the way back, one `context_backward_h`; the
    # weight gradient is one `context_backward_blocks` per window over the
    # rows of every timestep.

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
        class order (the caller flattens them back into the compact gather's
        gradient)."""
        self.count("context_backward_blocks")
        self.count("context_gemm", len(classes))
        return [grad[:, _slice_or_index(rows, strided=False)].T @ h[:, cols]
                for rows, cols in classes]
