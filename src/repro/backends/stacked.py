"""Stacked execution backend: tile GEMMs grouped by column set and batched.

The reference :class:`~repro.backends.numpy_backend.NumpyBackend` executes a
:class:`~repro.dropout.engine.TileExecutionPlan` with one Python-level GEMM
per surviving tile-row group.  For the TDP patterns this repo trains (tile
32, periods up to 16) a 2048-wide layer has up to 64 tile-rows, so the
reference path pays up to 64 interpreter round-trips, 64 input gathers and
64 skinny-output BLAS calls (``N = 32``) per pass.  This backend cuts that in
two steps.

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

which replaces ``F`` interpreter round-trips, gathers and skinny GEMMs with
one of each.  The structure this exploits is pervasive:

* within one ``(dp, bias)`` tile pattern the surviving tile-rows keep either
  ``floor(grid_cols/dp)`` or ``ceil(grid_cols/dp)`` tiles — at most two
  distinct kept-counts, so nearly every class lands in a stackable family;
* the gate-aligned recurrent patterns
  (:class:`~repro.dropout.patterns.RecurrentTilePattern`) replicate one
  per-gate plan across the stacked gate blocks, multiplying the family sizes
  by ``num_gates``;
* the pooled pattern stream draws from a few dozen interned patterns, so the
  stacked index layouts (cached per plan identity) are computed once and
  replayed across consecutive training steps.

The batching covers both plan entry points: the tile layers
(``tile_compact_linear``) and the tiled recurrent projection the LSTM
unroll uses (:class:`~repro.dropout.compact_ops.RecurrentWindowContext`): its
per-class GEMMs against the pre-gathered weight blocks route through the
backend's ``context_*`` primitives, whose stacked override batches
equal-shape classes into the same 3-D ``np.matmul`` tier (context layouts
cached per plan identity like the plan layouts).

Classes without an equal-shape partner run as one concatenated GEMM each,
and lone tile-row groups (a class of one, which also covers the ``dp == 1``
plan that is already one contiguous view) run the reference loop — the
three tiers share the exact arithmetic, so results match the reference
backend to summation order (property-tested in
``tests/backends/test_backends.py``).

The only subtle point is the input-gradient scatter: two stacked classes may
share *some* columns (their column sets are distinct but can overlap), and a
fancy-indexed ``+=`` buffers duplicate indices.  The batched GEMM therefore
computes every class's contribution at once, but the per-class ``+=``
scatters run as separate statements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.numpy_backend import NumpyBackend
from repro.tensor.functional import _slice_or_index

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

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class _StackedLayout:
    """Three-tier execution layout of one plan: batched / per-class / reference."""

    families: tuple[_StackedFamily, ...]
    singles: tuple[_FusedClass, ...]  # classes without an equal-shape partner
    leftovers: tuple                  # TileRowGroup objects (reference loop)


@dataclass(frozen=True)
class _ContextFamily:
    """All window-context classes of one plan sharing the same (R, C) shape."""

    members: tuple[int, ...]  # indices into the plan's class list
    rows2d: np.ndarray        # (F, R) row indices, one row per member
    cols2d: np.ndarray        # (F, C) column indices, one row per member


@dataclass(frozen=True)
class _ContextLayout:
    """Two-tier context execution: batched families / per-class reference."""

    families: tuple[_ContextFamily, ...]
    singles: tuple[int, ...]  # class indices without an equal-shape partner


def _context_layout(classes) -> _ContextLayout:
    by_shape: dict[tuple[int, int], list[int]] = {}
    for index, (rows, cols) in enumerate(classes):
        by_shape.setdefault((len(rows), len(cols)), []).append(index)
    families: list[_ContextFamily] = []
    singles: list[int] = []
    for members in by_shape.values():
        if len(members) < 2:
            singles.extend(members)
            continue
        rows2d = np.stack([np.asarray(classes[i][0]) for i in members])
        cols2d = np.stack([np.asarray(classes[i][1]) for i in members])
        families.append(_ContextFamily(members=tuple(members),
                                       rows2d=rows2d, cols2d=cols2d))
    return _ContextLayout(families=tuple(families), singles=tuple(singles))


def _stack_layout(plan) -> _StackedLayout:
    # Built on the engine's canonical identical-column-set partition, so the
    # plan classes and the recurrent window context's classes always agree.
    from repro.dropout.engine import plan_column_groups

    by_shape: dict[tuple[int, int], list[_FusedClass]] = {}
    leftovers: list = []
    for groups in plan_column_groups(plan):
        if len(groups) < 2:
            # A lone class member gains nothing from re-gathering; the
            # reference loop also keeps the view fast path of slice columns.
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


class StackedBackend(NumpyBackend):
    """Batched-GEMM execution of equal-shape column classes.

    Inherits the reference per-group loop for lone tile-row groups; adds a
    cached per-plan layout of concatenated column classes, partitioned into
    equal-shape stacked families.
    """

    name = "stacked"

    def __init__(self):
        super().__init__()
        self._stacked: dict[tuple, _StackedLayout] = {}
        self._context: dict[tuple, _ContextLayout] = {}

    # ------------------------------------------------------------------
    # stacked layout caches
    # ------------------------------------------------------------------
    def stacked_layout(self, plan) -> _StackedLayout:
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

    def context_layout(self, key, classes) -> _ContextLayout:
        """The equal-shape family partition of one plan's context classes.

        The class structure is a pure function of the plan identity ``key``
        (see :func:`~repro.dropout.engine.plan_column_classes`), so the
        stacked index layouts are computed once and replayed by every
        timestep of every window that replays the plan.
        """
        layout = self._context.get(key)
        if layout is None:
            if len(self._context) >= _STACKED_CACHE_CAP:
                self._context.clear()
            layout = _context_layout(classes)
            self._context[key] = layout
            self.count("context_stack")
        return layout

    # ------------------------------------------------------------------
    # tile-plan execution
    # ------------------------------------------------------------------
    def tile_forward(self, plan, x, weight, out) -> None:
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
        self._classes_forward(layout.singles, x, weight, out)
        if layout.leftovers:
            self.count("tile_group_gemm", len(layout.leftovers))
            self._groups_forward(layout.leftovers, x, weight, out)

    def tile_backward_input(self, plan, grad, weight, grad_x,
                            scale: float = 1.0) -> None:
        layout = self.stacked_layout(plan)
        self.count("tile_backward_input")
        for family in layout.families:
            self.count("stacked_gemm")
            gc = grad[:, family.rows2d].transpose(1, 0, 2)          # (F, batch, R)
            if scale != 1.0:
                gc = gc * scale
            ws = weight[family.rows2d[:, :, None],
                        family.cols2d[:, None, :]]                  # (F, R, C)
            contrib = np.matmul(gc, ws)                             # (F, batch, C)
            # Different classes may share *some* columns, and a fancy-indexed
            # += buffers duplicates — scatter one class at a time instead
            # (the GEMM above already ran batched).
            for index, cls in enumerate(family.members):
                grad_x[:, cls.col_selector] += contrib[index]
        self._classes_backward_input(layout.singles, grad, weight, grad_x, scale)
        if layout.leftovers:
            self.count("tile_group_gemm", len(layout.leftovers))
            self._groups_backward_input(layout.leftovers, grad, weight, grad_x,
                                        scale)

    def tile_backward_weight(self, plan, grad, x, grad_weight,
                             scale: float = 1.0) -> None:
        layout = self.stacked_layout(plan)
        self.count("tile_backward_weight")
        for family in layout.families:
            self.count("stacked_gemm")
            gc = grad[:, family.rows2d].transpose(1, 0, 2)          # (F, batch, R)
            if scale != 1.0:
                gc = gc * scale
            xs = x[:, family.cols2d].transpose(1, 0, 2)             # (F, batch, C)
            gw = np.matmul(gc.transpose(0, 2, 1), xs)               # (F, R, C)
            # The classes' weight blocks are disjoint (disjoint row sets), so
            # the batched fancy-indexed assignment scatters them all exactly.
            grad_weight[family.rows2d[:, :, None],
                        family.cols2d[:, None, :]] = gw
        self._classes_backward_weight(layout.singles, grad, x, grad_weight, scale)
        if layout.leftovers:
            self.count("tile_group_gemm", len(layout.leftovers))
            self._groups_backward_weight(layout.leftovers, grad, x, grad_weight,
                                         scale)

    # ------------------------------------------------------------------
    # per-class loop bodies (classes without an equal-shape partner)
    # ------------------------------------------------------------------
    def _classes_forward(self, classes, x, weight, out) -> None:
        for cls in classes:
            self.count("fused_gemm")
            xc = x[:, cls.col_selector]                      # one gather per class
            wc = weight[cls.weight_selector()]               # (R_total, C)
            out[:, cls.row_selector] = xc @ wc.T

    def _classes_backward_input(self, classes, grad, weight, grad_x,
                                scale) -> None:
        for cls in classes:
            self.count("fused_gemm")
            gc = grad[:, cls.row_selector]
            if scale != 1.0:
                gc = gc * scale
            wc = weight[cls.weight_selector()]
            # += not =: tiles from different classes may share columns.
            grad_x[:, cls.col_selector] += gc @ wc

    def _classes_backward_weight(self, classes, grad, x, grad_weight,
                                 scale) -> None:
        for cls in classes:
            self.count("fused_gemm")
            gc = grad[:, cls.row_selector]
            if scale != 1.0:
                gc = gc * scale
            # Each tile-row belongs to exactly one class, so the classes'
            # weight blocks are disjoint: plain assignment scatters them all.
            grad_weight[cls.weight_selector()] = gc.T @ x[:, cls.col_selector]

    # ------------------------------------------------------------------
    # window-context execution (batched tier over the pre-gathered blocks)
    # ------------------------------------------------------------------
    @staticmethod
    def _family_blocks(family, blocks, scratch) -> np.ndarray:
        """The family's blocks stacked into one (F, R, C) array.

        The blocks are fixed for a whole BPTT window, so the stacked copy is
        built once and cached in the context's per-window ``scratch`` —
        subsequent timesteps (forward and backward) reuse it instead of
        re-copying F*R*C floats per call.
        """
        if scratch is None:
            return np.stack([blocks[i] for i in family.members])
        stacked = scratch.get(family.members)
        if stacked is None:
            stacked = scratch[family.members] = np.stack(
                [blocks[i] for i in family.members])
        return stacked

    def context_forward(self, key, classes, blocks, h, out,
                        scratch: dict | None = None) -> None:
        layout = self.context_layout(key, classes)
        self.count("context_forward")
        for family in layout.families:
            self.count("stacked_gemm")
            ws = self._family_blocks(family, blocks, scratch)        # (F, R, C)
            xs = h[:, family.cols2d]                                 # (batch, F, C)
            result = np.matmul(xs.transpose(1, 0, 2),
                               ws.transpose(0, 2, 1))                # (F, batch, R)
            # Row sets are disjoint across classes, so the fancy-indexed
            # assignment is exact.
            out[:, family.rows2d] = result.transpose(1, 0, 2)
        if layout.singles:
            self.count("context_gemm", len(layout.singles))
            for i in layout.singles:
                rows, cols = classes[i]
                out[:, _slice_or_index(rows)] = h[:, cols] @ blocks[i].T

    def context_backward_h(self, key, classes, blocks, grad, grad_h,
                           scratch: dict | None = None) -> None:
        layout = self.context_layout(key, classes)
        self.count("context_backward_h")
        for family in layout.families:
            self.count("stacked_gemm")
            gc = grad[:, family.rows2d].transpose(1, 0, 2)           # (F, batch, R)
            ws = self._family_blocks(family, blocks, scratch)        # (F, R, C)
            contrib = np.matmul(gc, ws)                              # (F, batch, C)
            # Different classes may share *some* columns, and a fancy-indexed
            # += buffers duplicates — scatter one class at a time instead.
            for position, i in enumerate(family.members):
                grad_h[:, classes[i][1]] += contrib[position]
        if layout.singles:
            self.count("context_gemm", len(layout.singles))
            for i in layout.singles:
                rows, cols = classes[i]
                compact = grad[:, _slice_or_index(rows, strided=False)]
                grad_h[:, cols] += compact @ blocks[i]

    def context_backward_blocks(self, key, classes, grad, h) -> list[np.ndarray]:
        layout = self.context_layout(key, classes)
        self.count("context_backward_blocks")
        pieces: list[np.ndarray | None] = [None] * len(classes)
        for family in layout.families:
            self.count("stacked_gemm")
            gc = grad[:, family.rows2d].transpose(1, 0, 2)           # (F, batch, R)
            xs = h[:, family.cols2d].transpose(1, 0, 2)              # (F, batch, C)
            gw = np.matmul(gc.transpose(0, 2, 1), xs)                # (F, R, C)
            for position, i in enumerate(family.members):
                pieces[i] = gw[position]
        if layout.singles:
            self.count("context_gemm", len(layout.singles))
            for i in layout.singles:
                rows, cols = classes[i]
                compact = grad[:, _slice_or_index(rows, strided=False)]
                pieces[i] = compact.T @ h[:, cols]
        return pieces
