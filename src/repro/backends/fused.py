"""Fused execution backend: tile GEMMs grouped into single stacked-GEMM calls.

The reference :class:`~repro.backends.numpy_backend.NumpyBackend` executes a
:class:`~repro.dropout.engine.TileExecutionPlan` with one Python-level GEMM
per surviving tile-row group.  For the TDP patterns this repo trains (tile
32, periods up to 16) a 2048-wide layer has up to 64 tile-rows, so the hot
path pays up to 64 interpreter round-trips, 64 input gathers and 64
skinny-output BLAS calls (``N = 32``) per pass.

The key structural fact this backend exploits: within one ``(dp, bias)``
pattern the surviving tiles of tile-row ``r`` are the tile columns ``c`` with
``(r * grid_cols + c) % dp == bias`` — a residue class whose phase depends
only on ``r % dp``-ish arithmetic — so the plan's tile-rows fall into **at
most ``dp`` classes with an identical column set**.  All rows of a class are
concatenated into one GEMM::

    out[:, rows] = x[:, cols] @ weight[ix_(rows, cols)].T

which turns ~``grid_rows`` skinny GEMMs into ~``dp`` well-shaped ones,
gathers each distinct column set of ``x`` *once* instead of once per
tile-row, and scatters each class with a single fancy-index write.  The
backward passes reuse the same classes.  Classes with a single member (rare:
more periods than tile-rows) fall back to the reference per-group loop,
which also covers the ``dp == 1`` plan that is already one contiguous view.

Results are bit-identical to the reference backend for the forward pass and
input gradient up to floating-point summation order (the property tests in
``tests/backends/test_backends.py`` pin down agreement to tight tolerances,
and exact equality of the sparsity structure).

The fused layout of a plan is computed once and cached per pattern identity
(plans are themselves interned per process, so the cache stays small).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.numpy_backend import NumpyBackend

#: Safety cap on cached fused layouts (patterns are interned, so in practice
#: the cache holds a few dozen entries; the cap only guards pathological use).
_FUSED_CACHE_CAP = 4096


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


@dataclass(frozen=True)
class _FusedPlanLayout:
    """Concatenated-GEMM execution layout of one :class:`TileExecutionPlan`."""

    classes: tuple[_FusedClass, ...]
    leftovers: tuple  # TileRowGroup objects executed by the reference loop


def _contiguous_slice(indices: np.ndarray) -> slice | None:
    if len(indices) and indices[-1] - indices[0] + 1 == len(indices):
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return None


def _fuse_plan(plan) -> _FusedPlanLayout:
    # Built on the engine's canonical identical-column-set partition, so the
    # fused classes and the recurrent window context's classes always agree.
    from repro.dropout.engine import plan_column_groups

    classes: list[_FusedClass] = []
    leftovers: list = []
    for groups in plan_column_groups(plan):
        if len(groups) < 2:
            # A lone class member gains nothing from re-gathering; the
            # reference loop also keeps the view fast path of slice columns.
            leftovers.extend(groups)
            continue
        rows = np.concatenate([np.arange(g.row_start, g.row_stop) for g in groups])
        cols = np.asarray(groups[0].col_indices)
        classes.append(_FusedClass(rows=rows, cols=cols,
                                   rows_slice=_contiguous_slice(rows),
                                   cols_slice=_contiguous_slice(cols)))
    return _FusedPlanLayout(classes=tuple(classes), leftovers=tuple(leftovers))


class FusedBackend(NumpyBackend):
    """Concatenated-GEMM execution of tile plans (reference loop elsewhere)."""

    name = "fused"

    def __init__(self):
        super().__init__()
        self._layouts: dict[tuple, _FusedPlanLayout] = {}

    # ------------------------------------------------------------------
    # fused layout cache
    # ------------------------------------------------------------------
    def layout_for(self, plan) -> _FusedPlanLayout:
        """The fused layout of ``plan`` (computed once per plan identity)."""
        key = plan.identity
        layout = self._layouts.get(key)
        if layout is None:
            if len(self._layouts) >= _FUSED_CACHE_CAP:
                self._layouts.clear()
            layout = _fuse_plan(plan)
            self._layouts[key] = layout
            self.count("plan_fuse")
        return layout

    # ------------------------------------------------------------------
    # tile-plan execution
    # ------------------------------------------------------------------
    def tile_forward(self, plan, x, weight, out) -> None:
        layout = self.layout_for(plan)
        self.count("tile_forward")
        self._classes_forward(layout.classes, x, weight, out)
        if layout.leftovers:
            self.count("tile_group_gemm", len(layout.leftovers))
            self._groups_forward(layout.leftovers, x, weight, out)

    def tile_backward_input(self, plan, grad, weight, grad_x,
                            scale: float = 1.0) -> None:
        layout = self.layout_for(plan)
        self.count("tile_backward_input")
        self._classes_backward_input(layout.classes, grad, weight, grad_x, scale)
        if layout.leftovers:
            self.count("tile_group_gemm", len(layout.leftovers))
            self._groups_backward_input(layout.leftovers, grad, weight, grad_x,
                                        scale)

    def tile_backward_weight(self, plan, grad, x, grad_weight,
                             scale: float = 1.0) -> None:
        layout = self.layout_for(plan)
        self.count("tile_backward_weight")
        self._classes_backward_weight(layout.classes, grad, x, grad_weight, scale)
        if layout.leftovers:
            self.count("tile_group_gemm", len(layout.leftovers))
            self._groups_backward_weight(layout.leftovers, grad, x, grad_weight,
                                         scale)

    # ------------------------------------------------------------------
    # per-class loop bodies (shared with the stacked backend's singletons)
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
