"""Execution-side machinery of the vectorized pattern-pool engine.

The compact GEMM ops in :mod:`repro.dropout.compact_ops` are semantically
simple — gather the surviving rows/tiles, run a small GEMM, scatter back —
but the seed implementation rebuilt every piece of bookkeeping (kept-index
arrays, tile slices) from scratch on every training step.  This module
provides the cached execution state that the fast path consumes instead:

* :class:`TileExecutionPlan` — a compiled, immutable description of a TDP
  pattern: the surviving tiles grouped by tile-row with their column indices
  pre-concatenated, so the block-sparse matmul runs one GEMM per surviving
  tile-row instead of one per surviving tile, and the backward pass can
  scatter compact gradients without touching dropped tiles at all.
* :func:`compile_tile_plan` — interned plan construction (one compilation per
  distinct pattern per process, LRU-cached).
* :class:`CompactWorkspace` — the serving engine's scratch store: one
  interned zero-filled buffer per key.  Training never uses it: every
  compact op scatters into a fresh buffer (see
  :meth:`repro.backends.ExecutionBackend.zeros`), so a tensor held from one
  step is never overwritten by a later one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.dropout.patterns import TileDropoutPattern, _freeze


@dataclass(frozen=True)
class TileRowGroup:
    """All surviving tiles of one (or several merged) tile-rows, fused into a
    single compact GEMM."""

    row_start: int
    row_stop: int
    col_indices: np.ndarray  # concatenated column indices of the surviving tiles
    #: When the surviving columns form one contiguous run, a slice selecting
    #: them — lets the executor take views instead of gather copies.
    col_slice: slice | None = None

    @property
    def selector(self) -> "slice | np.ndarray":
        """The cheapest numpy column selector for this group."""
        return self.col_slice if self.col_slice is not None else self.col_indices

    @property
    def num_rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def num_cols(self) -> int:
        return len(self.col_indices)


@dataclass(frozen=True)
class TileExecutionPlan:
    """Compiled compact-execution schedule for one :class:`TileDropoutPattern`.

    ``row_groups`` holds one entry per tile-row that has at least one
    surviving tile.  Within a group the column indices of the surviving tiles
    are concatenated (they are disjoint by construction), so the forward pass
    is ``out[:, r0:r1] += x[:, cols] @ W[r0:r1][:, cols].T`` — one GEMM per
    group.  The backward passes reuse the same groups to compute input and
    weight gradients compactly, never materialising the dense mask product.
    """

    rows: int
    cols: int
    dp: int
    bias: int
    tile: int
    row_groups: tuple[TileRowGroup, ...]
    #: Plan family: ``"tile"`` (a generic TDP pattern) or ``"recurrent"`` (a
    #: gate-aligned :class:`~repro.dropout.patterns.RecurrentTilePattern`
    #: replicated per gate block).  Part of the plan identity — the backend
    #: keys its layout cache on it so two structurally different plans with the
    #: same ``(rows, cols, dp, bias, tile)`` never share a cached layout.
    kind: str = "tile"

    @property
    def identity(self) -> tuple:
        """Hashable cache key uniquely identifying this plan's structure."""
        return (self.kind, self.rows, self.cols, self.dp, self.bias, self.tile)

    @property
    def compact_flops_fraction(self) -> float:
        """Fraction of the dense GEMM's multiply-adds the plan executes."""
        dense = self.rows * self.cols
        compact = sum(g.num_rows * g.num_cols for g in self.row_groups)
        return compact / dense if dense else 0.0


def _make_group(row_start: int, row_stop: int, col_indices: np.ndarray) -> TileRowGroup:
    contiguous = (len(col_indices) > 0
                  and col_indices[-1] - col_indices[0] + 1 == len(col_indices))
    col_slice = (slice(int(col_indices[0]), int(col_indices[-1]) + 1)
                 if contiguous else None)
    return TileRowGroup(row_start=row_start, row_stop=row_stop,
                        col_indices=_freeze(col_indices), col_slice=col_slice)


def _build_tile_plan(rows: int, cols: int, dp: int, bias: int,
                     tile: int) -> TileExecutionPlan:
    pattern = TileDropoutPattern(rows=rows, cols=cols, dp=dp, bias=bias, tile=tile)
    grid_rows, grid_cols = pattern.tile_grid
    groups: list[TileRowGroup] = []
    for tile_row in range(grid_rows):
        row_start = tile_row * tile
        row_stop = min(row_start + tile, rows)
        col_chunks: list[np.ndarray] = []
        for tile_col in range(grid_cols):
            tile_id = tile_row * grid_cols + tile_col
            if tile_id % dp == bias:
                col_start = tile_col * tile
                col_stop = min(col_start + tile, cols)
                col_chunks.append(np.arange(col_start, col_stop))
        if not col_chunks:
            continue
        group = _make_group(row_start, row_stop, np.concatenate(col_chunks))
        # Fuse with the previous group when the row ranges are adjacent and the
        # column selections identical (always the case for dp == 1, where the
        # whole plan collapses to one dense GEMM).
        if (groups and groups[-1].row_stop == group.row_start
                and groups[-1].num_cols == group.num_cols
                and np.array_equal(groups[-1].col_indices, group.col_indices)):
            previous = groups.pop()
            group = _make_group(previous.row_start, group.row_stop,
                                np.asarray(group.col_indices))
        groups.append(group)
    return TileExecutionPlan(rows=rows, cols=cols, dp=dp, bias=bias, tile=tile,
                             row_groups=tuple(groups))


@lru_cache(maxsize=65536)
def _compile_tile_plan(rows: int, cols: int, dp: int, bias: int,
                       tile: int) -> TileExecutionPlan:
    return _build_tile_plan(rows, cols, dp, bias, tile)


def compile_tile_plan(pattern: TileDropoutPattern) -> TileExecutionPlan:
    """Interned execution plan for ``pattern`` (compiled once per process)."""
    return _compile_tile_plan(pattern.rows, pattern.cols, pattern.dp,
                              pattern.bias, pattern.tile)


def tile_plan_cache_info():
    """Cache statistics of the tile-plan compiler (for diagnostics)."""
    return _compile_tile_plan.cache_info()


# ----------------------------------------------------------------------
# recurrent (gate-aligned) plan compilation
# ----------------------------------------------------------------------

def _offset_group(group: TileRowGroup, offset: int) -> TileRowGroup:
    return TileRowGroup(row_start=group.row_start + offset,
                        row_stop=group.row_stop + offset,
                        col_indices=group.col_indices,
                        col_slice=group.col_slice)


@lru_cache(maxsize=65536)
def _compile_recurrent_plan(hidden_size: int, num_gates: int, dp: int,
                            bias: int, tile: int) -> TileExecutionPlan:
    gate_plan = _compile_tile_plan(hidden_size, hidden_size, dp, bias, tile)
    groups: list[TileRowGroup] = []
    for gate in range(num_gates):
        offset = gate * hidden_size
        groups.extend(_offset_group(group, offset)
                      for group in gate_plan.row_groups)
    return TileExecutionPlan(rows=num_gates * hidden_size, cols=hidden_size,
                             dp=dp, bias=bias, tile=tile,
                             row_groups=tuple(groups), kind="recurrent")


def compile_recurrent_plan(pattern) -> TileExecutionPlan:
    """Interned execution plan for a gate-aligned
    :class:`~repro.dropout.patterns.RecurrentTilePattern`.

    The per-gate TDP plan is compiled once and replicated with a row offset
    per gate block, so every gate's tile-row groups share identical column
    sets — the structure the recurrent window context's per-class GEMMs
    exploit (one GEMM per column class spans all gates).
    """
    return _compile_recurrent_plan(pattern.hidden_size, pattern.num_gates,
                                   pattern.dp, pattern.bias, pattern.tile)


def recurrent_plan_cache_info():
    """Cache statistics of the recurrent-plan compiler (for diagnostics)."""
    return _compile_recurrent_plan.cache_info()


# ----------------------------------------------------------------------
# column-class decomposition (shared by window-context ops and backends)
# ----------------------------------------------------------------------

_COLUMN_GROUP_CACHE: dict[tuple, tuple] = {}
_COLUMN_GROUP_CACHE_CAP = 65536


def plan_column_groups(plan: TileExecutionPlan,
                       ) -> tuple[tuple[TileRowGroup, ...], ...]:
    """Partition a plan's tile-row groups by identical column set.

    This is the **single definition** of the column-class structure both the
    backend's tile tiers (concatenated/batched class GEMMs) and the
    per-window recurrent context (one weight gather per class) build on —
    one partition per distinct column set, in first-appearance order, with
    the member groups' (disjoint) row ranges preserved.  Cached per plan
    identity (plans are interned, so the cache stays small).
    """
    key = plan.identity
    partitions = _COLUMN_GROUP_CACHE.get(key)
    if partitions is None:
        if len(_COLUMN_GROUP_CACHE) >= _COLUMN_GROUP_CACHE_CAP:
            _COLUMN_GROUP_CACHE.clear()
        by_cols: dict[bytes, list[TileRowGroup]] = {}
        for group in plan.row_groups:
            by_cols.setdefault(np.asarray(group.col_indices).tobytes(),
                               []).append(group)
        partitions = _COLUMN_GROUP_CACHE[key] = tuple(
            tuple(groups) for groups in by_cols.values())
    return partitions


_COLUMN_CLASS_CACHE: dict[tuple, tuple] = {}


def plan_column_classes(plan: TileExecutionPlan) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Group a plan's tile-row groups by identical column set.

    Returns ``(row_indices, col_indices)`` pairs — one per distinct column
    set, with the member groups' row ranges concatenated (they are disjoint
    by construction).  Derived from :func:`plan_column_groups`, so the
    recurrent window context and the backend's tile tiers always agree on
    the class structure; cached per plan identity like the partition itself.
    """
    key = plan.identity
    classes = _COLUMN_CLASS_CACHE.get(key)
    if classes is None:
        if len(_COLUMN_CLASS_CACHE) >= _COLUMN_GROUP_CACHE_CAP:
            _COLUMN_CLASS_CACHE.clear()
        built = []
        for groups in plan_column_groups(plan):
            rows = _freeze(np.concatenate([np.arange(g.row_start, g.row_stop)
                                           for g in groups]))
            built.append((rows, groups[0].col_indices))
        classes = _COLUMN_CLASS_CACHE[key] = tuple(built)
    return classes


_PLAN_ROW_CACHE: dict[tuple, np.ndarray] = {}


def plan_row_indices(plan: TileExecutionPlan) -> np.ndarray:
    """All weight rows a plan's surviving tile-row groups cover, concatenated.

    This is the dirty-row set of a plan-driven weight-gradient write
    (:meth:`~repro.backends.ExecutionBackend.tile_backward_weight` touches
    exactly these rows, and within them only surviving columns — a row-level
    overapproximation is safe because the untouched columns stay exactly
    zero).  Row groups are disjoint and ascending by construction, so the
    concatenation is sorted and duplicate-free.  Cached per plan identity
    (plans are interned, so the cache stays small).
    """
    key = plan.identity
    rows = _PLAN_ROW_CACHE.get(key)
    if rows is None:
        if len(_PLAN_ROW_CACHE) >= _COLUMN_GROUP_CACHE_CAP:
            _PLAN_ROW_CACHE.clear()
        if plan.row_groups:
            rows = np.concatenate([np.arange(g.row_start, g.row_stop)
                                   for g in plan.row_groups])
        else:
            rows = np.zeros(0, dtype=np.intp)
        rows = _PLAN_ROW_CACHE[key] = _freeze(rows)
    return rows


class CompactWorkspace:
    """Interned scratch buffers, one per key (the serving engine's store).

    ``zeros(key, shape)`` returns the key's buffer refilled with zeros, and
    allocates a new one when the shape or dtype changed.  A caller must be
    done with a key's buffer before it asks for that key again, which holds
    for :class:`~repro.serving.engine.InferenceEngine`: its ``infer`` calls
    are sequential and never return a scratch buffer.
    """

    def __init__(self):
        self._buffers: dict[object, np.ndarray] = {}

    def zeros(self, key: object, shape: tuple[int, ...],
              dtype=np.float64) -> np.ndarray:
        """The zero-filled buffer of ``shape`` for ``key``."""
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape != shape or buffer.dtype != np.dtype(dtype):
            buffer = self._buffers[key] = np.zeros(shape, dtype=dtype)
            return buffer
        buffer.fill(0.0)
        return buffer
