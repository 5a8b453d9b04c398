"""Execution-side machinery of the vectorized pattern-pool engine.

The compact GEMM ops in :mod:`repro.dropout.compact_ops` are semantically
simple — gather the surviving rows/tiles, run a small GEMM, scatter back —
but the seed implementation rebuilt every piece of bookkeeping (kept-index
arrays, tile slices) from scratch on every training step.  This module
provides the cached execution state that the fast path consumes instead:

* :class:`TileExecutionPlan` — a compiled, immutable description of a TDP
  pattern: its surviving tiles grouped into column classes, so the compact
  ops gather one weight block and run one GEMM per class instead of one per
  surviving tile, and scatter the compact weight gradient without touching
  dropped tiles at all.
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
class TileExecutionPlan:
    """Compiled compact-execution schedule for one :class:`TileDropoutPattern`.

    ``classes`` holds one ``(row_indices, col_indices)`` pair per distinct
    column set of the surviving tile-rows: the weight rows of every tile-row
    that keeps those columns (ascending), and the columns themselves.  A
    class is one weight block and one GEMM,
    ``out[:, rows] = x[:, cols] @ W[ix_(rows, cols)].T``, and the backward
    passes reuse the same blocks, never materialising the dense mask
    product.

    The classes never share a row (each tile-row belongs to one), and never
    share a column either.  Tile ``t = r*G + c`` of a grid with ``G``
    tile-columns is kept iff ``t mod dp == bias``, so tile-row ``r`` keeps
    exactly the tile-columns ``c ≡ (bias - r*G) mod dp``: its column set is
    a residue class mod ``dp``, and two different column sets are disjoint
    (a gate-aligned recurrent plan replays one per-gate grid, so the same
    holds there).  A plan has at most ``dp`` classes.
    """

    rows: int
    cols: int
    dp: int
    bias: int
    tile: int
    classes: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def compact_flops_fraction(self) -> float:
        """Fraction of the dense GEMM's multiply-adds the plan executes."""
        dense = self.rows * self.cols
        compact = sum(len(rows) * len(cols) for rows, cols in self.classes)
        return compact / dense if dense else 0.0


@lru_cache(maxsize=65536)
def _compile_tile_plan(rows: int, cols: int, dp: int, bias: int,
                       tile: int) -> TileExecutionPlan:
    pattern = TileDropoutPattern(rows=rows, cols=cols, dp=dp, bias=bias, tile=tile)
    grid_rows, grid_cols = pattern.tile_grid
    # Kept tile-columns -> the row runs of the tile-rows that keep them, in
    # first-appearance order.
    by_cols: dict[tuple[int, ...], list[np.ndarray]] = {}
    for tile_row in range(grid_rows):
        kept = tuple(tile_col for tile_col in range(grid_cols)
                     if (tile_row * grid_cols + tile_col) % dp == bias)
        if kept:
            by_cols.setdefault(kept, []).append(
                np.arange(tile_row * tile, min((tile_row + 1) * tile, rows)))
    classes = tuple(
        (_freeze(np.concatenate(runs)),
         _freeze(np.concatenate([np.arange(c * tile, min((c + 1) * tile, cols))
                                 for c in kept])))
        for kept, runs in by_cols.items())
    return TileExecutionPlan(rows=rows, cols=cols, dp=dp, bias=bias, tile=tile,
                             classes=classes)


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

@lru_cache(maxsize=65536)
def _compile_recurrent_plan(hidden_size: int, num_gates: int, dp: int,
                            bias: int, tile: int) -> TileExecutionPlan:
    gate_plan = _compile_tile_plan(hidden_size, hidden_size, dp, bias, tile)
    classes = tuple(
        (_freeze(np.concatenate([rows + gate * hidden_size
                                 for gate in range(num_gates)])), cols)
        for rows, cols in gate_plan.classes)
    return TileExecutionPlan(rows=num_gates * hidden_size, cols=hidden_size,
                             dp=dp, bias=bias, tile=tile, classes=classes)


def compile_recurrent_plan(pattern) -> TileExecutionPlan:
    """Interned execution plan for a gate-aligned
    :class:`~repro.dropout.patterns.RecurrentTilePattern`.

    The per-gate TDP plan is compiled once and each of its classes spans
    every gate block (its rows repeated with a row offset per gate), so one
    GEMM per column class covers all gates.
    """
    return _compile_recurrent_plan(pattern.hidden_size, pattern.num_gates,
                                   pattern.dp, pattern.bias, pattern.tile)


def recurrent_plan_cache_info():
    """Cache statistics of the recurrent-plan compiler (for diagnostics)."""
    return _compile_recurrent_plan.cache_info()


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
