"""Regular dropout patterns: Row-based (RDP) and Tile-based (TDP).

A *dropout pattern* (Section III of the paper) is the combination of dropped
neurons or synapses used for one training iteration.  Both pattern families
are parameterised by a period ``dp`` and a bias ``b``:

* **RDP** keeps every row ``i`` of the weight/output matrix with
  ``(i - b) mod dp == 0`` and drops the other ``dp - 1`` of every ``dp`` rows,
  i.e. a fraction ``(dp - 1) / dp`` of the neurons is dropped.
* **TDP** does the same at the granularity of ``tile x tile`` blocks of the
  weight matrix (structured DropConnect); ``dp - 1`` of every ``dp`` tiles are
  dropped.

Because the pattern is regular and known before the GEMM is launched, the
surviving rows/tiles can be gathered into *compact* operands whose
multiplication costs roughly ``1/dp`` of the dense GEMM — this is the whole
acceleration mechanism.  The classes below produce the kept indices, 0/1
masks, compact-gather/scatter helpers and the bookkeeping the GPU cost model
needs (kept fraction, operand shapes).

Index convention: the paper writes biases as ``b ∈ {1, .., dp}`` with kept
rows satisfying ``(i - b) mod dp == 0`` for 1-based row indices.  We use
0-based indices throughout the code, so a bias ``b ∈ {0, .., dp-1}`` keeps
rows with ``i mod dp == b``.  The two are the same family of patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.dropout.search import _interned_search


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only so cached pattern data cannot be corrupted."""
    array.flags.writeable = False
    return array


def max_row_patterns(num_units: int) -> int:
    """Maximum usable period ``dp`` for RDP on a layer with ``num_units`` neurons.

    The paper sets ``dp_max = M`` for an ``M x N`` output matrix; a period
    larger than the number of units would leave at most one row kept anyway.
    """
    if num_units <= 0:
        raise ValueError("num_units must be positive")
    return num_units


def max_tile_patterns(rows: int, cols: int, tile: int = 32) -> int:
    """Maximum period ``dp`` for TDP on a ``rows x cols`` weight matrix.

    Following the paper, ``dp_max = floor(M / x) * floor(N / y)`` for tile size
    ``x = y = tile`` — i.e. the total number of whole tiles.  Matrices smaller
    than a single tile still get one tile (the whole matrix).
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    if tile <= 0:
        raise ValueError("tile must be positive")
    tiles = max(rows // tile, 1) * max(cols // tile, 1)
    return max(tiles, 1)


def row_pattern_mask(num_units: int, dp: int, bias: int,
                     dtype=np.float64) -> np.ndarray:
    """0/1 keep-mask over ``num_units`` rows for pattern ``(dp, bias)``.

    ``mask[i] == 1`` means row/neuron ``i`` is kept.  ``dtype`` selects the
    floating dtype of the mask so a float32 execution path never builds
    float64 intermediates.
    """
    _validate_period(dp, bias)
    indices = np.arange(num_units)
    return (indices % dp == bias).astype(dtype)


def tile_pattern_mask(rows: int, cols: int, dp: int, bias: int, tile: int = 32,
                      dtype=np.float64) -> np.ndarray:
    """0/1 keep-mask of shape ``(rows, cols)`` for tile pattern ``(dp, bias)``.

    Tiles are numbered row-major over the tile grid; tile ``t`` is kept when
    ``t mod dp == bias``.  Rows/columns beyond the last whole tile belong to
    the (partial) edge tiles of their row/column block.  ``dtype`` selects the
    floating dtype of the mask.
    """
    _validate_period(dp, bias)
    if tile <= 0:
        raise ValueError("tile must be positive")
    tile_rows = int(np.ceil(rows / tile))
    tile_cols = int(np.ceil(cols / tile))
    tile_ids = np.arange(tile_rows * tile_cols).reshape(tile_rows, tile_cols)
    keep_tiles = (tile_ids % dp == bias)
    mask = np.repeat(np.repeat(keep_tiles, tile, axis=0), tile, axis=1)
    return mask[:rows, :cols].astype(dtype)


def _validate_period(dp: int, bias: int) -> None:
    if dp < 1:
        raise ValueError(f"pattern period dp must be >= 1, got {dp}")
    if not 0 <= bias < dp:
        raise ValueError(f"bias must be in [0, dp), got bias={bias}, dp={dp}")


@dataclass(frozen=True)
class RowDropoutPattern:
    """A concrete Row-based Dropout Pattern for one layer and one iteration.

    Attributes
    ----------
    num_units:
        Number of neurons in the layer (rows of the output matrix).
    dp:
        Pattern period; one row in every ``dp`` is kept.
    bias:
        Which phase of the period is kept, ``0 <= bias < dp``.
    """

    num_units: int
    dp: int
    bias: int

    def __post_init__(self):
        if self.num_units <= 0:
            raise ValueError("num_units must be positive")
        _validate_period(self.dp, self.bias)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @cached_property
    def kept_indices(self) -> np.ndarray:
        """Indices of the neurons that survive this iteration (cached, read-only)."""
        return _freeze(np.arange(self.bias, self.num_units, self.dp))

    @cached_property
    def dropped_indices(self) -> np.ndarray:
        """Indices of the dropped neurons (cached, read-only)."""
        mask = np.ones(self.num_units, dtype=bool)
        mask[self.kept_indices] = False
        return _freeze(np.nonzero(mask)[0])

    @property
    def num_kept(self) -> int:
        return len(self.kept_indices)

    @property
    def keep_fraction(self) -> float:
        """Fraction of neurons kept (≈ 1/dp)."""
        return self.num_kept / self.num_units

    @property
    def drop_rate(self) -> float:
        """Fraction of neurons dropped (≈ (dp-1)/dp) — the pattern's global rate."""
        return 1.0 - self.keep_fraction

    @cached_property
    def _mask_cache(self) -> dict:
        return {}

    def mask(self, dtype=np.float64) -> np.ndarray:
        """0/1 keep-mask of length ``num_units`` (cached per dtype, read-only)."""
        key = np.dtype(dtype)
        cached = self._mask_cache.get(key)
        if cached is None:
            cached = self._mask_cache[key] = _freeze(
                row_pattern_mask(self.num_units, self.dp, self.bias, dtype=key))
        return cached

    # ------------------------------------------------------------------
    # compaction helpers
    # ------------------------------------------------------------------
    def compact_rows(self, matrix: np.ndarray) -> np.ndarray:
        """Gather the kept rows of ``matrix`` (axis 0) into a compact matrix."""
        return matrix[self.kept_indices]

    def compact_cols(self, matrix: np.ndarray) -> np.ndarray:
        """Gather the kept columns of ``matrix`` (last axis)."""
        return matrix[..., self.kept_indices]

    def expand_rows(self, compact: np.ndarray) -> np.ndarray:
        """Scatter compact rows back to a full matrix, zero-filling dropped rows."""
        full_shape = (self.num_units,) + compact.shape[1:]
        full = np.zeros(full_shape, dtype=compact.dtype)
        full[self.kept_indices] = compact
        return full

    def expand_cols(self, compact: np.ndarray) -> np.ndarray:
        """Scatter compact columns back to full width, zero-filling dropped columns."""
        full_shape = compact.shape[:-1] + (self.num_units,)
        full = np.zeros(full_shape, dtype=compact.dtype)
        full[..., self.kept_indices] = compact
        return full

    def describe(self) -> str:
        return (f"RDP(dp={self.dp}, bias={self.bias}, units={self.num_units}, "
                f"drop_rate={self.drop_rate:.3f})")


@dataclass(frozen=True)
class TileDropoutPattern:
    """A concrete Tile-based Dropout Pattern over a weight matrix.

    Attributes
    ----------
    rows, cols:
        Shape of the weight matrix being dropped.
    dp:
        Pattern period over tile indices (row-major); one tile in every ``dp``
        survives.
    bias:
        Which phase of the tile period is kept, ``0 <= bias < dp``.
    tile:
        Tile edge length; the paper fixes 32 to match the 32 shared-memory
        banks of NVIDIA GPUs.
    """

    rows: int
    cols: int
    dp: int
    bias: int
    tile: int = 32

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("rows and cols must be positive")
        if self.tile <= 0:
            raise ValueError("tile must be positive")
        _validate_period(self.dp, self.bias)

    # ------------------------------------------------------------------
    # tile grid
    # ------------------------------------------------------------------
    @property
    def tile_grid(self) -> tuple[int, int]:
        """Number of (possibly partial) tiles along each dimension."""
        return (int(np.ceil(self.rows / self.tile)), int(np.ceil(self.cols / self.tile)))

    @property
    def num_tiles(self) -> int:
        grid = self.tile_grid
        return grid[0] * grid[1]

    @cached_property
    def kept_tile_ids(self) -> np.ndarray:
        """Row-major indices of the surviving tiles (cached, read-only)."""
        return _freeze(np.arange(self.bias, self.num_tiles, self.dp))

    @property
    def num_kept_tiles(self) -> int:
        return len(self.kept_tile_ids)

    @cached_property
    def keep_fraction(self) -> float:
        """Fraction of weight entries kept (area-weighted over surviving tiles)."""
        mask = self.mask()
        return float(mask.mean())

    @property
    def drop_rate(self) -> float:
        return 1.0 - self.keep_fraction

    @cached_property
    def _mask_cache(self) -> dict:
        return {}

    def mask(self, dtype=np.float64) -> np.ndarray:
        """0/1 keep-mask of shape ``(rows, cols)`` (cached per dtype, read-only)."""
        key = np.dtype(dtype)
        cached = self._mask_cache.get(key)
        if cached is None:
            cached = self._mask_cache[key] = _freeze(
                tile_pattern_mask(self.rows, self.cols, self.dp, self.bias,
                                  self.tile, dtype=key))
        return cached

    def tile_bounds(self, tile_id: int) -> tuple[slice, slice]:
        """Row/column slices of tile ``tile_id`` in the full matrix."""
        grid_rows, grid_cols = self.tile_grid
        if not 0 <= tile_id < self.num_tiles:
            raise IndexError(f"tile_id {tile_id} out of range [0, {self.num_tiles})")
        tile_row, tile_col = divmod(tile_id, grid_cols)
        row_slice = slice(tile_row * self.tile, min((tile_row + 1) * self.tile, self.rows))
        col_slice = slice(tile_col * self.tile, min((tile_col + 1) * self.tile, self.cols))
        return row_slice, col_slice

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def apply_mask(self, weight: np.ndarray) -> np.ndarray:
        """Zero out the dropped tiles of ``weight`` (functional reference path)."""
        if weight.shape != (self.rows, self.cols):
            raise ValueError(
                f"weight shape {weight.shape} does not match pattern ({self.rows}, {self.cols})")
        return weight * self.mask()

    def describe(self) -> str:
        return (f"TDP(dp={self.dp}, bias={self.bias}, shape=({self.rows}, {self.cols}), "
                f"tile={self.tile}, drop_rate={self.drop_rate:.3f})")


def recurrent_tile_mask(hidden_size: int, num_gates: int, dp: int, bias: int,
                        tile: int = 32, dtype=np.float64) -> np.ndarray:
    """0/1 keep-mask of shape ``(num_gates * hidden, hidden)`` for a
    gate-aligned recurrent weight-tile pattern (see
    :class:`RecurrentTilePattern`).  Built fresh on every call — this is the
    rebuilt-per-step mask of the ``masked`` execution baseline."""
    if num_gates < 1:
        raise ValueError("num_gates must be >= 1")
    gate = tile_pattern_mask(hidden_size, hidden_size, dp, bias, tile,
                             dtype=dtype)
    return np.tile(gate, (num_gates, 1))


@dataclass(frozen=True)
class RecurrentTilePattern:
    """Gate-aligned structured DropConnect over a recurrent weight matrix.

    The recurrent projection of an LSTM cell multiplies the hidden state by a
    ``(num_gates * hidden, hidden)`` matrix — the four gates stacked along the
    output dimension.  A recurrent weight-tile pattern applies *the same* TDP
    pattern (period ``dp``, phase ``bias``, ``tile x tile`` blocks) to each
    gate's ``(hidden, hidden)`` block:

    * every gate sees the identical structured sparsity, so no gate's
      recurrent connectivity is starved more than another's in one step;
    * execution-wise, the surviving tile-rows of the four gate blocks share
      identical column sets, so the recurrent window context concatenates
      each column class across the gates into one larger GEMM.

    Attributes
    ----------
    hidden_size:
        Hidden width ``H``; the weight has ``num_gates * H`` rows and ``H``
        columns.
    num_gates:
        Stacked gate blocks (4 for an LSTM).
    dp, bias, tile:
        The per-gate TDP parameterisation (see :class:`TileDropoutPattern`).
    """

    hidden_size: int
    num_gates: int
    dp: int
    bias: int
    tile: int = 32

    def __post_init__(self):
        if self.hidden_size <= 0:
            raise ValueError("hidden_size must be positive")
        if self.num_gates < 1:
            raise ValueError("num_gates must be >= 1")
        if self.tile <= 0:
            raise ValueError("tile must be positive")
        _validate_period(self.dp, self.bias)

    @property
    def rows(self) -> int:
        return self.num_gates * self.hidden_size

    @property
    def cols(self) -> int:
        return self.hidden_size

    @cached_property
    def gate_pattern(self) -> TileDropoutPattern:
        """The interned per-gate TDP pattern every gate block replays."""
        return tile_pattern(self.hidden_size, self.hidden_size, self.dp,
                            self.bias, self.tile)

    @property
    def num_tiles(self) -> int:
        """Tiles per gate block (the period domain of the sampler)."""
        return self.gate_pattern.num_tiles

    @property
    def keep_fraction(self) -> float:
        """Fraction of recurrent weights kept (identical per gate block)."""
        return self.gate_pattern.keep_fraction

    @property
    def drop_rate(self) -> float:
        return 1.0 - self.keep_fraction

    @cached_property
    def _mask_cache(self) -> dict:
        return {}

    def mask(self, dtype=np.float64) -> np.ndarray:
        """0/1 keep-mask of shape ``(rows, cols)`` (cached per dtype, read-only)."""
        key = np.dtype(dtype)
        cached = self._mask_cache.get(key)
        if cached is None:
            cached = self._mask_cache[key] = _freeze(
                np.tile(self.gate_pattern.mask(dtype=key), (self.num_gates, 1)))
        return cached

    def apply_mask(self, weight: np.ndarray) -> np.ndarray:
        """Zero out the dropped tiles of ``weight`` (functional reference path)."""
        if weight.shape != (self.rows, self.cols):
            raise ValueError(
                f"weight shape {weight.shape} does not match pattern "
                f"({self.rows}, {self.cols})")
        return weight * self.mask()

    def describe(self) -> str:
        return (f"RecurrentTDP(dp={self.dp}, bias={self.bias}, "
                f"hidden={self.hidden_size}, gates={self.num_gates}, "
                f"tile={self.tile}, drop_rate={self.drop_rate:.3f})")


# ----------------------------------------------------------------------
# interned (cached) pattern construction
# ----------------------------------------------------------------------
#
# A pattern is fully determined by a handful of small integers, and over a
# training run the same (dp, bias) pairs recur thousands of times (with the
# default ``dp_max = 16`` an RDP site can only ever see ``16·17/2 = 136``
# distinct patterns).  Interning the instances means the per-pattern derived
# data — kept indices, masks, tile plans — is computed once per run instead of
# once per training step, which is the heart of the vectorized pattern-pool
# execution engine.

@lru_cache(maxsize=65536)
def row_pattern(num_units: int, dp: int, bias: int) -> RowDropoutPattern:
    """Interned :class:`RowDropoutPattern`; repeated calls return the same object."""
    return RowDropoutPattern(num_units=num_units, dp=dp, bias=bias)


@lru_cache(maxsize=65536)
def tile_pattern(rows: int, cols: int, dp: int, bias: int,
                 tile: int = 32) -> TileDropoutPattern:
    """Interned :class:`TileDropoutPattern`; repeated calls return the same object."""
    return TileDropoutPattern(rows=rows, cols=cols, dp=dp, bias=bias, tile=tile)


@lru_cache(maxsize=65536)
def recurrent_tile_pattern(hidden_size: int, num_gates: int, dp: int, bias: int,
                           tile: int = 32) -> RecurrentTilePattern:
    """Interned :class:`RecurrentTilePattern`; repeated calls return the same object."""
    return RecurrentTilePattern(hidden_size=hidden_size, num_gates=num_gates,
                                dp=dp, bias=bias, tile=tile)


def pattern_cache_info() -> dict[str, object]:
    """Cache statistics of the interned pattern factories (for diagnostics)."""
    return {"row": row_pattern.cache_info(), "tile": tile_pattern.cache_info(),
            "recurrent": recurrent_tile_pattern.cache_info()}


def clear_pattern_caches() -> None:
    """Drop all interned patterns and every interned Algorithm-1 search
    result, so the next model set-up pays for its own searches (mainly
    useful in long-lived test and benchmark processes)."""
    row_pattern.cache_clear()
    tile_pattern.cache_clear()
    recurrent_tile_pattern.cache_clear()
    _interned_search.cache_clear()


# ----------------------------------------------------------------------
# vectorized batch helpers
# ----------------------------------------------------------------------

def row_pattern_masks(num_units: int, periods: np.ndarray,
                      biases: np.ndarray, dtype=np.float64) -> np.ndarray:
    """0/1 keep-masks for a whole batch of row patterns in one vectorized call.

    ``periods`` and ``biases`` are equal-length integer arrays; the result has
    shape ``(len(periods), num_units)`` with row ``k`` equal to
    ``row_pattern_mask(num_units, periods[k], biases[k])``.  ``dtype`` selects
    the floating dtype of the masks.
    """
    periods = np.asarray(periods, dtype=np.int64)
    biases = np.asarray(biases, dtype=np.int64)
    if periods.shape != biases.shape or periods.ndim != 1:
        raise ValueError("periods and biases must be 1-D arrays of equal length")
    if np.any(periods < 1) or np.any(biases < 0) or np.any(biases >= periods):
        raise ValueError("need dp >= 1 and 0 <= bias < dp for every pattern")
    indices = np.arange(num_units)
    return (indices[None, :] % periods[:, None] == biases[:, None]).astype(dtype)


def row_keep_counts(num_units: int, periods: np.ndarray,
                    biases: np.ndarray) -> np.ndarray:
    """Number of kept rows for each pattern of a batch, without building masks.

    Equals ``len(range(bias, num_units, dp))`` computed in closed form.
    """
    periods = np.asarray(periods, dtype=np.int64)
    biases = np.asarray(biases, dtype=np.int64)
    if np.any(periods < 1) or np.any(biases < 0) or np.any(biases >= periods):
        raise ValueError("need dp >= 1 and 0 <= bias < dp for every pattern")
    counts = (num_units - 1 - biases) // periods + 1
    return np.where(biases >= num_units, 0, counts)
