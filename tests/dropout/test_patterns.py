"""Tests and property-based invariants for the RDP/TDP pattern classes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dropout import (
    RowDropoutPattern,
    TileDropoutPattern,
    max_row_patterns,
    max_tile_patterns,
    row_pattern_mask,
    tile_compact_linear,
    tile_pattern_mask,
)
from repro.tensor import Tensor


class TestRowPatternBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            RowDropoutPattern(num_units=0, dp=1, bias=0)
        with pytest.raises(ValueError):
            RowDropoutPattern(num_units=8, dp=0, bias=0)
        with pytest.raises(ValueError):
            RowDropoutPattern(num_units=8, dp=3, bias=3)

    def test_period_one_keeps_everything(self):
        pattern = RowDropoutPattern(num_units=10, dp=1, bias=0)
        assert pattern.num_kept == 10
        assert pattern.drop_rate == 0.0
        assert np.all(pattern.mask() == 1.0)

    def test_paper_example_drop_two_of_three(self):
        """dp=3: two of every three successive rows are dropped (Fig. 3(a))."""
        pattern = RowDropoutPattern(num_units=9, dp=3, bias=0)
        assert list(pattern.kept_indices) == [0, 3, 6]
        assert pattern.drop_rate == pytest.approx(2 / 3)

    def test_bias_shifts_kept_rows(self):
        pattern = RowDropoutPattern(num_units=9, dp=3, bias=1)
        assert list(pattern.kept_indices) == [1, 4, 7]

    def test_kept_and_dropped_partition(self):
        pattern = RowDropoutPattern(num_units=11, dp=4, bias=2)
        all_indices = sorted(list(pattern.kept_indices) + list(pattern.dropped_indices))
        assert all_indices == list(range(11))

    def test_mask_matches_kept_indices(self):
        pattern = RowDropoutPattern(num_units=13, dp=5, bias=3)
        mask = pattern.mask()
        assert np.allclose(np.nonzero(mask)[0], pattern.kept_indices)

    def test_row_pattern_mask_function(self):
        assert np.allclose(row_pattern_mask(6, 2, 0), [1, 0, 1, 0, 1, 0])
        assert np.allclose(row_pattern_mask(6, 2, 1), [0, 1, 0, 1, 0, 1])

    def test_compact_and_expand_roundtrip(self, rng):
        pattern = RowDropoutPattern(num_units=12, dp=3, bias=1)
        matrix = rng.normal(size=(12, 5))
        compact = pattern.compact_rows(matrix)
        assert compact.shape == (4, 5)
        expanded = pattern.expand_rows(compact)
        assert np.allclose(expanded[pattern.kept_indices], matrix[pattern.kept_indices])
        assert np.allclose(expanded[pattern.dropped_indices], 0.0)

    def test_compact_and_expand_cols(self, rng):
        pattern = RowDropoutPattern(num_units=8, dp=2, bias=0)
        matrix = rng.normal(size=(3, 8))
        compact = pattern.compact_cols(matrix)
        assert compact.shape == (3, 4)
        expanded = pattern.expand_cols(compact)
        assert np.allclose(expanded[:, pattern.kept_indices], compact)

    def test_describe(self):
        text = RowDropoutPattern(num_units=8, dp=2, bias=0).describe()
        assert "dp=2" in text and "units=8" in text

    def test_max_row_patterns(self):
        assert max_row_patterns(100) == 100
        with pytest.raises(ValueError):
            max_row_patterns(0)


class TestTilePatternBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            TileDropoutPattern(rows=0, cols=4, dp=1, bias=0)
        with pytest.raises(ValueError):
            TileDropoutPattern(rows=4, cols=4, dp=2, bias=2)
        with pytest.raises(ValueError):
            TileDropoutPattern(rows=4, cols=4, dp=1, bias=0, tile=0)

    def test_tile_grid_and_count(self):
        pattern = TileDropoutPattern(rows=64, cols=96, dp=1, bias=0, tile=32)
        assert pattern.tile_grid == (2, 3)
        assert pattern.num_tiles == 6

    def test_partial_edge_tiles_counted(self):
        pattern = TileDropoutPattern(rows=40, cols=50, dp=1, bias=0, tile=32)
        assert pattern.tile_grid == (2, 2)

    def test_paper_example_drop_three_of_four(self):
        """dp=4: three of every four tiles are dropped (Fig. 3(b))."""
        pattern = TileDropoutPattern(rows=64, cols=64, dp=4, bias=0, tile=32)
        assert pattern.num_tiles == 4
        assert list(pattern.kept_tile_ids) == [0]
        assert pattern.drop_rate == pytest.approx(0.75)

    def test_mask_block_structure(self):
        pattern = TileDropoutPattern(rows=4, cols=4, dp=2, bias=0, tile=2)
        mask = pattern.mask()
        # tiles 0 and 2 kept (row-major): top-left and bottom-left blocks
        assert np.allclose(mask[:2, :2], 1.0)
        assert np.allclose(mask[:2, 2:], 0.0)
        assert np.allclose(mask[2:, :2], 1.0)
        assert np.allclose(mask[2:, 2:], 0.0)

    def test_tile_bounds(self):
        pattern = TileDropoutPattern(rows=5, cols=5, dp=1, bias=0, tile=3)
        row_slice, col_slice = pattern.tile_bounds(3)
        assert (row_slice.start, row_slice.stop) == (3, 5)
        assert (col_slice.start, col_slice.stop) == (3, 5)
        with pytest.raises(IndexError):
            pattern.tile_bounds(99)

    def test_apply_mask_requires_matching_shape(self, rng):
        pattern = TileDropoutPattern(rows=4, cols=6, dp=2, bias=0, tile=2)
        with pytest.raises(ValueError):
            pattern.apply_mask(rng.normal(size=(3, 3)))

    def test_max_tile_patterns(self):
        assert max_tile_patterns(64, 64, tile=32) == 4
        assert max_tile_patterns(16, 16, tile=32) == 1
        with pytest.raises(ValueError):
            max_tile_patterns(0, 4)


# ----------------------------------------------------------------------
# property-based invariants
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(num_units=st.integers(1, 200), dp=st.integers(1, 30), bias_seed=st.integers(0, 10_000))
def test_row_pattern_invariants(num_units, dp, bias_seed):
    """For any valid (num_units, dp, bias): partition, count and rate invariants."""
    dp = min(dp, num_units)
    bias = bias_seed % dp
    pattern = RowDropoutPattern(num_units=num_units, dp=dp, bias=bias)
    kept = pattern.kept_indices
    # Every kept index is in range and congruent to the bias.
    assert np.all((kept >= 0) & (kept < num_units))
    assert np.all(kept % dp == bias)
    # Kept count equals ceil over the arithmetic progression, and masks agree.
    assert pattern.num_kept == len(np.arange(bias, num_units, dp))
    assert pattern.mask().sum() == pattern.num_kept
    assert 0.0 <= pattern.drop_rate < 1.0
    # keep_fraction is within 1/num_units of 1/dp.
    assert abs(pattern.keep_fraction - 1.0 / dp) <= 1.0 / num_units


@settings(max_examples=60, deadline=None)
@given(num_units=st.integers(2, 64), dp=st.integers(2, 8))
def test_row_pattern_every_unit_kept_in_exactly_one_bias(num_units, dp):
    """Across all biases of a period, each neuron is kept exactly once.

    This is the fact behind Eq. 2: under a uniform bias, a neuron's drop
    probability for period dp is exactly (dp-1)/dp.
    """
    dp = min(dp, num_units)
    kept_count = np.zeros(num_units)
    for bias in range(dp):
        kept_count += RowDropoutPattern(num_units, dp, bias).mask()
    assert np.allclose(kept_count, 1.0)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 80), cols=st.integers(1, 80), dp=st.integers(1, 10),
       bias_seed=st.integers(0, 10_000), tile=st.sampled_from([2, 4, 8, 32]))
def test_tile_pattern_invariants(rows, cols, dp, bias_seed, tile):
    reference = TileDropoutPattern(rows=rows, cols=cols, dp=1, bias=0, tile=tile)
    dp = min(dp, reference.num_tiles)
    bias = bias_seed % dp
    pattern = TileDropoutPattern(rows=rows, cols=cols, dp=dp, bias=bias, tile=tile)
    mask = pattern.mask()
    assert mask.shape == (rows, cols)
    assert set(np.unique(mask)).issubset({0.0, 1.0})
    assert pattern.num_kept_tiles == len(pattern.kept_tile_ids)
    assert 0.0 <= pattern.drop_rate < 1.0
    # The union of tile bounds of kept tiles covers exactly the mask's ones.
    covered = np.zeros((rows, cols))
    for tile_id in pattern.kept_tile_ids:
        row_slice, col_slice = pattern.tile_bounds(int(tile_id))
        covered[row_slice, col_slice] = 1.0
    assert np.allclose(covered, mask)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(2, 40), cols=st.integers(2, 40), dp=st.integers(1, 6),
       batch=st.integers(1, 5), seed=st.integers(0, 1000))
def test_tile_compact_linear_always_matches_masked_dense(rows, cols, dp, batch,
                                                         seed):
    """The compact execution of a tile pattern is its dense masked product,
    forward and every gradient, and dropped tiles get exactly zero."""
    local_rng = np.random.default_rng(seed)
    reference = TileDropoutPattern(rows=rows, cols=cols, dp=1, bias=0, tile=4)
    dp = min(dp, reference.num_tiles)
    pattern = TileDropoutPattern(rows=rows, cols=cols, dp=dp, bias=dp - 1, tile=4)
    x = Tensor(local_rng.normal(size=(batch, cols)), requires_grad=True)
    weight = Tensor(local_rng.normal(size=(rows, cols)), requires_grad=True)
    bias = Tensor(local_rng.normal(size=rows), requires_grad=True)
    grad = local_rng.normal(size=(batch, rows))
    out = tile_compact_linear(x, weight, bias, pattern)
    (out * Tensor(grad)).sum().backward()

    mask = pattern.mask()
    masked = weight.data * mask
    np.testing.assert_allclose(out.data, x.data @ masked.T + bias.data,
                               rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(x.grad, grad @ masked, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(weight.grad, (grad.T @ x.data) * mask,
                               rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(bias.grad, grad.sum(axis=0),
                               rtol=1e-10, atol=1e-10)
    assert np.all(weight.grad[mask == 0.0] == 0.0)


def test_tile_pattern_mask_function_matches_class():
    assert np.allclose(tile_pattern_mask(6, 6, 2, 0, tile=3),
                       TileDropoutPattern(6, 6, 2, 0, tile=3).mask())


class TestMaskDtypeRouting:
    """Satellite fix: mask construction honours a requested dtype end to end."""

    def test_row_mask_dtype(self):
        from repro.dropout import row_pattern_mask

        assert row_pattern_mask(8, 2, 0).dtype == np.float64
        assert row_pattern_mask(8, 2, 0, dtype=np.float32).dtype == np.float32

    def test_tile_mask_dtype(self):
        from repro.dropout import tile_pattern_mask

        assert tile_pattern_mask(8, 8, 2, 0, tile=4).dtype == np.float64
        assert tile_pattern_mask(8, 8, 2, 0, tile=4,
                                 dtype=np.float32).dtype == np.float32

    def test_batched_masks_dtype(self):
        from repro.dropout import row_pattern_masks

        masks = row_pattern_masks(6, np.array([2, 3]), np.array([0, 1]),
                                  dtype=np.float32)
        assert masks.dtype == np.float32

    def test_pattern_mask_cached_per_dtype(self):
        pattern = RowDropoutPattern(num_units=10, dp=2, bias=0)
        m64 = pattern.mask()
        m32 = pattern.mask(dtype=np.float32)
        assert m64.dtype == np.float64 and m32.dtype == np.float32
        assert pattern.mask(dtype=np.float32) is m32  # cached
        assert pattern.mask() is m64
        assert not m32.flags.writeable
        np.testing.assert_array_equal(m64, m32.astype(np.float64))

    def test_tile_pattern_mask_cached_per_dtype(self):
        pattern = TileDropoutPattern(rows=8, cols=8, dp=2, bias=1, tile=4)
        m32 = pattern.mask(dtype=np.float32)
        assert m32.dtype == np.float32
        assert pattern.mask(dtype=np.float32) is m32
        np.testing.assert_array_equal(pattern.mask(), m32.astype(np.float64))
