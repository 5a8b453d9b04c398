"""Tests for the slice fast path of the gather/scatter primitives.

``_slice_or_index`` turns an ascending arithmetic run of non-negative
integers (an RDP kept set ``arange(bias, n, dp)``) into a slice.  Every
primitive routed through it must select exactly what fancy indexing
selects, bit for bit, whatever index set it is handed.
"""

import numpy as np
import pytest

from repro.backends import ExecutionBackend
from repro.dropout.compact_ops import _put, row_compact_linear
from repro.dropout.patterns import RowDropoutPattern
from repro.tensor import Tensor, functional as F
from repro.tensor.functional import _slice_or_index

ROWS, COLS = 48, 40

#: Index sets as functions of the axis length.
INDEX_SETS = {
    "arithmetic": lambda n: np.arange(2, n, 3),
    "contiguous": lambda n: np.arange(5, 17),
    "non_run": lambda n: np.array([1, 2, 4, 7, 11]),
    "singleton": lambda n: np.array([6]),
    "empty": lambda n: np.array([], dtype=np.intp),
    "negative_run": lambda n: np.array([-3, -2, -1]),
    "negative_arithmetic": lambda n: np.array([-7, -5, -3]),
    "mask": lambda n: np.arange(n) % 4 == 1,
}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


@pytest.fixture
def arrays(rng):
    return rng.normal(size=(ROWS, COLS)), rng.normal(size=(ROWS, COLS))


class TestSliceOrIndex:
    def test_arithmetic_run_becomes_a_strided_slice(self):
        assert _slice_or_index(np.arange(2, 40, 3)) == slice(2, 39, 3)
        assert _slice_or_index([4, 5, 6]) == slice(4, 7, 1)

    def test_contiguous_only_keeps_strided_runs_as_arrays(self):
        assert isinstance(_slice_or_index(np.arange(2, 40, 3), strided=False),
                          np.ndarray)
        assert _slice_or_index(np.arange(3, 9), strided=False) == slice(3, 9, 1)

    @pytest.mark.parametrize("indices", [
        [-3, -2, -1], [-6, -4, -2], [False, True], [True, True, True],
        [3, 2, 1], [2, 2, 2], [1, 3, 4], [7], [],
    ])
    def test_other_sets_stay_index_arrays(self, indices):
        result = _slice_or_index(indices)
        assert isinstance(result, np.ndarray)
        assert np.array_equal(result, np.asarray(indices))


class TestPrimitivesMatchFancyIndexing:
    @pytest.mark.parametrize("name", sorted(INDEX_SETS))
    def test_row_and_column_primitives(self, arrays, name):
        source, values = arrays
        backend = ExecutionBackend()
        rows, cols = INDEX_SETS[name](ROWS), INDEX_SETS[name](COLS)

        assert same_bits(backend.gather_rows(source, rows), source[rows])
        assert same_bits(backend.gather_cols(source, cols), source[:, cols])

        out, expected = np.zeros((ROWS, COLS)), np.zeros((ROWS, COLS))
        backend.scatter_rows(out, rows, values[rows])
        expected[rows] = values[rows]
        assert same_bits(out, expected)

        out, expected = np.zeros((ROWS, COLS)), np.zeros((ROWS, COLS))
        backend.scatter_cols(out, cols, values[:, cols])
        expected[:, cols] = values[:, cols]
        assert same_bits(out, expected)

    @pytest.mark.parametrize("col_name", sorted(INDEX_SETS))
    @pytest.mark.parametrize("row_name", sorted(INDEX_SETS))
    def test_block_primitives_and_put(self, arrays, row_name, col_name):
        source, values = arrays
        backend = ExecutionBackend()
        rows, cols = INDEX_SETS[row_name](ROWS), INDEX_SETS[col_name](COLS)
        block = np.ix_(rows, cols)
        # gather_block's layout may differ from np.ix_'s; its values may not.
        gathered = backend.gather_block(source, rows, cols)
        assert same_bits(np.ascontiguousarray(gathered), source[block])

        out, expected = np.zeros((ROWS, COLS)), np.zeros((ROWS, COLS))
        backend.scatter_block(out, rows, cols, values[block])
        expected[block] = values[block]
        assert same_bits(out, expected)

        for add in (False, True):
            out, expected = source.copy(), source.copy()
            _put(out, rows, cols, values[block], add)
            if add:
                expected[block] += values[block]
            else:
                expected[block] = values[block]
            assert same_bits(out, expected)

        for add in (False, True):
            out, expected = source.copy(), source.copy()
            _put(out, rows, None, values[rows], add)
            _put(out, None, cols, values[:, cols], add)
            for index, update in ((rows, values[rows]),
                                  ((slice(None), cols), values[:, cols])):
                if add:
                    expected[index] += update
                else:
                    expected[index] = update
            assert same_bits(out, expected)

    def test_negative_block_regression(self, arrays):
        source, values = arrays
        backend = ExecutionBackend()
        block = backend.gather_block(source, [-2, -1], [0, 2])
        assert same_bits(np.ascontiguousarray(block),
                         source[np.ix_([-2, -1], [0, 2])])
        out = np.zeros((ROWS, COLS))
        backend.scatter_block(out, [-2, -1], [0, 2], values[:2, :2])
        assert same_bits(out[-2:, [0, 2]], values[:2, :2])

    def test_boolean_mask_regression(self):
        source = np.arange(6.0).reshape(2, 3)
        backend = ExecutionBackend()
        block = backend.gather_block(source, [False, True], [0, 1])
        assert same_bits(np.ascontiguousarray(block), source[1:, :2])


class TestLayouts:
    def test_row_gather_of_a_run_is_a_view(self, arrays):
        source, _ = arrays
        gathered = ExecutionBackend().gather_rows(source, np.arange(1, ROWS, 4))
        assert np.shares_memory(gathered, source)

    @pytest.mark.parametrize("cols", [np.arange(1, COLS, 3), np.arange(4, 20)])
    def test_column_gather_keeps_the_fancy_f_order(self, arrays, cols):
        # GEMM rounding depends on operand layout: the column gather must
        # stay the F-ordered copy numpy's fancy indexing makes.
        source, _ = arrays
        gathered = ExecutionBackend().gather_cols(source, cols)
        assert gathered.flags.f_contiguous and not gathered.flags.c_contiguous
        assert not np.shares_memory(gathered, source)


class TestOpsOnStridedKeptSets:
    def test_cols_select_backward_matches_fancy_scatter(self, rng):
        x = Tensor(rng.normal(size=(6, COLS)), requires_grad=True)
        kept = np.arange(1, COLS, 3)
        out = F.cols_select(x, kept)
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        expected = np.zeros((6, COLS))
        expected[:, kept] = upstream
        assert same_bits(x.grad, expected)

    def test_row_compact_linear_gathers_the_upstream_gradient_once(self, rng):
        calls = []

        class CountingBackend(ExecutionBackend):
            def gather_cols(self, array, indices):
                calls.append(array.shape)
                return super().gather_cols(array, indices)

        x = Tensor(rng.normal(size=(5, 24)), requires_grad=True)
        weight = Tensor(rng.normal(size=(30, 24)), requires_grad=True)
        bias = Tensor(rng.normal(size=30), requires_grad=True)
        out = row_compact_linear(x, weight, bias,
                                 RowDropoutPattern(30, dp=3, bias=1),
                                 input_pattern=RowDropoutPattern(24, dp=2, bias=0),
                                 backend=CountingBackend())
        assert len(calls) == 2          # the weight block and the input
        out.backward(rng.normal(size=out.shape))
        assert len(calls) == 3          # one gather for three parent edges
        assert x.grad is not None and weight.grad is not None
        assert bias.grad is not None
