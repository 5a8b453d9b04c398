"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.tensor.functional import RecurrentProjection


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_mnist():
    """A very small synthetic digit dataset shared across tests (session-scoped)."""
    from repro.data import make_synthetic_mnist

    return make_synthetic_mnist(num_train=400, num_test=160, noise=0.3,
                                prototypes_per_class=3, label_noise=0.0, seed=7)


@pytest.fixture(scope="session")
def tiny_corpus():
    """A very small synthetic language-model corpus (session-scoped)."""
    from repro.data import make_synthetic_corpus

    return make_synthetic_corpus(vocab_size=60, num_train_tokens=1200,
                                 num_valid_tokens=400, num_test_tokens=400, seed=7)


# ----------------------------------------------------------------------
# the per-group tile loop: the oracle of the tile context
# ----------------------------------------------------------------------

class GroupLoopContext(RecurrentProjection):
    """A tile context that reads the live weight with one GEMM per run of
    consecutive weight rows keeping the same columns — the plainest
    execution of a plan, with no gathered blocks and no backend context
    primitive.  Each run counts one ``group_loop_gemm`` on the backend."""

    def __init__(self, weight, plan, backend):
        self.tensor = weight
        self.plan = plan
        self.backend = backend
        self.runs = []
        for rows, cols in plan.classes:
            for run in np.split(rows, np.flatnonzero(np.diff(rows) != 1) + 1):
                self.runs.append((slice(int(run[0]), int(run[-1]) + 1), cols))

    def forward(self, h):
        weight = self.tensor.data
        out = np.zeros((h.shape[0], self.plan.rows), np.result_type(h, weight))
        for rows, cols in self.runs:
            self.backend.count("group_loop_gemm")
            out[:, rows] = h[:, cols] @ weight[rows, cols].T
        return out

    def backward_h(self, grad):
        weight = self.tensor.data
        grad_h = np.zeros((grad.shape[0], self.plan.cols), grad.dtype)
        for rows, cols in self.runs:
            self.backend.count("group_loop_gemm")
            # += not =: runs of one class share its columns.
            grad_h[:, cols] += grad[:, rows] @ weight[rows, cols]
        return grad_h

    def weight_grad(self, grad, h):
        grad_weight = np.zeros(self.tensor.data.shape, self.tensor.data.dtype)
        for rows, cols in self.runs:
            self.backend.count("group_loop_gemm")
            grad_weight[rows, cols] = grad[:, rows].T @ h[:, cols]
        return grad_weight


@contextlib.contextmanager
def _group_loop_tiles():
    from repro.dropout import compact_ops

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compact_ops, "tile_context", GroupLoopContext)
        yield


@pytest.fixture
def group_loop_tiles():
    """A context manager under which every tile pattern — the tile layer's
    and the tiled recurrent projection's — runs as one GEMM per run of
    weight rows that keep the same columns, read straight from the weight:
    the oracle of the tile context's gathered class blocks (they agree to
    summation order)."""
    return _group_loop_tiles
