"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest


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
# the per-group tile loop: the oracle of the backend's batched tile tiers
# ----------------------------------------------------------------------

def _group_loop_forward(self, plan, x, weight, out):
    self.count("tile_forward")
    self.count("tile_group_gemm", len(plan.row_groups))
    for group in plan.row_groups:
        block = weight[group.row_start:group.row_stop, group.selector]
        out[:, group.row_start:group.row_stop] = x[:, group.selector] @ block.T


def _group_loop_backward_input(self, plan, grad, weight, grad_x):
    self.count("tile_backward_input")
    self.count("tile_group_gemm", len(plan.row_groups))
    for group in plan.row_groups:
        block = weight[group.row_start:group.row_stop, group.selector]
        grad_compact = grad[:, group.row_start:group.row_stop]
        # += not =: tiles from different tile-rows may share columns.
        grad_x[:, group.selector] += grad_compact @ block


def _group_loop_backward_weight(self, plan, grad, x, grad_weight):
    self.count("tile_backward_weight")
    self.count("tile_group_gemm", len(plan.row_groups))
    for group in plan.row_groups:
        grad_compact = grad[:, group.row_start:group.row_stop]
        grad_weight[group.row_start:group.row_stop, group.selector] = (
            grad_compact.T @ x[:, group.selector])


@contextlib.contextmanager
def _group_loop_tiles():
    from repro.backends import ExecutionBackend

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExecutionBackend, "tile_forward", _group_loop_forward)
        patch.setattr(ExecutionBackend, "tile_backward_input",
                      _group_loop_backward_input)
        patch.setattr(ExecutionBackend, "tile_backward_weight",
                      _group_loop_backward_weight)
        yield


@pytest.fixture
def group_loop_tiles():
    """A context manager under which every :class:`ExecutionBackend` runs a
    tile plan as one GEMM per surviving tile-row group — the plainest
    execution of a plan, against which the backend's batched and per-class
    tiers are checked (they agree to summation order)."""
    return _group_loop_tiles
