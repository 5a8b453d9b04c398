"""Shared configuration for the slow benchmark tier.

Each benchmark module regenerates one of the paper's tables or figures and
prints the reproduced rows (paper value in parentheses where the paper reports
one), so running ``pytest -m slow benchmarks/ -s`` doubles as the
artefact-regeneration script.  The heavy accuracy-training parts run at the
reduced synthetic scale defined here; the speedup columns always use the
paper-scale analytical timing model.

Everything collected from this directory is marked ``slow`` so the tier-1
fast suite (plain ``pytest``, whose default ``-m "not slow"`` comes from
``pytest.ini``) deselects it.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ReducedScale


_BENCHMARK_DIR = __file__.rsplit("/", 1)[0]


def pytest_collection_modifyitems(items):
    """Mark every benchmark-directory test as slow (deselected by default).

    The hook receives the whole session's items, so filter to this directory.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCHMARK_DIR):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def accuracy_scale() -> ReducedScale:
    """Reduced training scale used by benchmarks that train for accuracy."""
    return ReducedScale(
        mlp_hidden=256, mlp_train_samples=2000, mlp_test_samples=600, mlp_epochs=12,
        mlp_batch_size=64, lstm_vocab=150, lstm_hidden=48, lstm_train_tokens=4000,
        lstm_eval_tokens=1000, lstm_epochs=1, lstm_batch_size=8, lstm_seq_len=15)
