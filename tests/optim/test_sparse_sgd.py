"""Tests for the pattern-aware sparse optimizer (``repro.optim_sparse``).

The contract: :class:`SparseSGD` produces parameter trajectories **bit for
bit identical** to the dense :class:`~repro.nn.optim.SGD` across every
hyper-parameter corner (momentum, weight decay, gradient clipping) and every
execution backend, while its update arithmetic provably never writes rows or
columns outside the recorded dirty region.
"""

import numpy as np
import pytest

from repro.execution import EngineRuntime, ExecutionConfig
from repro.nn.module import Parameter
from repro.nn.optim import SGD, _grad_sq_norm
from repro.optim_sparse import SparseSGD
from repro.tensor import dirty

BACKENDS = ("numpy", "stacked")


def clone_params(params):
    return [Parameter(p.data.copy()) for p in params]


def drive_step(optimizer, params, grads, regions):
    """One zero_grad -> record -> step cycle with synthetic compact grads.

    Mimics what the engine's backward pass does: each gradient buffer is
    registered with the active tracker as zero-filled, then its dirty region
    is recorded.  The records are no-ops for the dense optimizer (it never
    activates a tracker), so the same driver runs both sides.
    """
    optimizer.zero_grad()
    for param, grad, region in zip(params, grads, regions):
        param.grad = grad
        if grad is None or region is None:
            continue
        kind, idx = region
        if kind == "full":
            dirty.record_full(grad)
            continue
        dirty.record_reset(grad)
        if kind == "rows":
            dirty.record_rows(grad, idx)
        elif kind == "cols":
            dirty.record_cols(grad, idx)
    optimizer.step()


class TestSyntheticBitIdentity:
    """Sparse vs dense trajectories on hand-built compact gradients."""

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("grad_clip", [None, 0.75])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_trajectories_bit_identical(self, rng, momentum, grad_clip,
                                        weight_decay):
        shapes = [(300, 8), (12, 40), (30, 8), (7,)]
        dense_params = [Parameter(rng.normal(size=s)) for s in shapes]
        sparse_params = clone_params(dense_params)
        kwargs = dict(lr=0.1, momentum=momentum, weight_decay=weight_decay,
                      grad_clip=grad_clip)
        dense = SGD(dense_params, **kwargs)
        sparse = SparseSGD(sparse_params, **kwargs)

        for step in range(6):
            grads, regions = [], []
            # Rows-dirty gradient whose row set changes every step (the
            # momentum corner exercises the stale-row decay path).
            rows = np.sort(rng.choice(shapes[0][0],
                                      size=int(rng.integers(1, 30)),
                                      replace=False))
            g0 = np.zeros(shapes[0])
            g0[rows] = rng.normal(size=(rows.size, shapes[0][1]))
            grads.append(g0)
            regions.append(("rows", rows))
            # Cols-dirty gradient.
            cols = np.sort(rng.choice(shapes[1][1],
                                      size=int(rng.integers(1, 10)),
                                      replace=False))
            g1 = np.zeros(shapes[1])
            g1[:, cols] = rng.normal(size=(shapes[1][0], cols.size))
            grads.append(g1)
            regions.append(("cols", cols))
            # Dense gradient with no recorded region (unknown -> fallback).
            grads.append(rng.normal(size=shapes[2]))
            regions.append(None)
            # A parameter whose gradient comes and goes across steps.
            if step % 2:
                grads.append(rng.normal(size=shapes[3]))
                regions.append(("full", None))
            else:
                grads.append(None)
                regions.append(None)

            drive_step(dense, dense_params,
                       [None if g is None else g.copy() for g in grads],
                       regions)
            drive_step(sparse, sparse_params, grads, regions)
            for d, s in zip(dense_params, sparse_params):
                assert np.array_equal(d.data, s.data)

        assert sparse.step_count == dense.step_count == 6
        if not weight_decay:
            assert sparse.sparse_updates > 0

    def test_empty_region_skips_the_update(self, rng):
        param = Parameter(rng.normal(size=(16, 4)))
        before = param.data.copy()
        optimizer = SparseSGD([param], lr=0.5, momentum=0.9)
        optimizer.zero_grad()
        grad = np.zeros((16, 4))
        dirty.record_reset(grad)  # allocated zero-filled, never scattered to
        param.grad = grad
        optimizer.step()
        assert np.array_equal(param.data, before)
        assert optimizer.skipped_updates == 1
        assert optimizer.dense_fallbacks == 0

    def test_unknown_region_falls_back_dense(self, rng):
        dense_param = Parameter(rng.normal(size=(16, 4)))
        sparse_param = Parameter(dense_param.data.copy())
        grad = rng.normal(size=(16, 4))
        dense = SGD([dense_param], lr=0.1)
        sparse = SparseSGD([sparse_param], lr=0.1)
        drive_step(dense, [dense_param], [grad.copy()], [None])
        drive_step(sparse, [sparse_param], [grad], [None])
        assert np.array_equal(dense_param.data, sparse_param.data)
        assert sparse.dense_fallbacks == 1

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_dense_cutover_stays_bit_identical_and_notifies_sparsely(
            self, rng, momentum):
        # Above DENSE_CUTOVER the arithmetic runs dense (contiguous beats
        # fancy indexing) but the result and the observer notification must
        # be exactly what the sparse path would produce.
        dense_param = Parameter(rng.normal(size=(40, 6)))
        sparse_param = Parameter(dense_param.data.copy())
        dense = SGD([dense_param], lr=0.1, momentum=momentum)
        sparse = SparseSGD([sparse_param], lr=0.1, momentum=momentum)
        notified = []
        sparse.tracker.set_observer("probe",
                                    lambda a, kind, idx: notified.append((kind, idx)))
        rows = np.arange(30)  # 75% of the axis: over the cutover
        for _ in range(2):
            grad = np.zeros((40, 6))
            grad[rows] = rng.normal(size=(rows.size, 6))
            drive_step(dense, [dense_param], [grad.copy()], [("rows", rows)])
            drive_step(sparse, [sparse_param], [grad], [("rows", rows)])
            assert np.array_equal(dense_param.data, sparse_param.data)
        assert sparse.sparse_updates == 2 and sparse.dense_fallbacks == 0
        for kind, idx in notified:
            assert kind == "rows" and np.array_equal(np.sort(idx), rows)

    def test_clip_skips_clean_chunks_bit_exactly(self, rng):
        grad = np.zeros((1024, 3))
        rows = np.array([5, 300, 700])
        grad[rows] = rng.normal(size=(rows.size, 3))
        optimizer = SparseSGD([Parameter(rng.normal(size=(1024, 3)))],
                              lr=0.1, grad_clip=0.5)
        # 1024 rows = 4 fixed 256-row chunks; the dirty rows touch 3 of them.
        assert optimizer._row_region_sq_norm(grad, rows) == _grad_sq_norm(grad)
        assert optimizer.skipped_norm_chunks == 1


class _WriteLog(np.ndarray):
    """ndarray recording every ``__setitem__`` key / whole-array ``-=``.

    Views and fancy-index copies deliberately get ``writes = None`` (via
    ``__array_finalize__``) so only writes on the logged array itself count.
    """

    def __array_finalize__(self, obj):
        self.writes = None

    def __setitem__(self, key, value):
        if self.writes is not None:
            self.writes.append(("set", key))
        super().__setitem__(key, value)

    def __isub__(self, other):
        if self.writes is not None:
            self.writes.append(("isub", None))
        return super().__isub__(other)


class TestDirtySetIsRespected:
    def test_untouched_rows_are_literally_never_written(self, rng):
        base = rng.normal(size=(64, 5))
        param = Parameter(base.copy())
        logged = param.data.view(_WriteLog)
        logged.writes = []
        param.data = logged
        optimizer = SparseSGD([param], lr=0.1, momentum=0.9)

        touched = set()
        for rows in (np.array([3, 7, 40]), np.array([7, 12])):
            optimizer.zero_grad()
            grad = np.zeros((64, 5))
            dirty.record_reset(grad)
            grad[rows] = rng.normal(size=(rows.size, 5))
            dirty.record_rows(grad, rows)
            param.grad = grad
            optimizer.step()
            touched.update(int(r) for r in rows)

        written = set()
        for op, key in logged.writes:
            # A whole-array in-place update would mean the sparse path fell
            # back dense despite a recorded row region.
            assert op == "set", "dense write on a sparse-region step"
            written.update(int(i) for i in np.atleast_1d(np.asarray(key)).ravel())
        assert written
        assert written <= touched
        untouched = sorted(set(range(64)) - touched)
        assert np.array_equal(np.asarray(param.data)[untouched],
                              base[untouched])


class TestRuntimeWiring:
    def test_execution_config_validates_and_describes_optimizer(self):
        with pytest.raises(ValueError, match="optimizer"):
            ExecutionConfig(optimizer="adam")
        assert ExecutionConfig().optimizer == "dense"
        assert "opt=sparse" in ExecutionConfig(optimizer="sparse").describe()

    def test_make_sgd_returns_the_configured_flavour(self):
        param = Parameter(np.ones(3))
        runtime = EngineRuntime(ExecutionConfig(optimizer="sparse"))
        optimizer = runtime.make_sgd([param], lr=0.1)
        assert isinstance(optimizer, SparseSGD)
        assert optimizer.tracker is runtime.dirty_tracker
        dense_runtime = EngineRuntime(ExecutionConfig())
        dense_optimizer = dense_runtime.make_sgd([param], lr=0.1)
        assert type(dense_optimizer) is SGD

    def test_stats_report_optimizer_block(self):
        runtime = EngineRuntime(ExecutionConfig(optimizer="sparse"))
        optimizer = runtime.make_sgd([Parameter(np.ones((4, 4)))], lr=0.1)
        optimizer.zero_grad()
        optimizer.step()
        block = runtime.stats()["optimizer"]
        assert block["kind"] == "sparse"
        assert block["steps"] == 1
        assert {"sparse_updates", "dense_fallbacks", "skipped_updates",
                "skipped_norm_chunks", "dirty_fraction", "tracker"} <= set(block)


class TestTrainerBitIdentity:
    """End-to-end: both trainers, every backend, sparse == dense bit for bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mlp_classifier_histories_identical(self, tiny_mnist, backend):
        from repro.models.mlp import MLPClassifier, MLPConfig
        from repro.training.trainer import (
            ClassifierTrainer,
            ClassifierTrainingConfig,
        )

        def run(optimizer):
            model = MLPClassifier(MLPConfig(
                input_size=tiny_mnist.num_features, hidden_sizes=(48, 48),
                num_classes=tiny_mnist.num_classes, drop_rates=(0.5, 0.5),
                strategy="row", seed=3))
            runtime = EngineRuntime(ExecutionConfig(
                backend=backend, optimizer=optimizer, seed=3))
            trainer = ClassifierTrainer(
                model, tiny_mnist,
                ClassifierTrainingConfig(batch_size=32, epochs=1,
                                         max_iterations=6, seed=3),
                runtime=runtime)
            trainer.train()
            return [p.data.copy() for p in model.parameters()], trainer

        dense_params, _ = run("dense")
        sparse_params, trainer = run("sparse")
        for d, s in zip(dense_params, sparse_params):
            assert np.array_equal(d, s)
        stats = trainer.runtime.stats()["optimizer"]
        assert stats["kind"] == "sparse" and stats["steps"] == 6

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lstm_lm_histories_identical(self, tiny_corpus, backend):
        from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
        from repro.training.lm_trainer import (
            LanguageModelTrainer,
            LanguageModelTrainingConfig,
        )

        def run(optimizer):
            model = LSTMLanguageModel(LSTMConfig(
                vocab_size=60, embed_size=32, hidden_size=32, num_layers=2,
                drop_rates=(0.5, 0.5), strategy="row", seed=5))
            runtime = EngineRuntime(ExecutionConfig(
                backend=backend, recurrent="tiled", loss_head="sampled",
                optimizer=optimizer, seed=5))
            trainer = LanguageModelTrainer(
                model, tiny_corpus,
                LanguageModelTrainingConfig(batch_size=8, seq_len=10,
                                            epochs=1, max_iterations=4,
                                            seed=5),
                runtime=runtime)
            trainer.train()
            return [p.data.copy() for p in model.parameters()]

        dense_params = run("dense")
        sparse_params = run("sparse")
        for d, s in zip(dense_params, sparse_params):
            assert np.array_equal(d, s)


class TestRecurrentContextCache:
    def _model_and_runtime(self, optimizer):
        from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel

        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=60, embed_size=32, hidden_size=32, num_layers=1,
            drop_rates=(0.5,), strategy="row", seed=5))
        runtime = EngineRuntime(ExecutionConfig(
            recurrent="tiled", loss_head="sampled", optimizer=optimizer,
            seed=5))
        runtime.bind(model)
        return model, runtime

    def test_cache_enabled_only_under_sparse_and_tiled(self):
        model, _ = self._model_and_runtime("sparse")
        site = model.lstm.cells[0].recurrent_dropout
        assert site.context_cache_enabled
        dense_model, _ = self._model_and_runtime("dense")
        assert not dense_model.lstm.cells[0].recurrent_dropout.context_cache_enabled

    def test_cache_reuses_clean_classes_across_windows(self, tiny_corpus):
        from repro.training.lm_trainer import (
            LanguageModelTrainer,
            LanguageModelTrainingConfig,
        )
        from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel

        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=60, embed_size=32, hidden_size=32, num_layers=1,
            drop_rates=(0.5,), strategy="row", seed=5))
        runtime = EngineRuntime(ExecutionConfig(
            recurrent="tiled", loss_head="sampled", optimizer="sparse",
            seed=5))
        trainer = LanguageModelTrainer(
            model, tiny_corpus,
            LanguageModelTrainingConfig(batch_size=8, seq_len=10, epochs=1,
                                        max_iterations=4, seed=5),
            runtime=runtime)
        trainer.train()
        site = model.lstm.cells[0].recurrent_dropout
        # The cache must have been consulted; whether a given window refreshes
        # or reuses depends on which weight_h rows the updates dirtied, but
        # across several windows both counters engage.
        assert site.context_classes_refreshed + site.context_classes_reused > 0
