"""Execution contracts over a pairwise covering array of the config knobs.

The execution knobs (mode × dtype × optimizer, plus recurrent × loss_head
on the LSTM) and the model's dropout strategy span 24 MLP and 96 LSTM
configs.  ``MLP_ROWS`` and ``LSTM_ROWS`` are pairwise covering arrays of
them: every pair of knob values appears in at least one row.  Each row
trains a tiny model a few steps and is held to this contract table:

=========  ===========================================  ====================
contract   comparison                                   holds
=========  ===========================================  ====================
repeat     the same row twice                           bit for bit
tiles      the row with the backend's tile tiers        bit for bit; to a
           replaced by one GEMM per tile-row group      tolerance where a
                                                        tile plan runs
sparse     the row with the other optimizer             bit for bit
strided    index sets as strided slices with a blocked  bit for bit
           SGD update, against contiguous runs only
           with one update block per parameter
serving    ``InferenceEngine.infer`` of the trained     bit for bit
           model against its eval ``forward()``
masked     each pattern layer's dense-masked path       to a tolerance;
           against its compact path under one frozen    dropped rows, tiles
           pattern, in both dtypes (per layer, in       and units exactly
           ``tests/dropout/test_compact_ops_and_        zero in both
           layers.py::TestMaskedExecutionMode``)
=========  ===========================================  ====================

"Bit for bit" covers the loss of every step and every parameter after the
last step.  A tile plan runs only in the pooled MLP rows of the ``tile``
strategy (the LSTM's tile strategy is block dropout plus the recurrent
context loop).  There the tiers concatenate and batch tile-row groups,
which may change summation order, so the row is held to rtol=atol 1e-10
(float64) or 1e-4 (float32), as is the masked contract, and its run must
have used the batched tier.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

import repro.backends.backend as backend_module
from repro.data.batching import BPTTBatcher
from repro.dropout import compact_ops
from repro.execution import (
    EXECUTION_DTYPES,
    EXECUTION_MODES,
    LOSS_HEAD_MODES,
    OPTIMIZER_MODES,
    RECURRENT_MODES,
    EngineRuntime,
    ExecutionConfig,
)
from repro.models import LSTMConfig, LSTMLanguageModel, MLPClassifier, MLPConfig
from repro.nn import optim
from repro.serving import InferenceEngine
from repro.tensor import functional as F
from repro.tensor.functional import _slice_or_index
from repro.tensor.tensor import Tensor, no_grad
from repro.training import (
    ClassifierTrainer,
    ClassifierTrainingConfig,
    LanguageModelTrainer,
    LanguageModelTrainingConfig,
)

SHARED_KNOBS = {
    "mode": EXECUTION_MODES,
    "dtype": tuple(EXECUTION_DTYPES),
    "optimizer": OPTIMIZER_MODES,
}
MLP_KNOBS = {"strategy": ("row", "tile", "original"), **SHARED_KNOBS}
LSTM_KNOBS = {"strategy": ("row", "tile"), **SHARED_KNOBS,
              "recurrent": RECURRENT_MODES, "loss_head": LOSS_HEAD_MODES}

MLP_ROWS = [
    # strategy   mode      dtype      optimizer
    ("row",      "pooled", "float64", "dense"),
    ("row",      "masked", "float32", "sparse"),
    ("tile",     "pooled", "float64", "sparse"),
    ("tile",     "masked", "float32", "dense"),
    ("original", "pooled", "float32", "sparse"),
    ("original", "masked", "float64", "dense"),
]
LSTM_ROWS = [
    # strategy mode     dtype      optimizer recurrent loss_head
    ("row",  "pooled", "float64", "dense",  "dense", "dense"),
    ("tile", "masked", "float32", "sparse", "tiled", "dense"),
    ("row",  "pooled", "float64", "sparse", "tiled", "sampled"),
    ("tile", "masked", "float32", "dense",  "dense", "sampled"),
    ("row",  "pooled", "float32", "sparse", "dense", "adaptive"),
    ("tile", "masked", "float64", "dense",  "tiled", "adaptive"),
    ("row",  "masked", "float64", "dense",  "tiled", "dense"),
    ("tile", "pooled", "float64", "dense",  "dense", "dense"),
]

KNOBS = {"mlp": MLP_KNOBS, "lstm": LSTM_KNOBS}
ROWS = ([pytest.param("mlp", row, id="mlp-" + "-".join(row)) for row in MLP_ROWS]
        + [pytest.param("lstm", row, id="lstm-" + "-".join(row))
           for row in LSTM_ROWS])

STEPS = 3
BATCH = 32          # MLP images per step
LM_BATCH, LM_SEQ = 5, 8


@dataclass
class Run:
    """A short training run: its losses and a copy of every parameter."""

    trainer: object
    losses: list
    params: list


def settings(kind: str, row: tuple) -> dict:
    return dict(zip(KNOBS[kind], row))


def flipped(kind: str, row: tuple, knob: str) -> tuple:
    """``row`` with ``knob`` moved to the next value of its domain."""
    names = list(KNOBS[kind])
    values = KNOBS[kind][knob]
    index = names.index(knob)
    row = list(row)
    row[index] = values[(values.index(row[index]) + 1) % len(values)]
    return tuple(row)


def train(kind: str, row: tuple, data) -> Run:
    config = settings(kind, row)
    strategy = config.pop("strategy")
    if kind == "mlp":
        # 160-192: at dp 3 both tile plans hold equal-shape column classes
        # (the 192x160 weight always, the 160x784 one at bias 2), so the
        # tile row runs the batched tier.
        model = MLPClassifier(MLPConfig(
            input_size=data.num_features, hidden_sizes=(160, 192),
            num_classes=data.num_classes, drop_rates=(0.5, 0.5),
            strategy=strategy, seed=3))
        trainer = ClassifierTrainer(
            model, data, ClassifierTrainingConfig(batch_size=BATCH, seed=3),
            runtime=EngineRuntime(ExecutionConfig(seed=3, **config)))
        losses = [trainer.train_step(data.train_images[start:start + BATCH],
                                     data.train_labels[start:start + BATCH])
                  for start in range(0, STEPS * BATCH, BATCH)]
    else:
        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=data.vocab_size, embed_size=16, hidden_size=24,
            num_layers=2, drop_rates=(0.5, 0.5), strategy=strategy, seed=5))
        # A low clip threshold so the clipped update runs too.
        trainer = LanguageModelTrainer(
            model, data,
            LanguageModelTrainingConfig(batch_size=LM_BATCH, seq_len=LM_SEQ,
                                        grad_clip=0.5, seed=5),
            runtime=EngineRuntime(ExecutionConfig(head_shortlist=12, seed=5,
                                                  **config)))
        state, losses = model.init_state(LM_BATCH), []
        windows = BPTTBatcher(data.train, LM_BATCH, LM_SEQ)
        for _, (inputs, targets) in zip(range(STEPS), windows):
            loss, state = trainer.train_step(inputs, targets, state)
            losses.append(loss)
    params = [param.data.copy() for param in trainer.model.parameters()]
    return Run(trainer, losses, params)


def assert_same_bits(run: Run, other: Run) -> None:
    """Equal bit for bit: ``-0.0`` against ``+0.0`` fails too."""
    assert ([float(loss).hex() for loss in run.losses]
            == [float(loss).hex() for loss in other.losses])
    assert len(run.params) == len(other.params)
    for param, other_param in zip(run.params, other.params):
        assert param.dtype == other_param.dtype
        assert param.tobytes() == other_param.tobytes()


def contiguous_only(indices, strided: bool = True):
    """The index helper as it was before strided runs became slices."""
    return _slice_or_index(indices, strided=False)


@pytest.fixture(scope="module")
def runs(tiny_mnist, tiny_corpus):
    """``runs(kind, row)``: a fresh run; ``runs.cached(kind, row)``: the
    row's run, trained once per module."""
    data = {"mlp": tiny_mnist, "lstm": tiny_corpus}
    cache = {}

    class Runs:
        def __call__(self, kind, row):
            return train(kind, row, data[kind])

        def cached(self, kind, row):
            if (kind, row) not in cache:
                cache[kind, row] = self(kind, row)
            return cache[kind, row]

    return Runs()


class TestCoveringArrays:
    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_rows_cover_every_pair_of_knob_values(self, kind):
        knobs = KNOBS[kind]
        rows = MLP_ROWS if kind == "mlp" else LSTM_ROWS
        assert len(set(rows)) == len(rows), "a row is listed twice"
        for row in rows:
            for name, value in zip(knobs, row):
                assert value in knobs[name], (name, value)
        for (i, first), (j, second) in itertools.combinations(
                enumerate(knobs), 2):
            seen = {(row[i], row[j]) for row in rows}
            missing = set(itertools.product(knobs[first], knobs[second])) - seen
            assert not missing, f"{first} x {second} lacks {sorted(missing)}"


@pytest.mark.parametrize("kind,row", ROWS)
class TestContracts:
    def test_repeat(self, runs, kind, row):
        assert_same_bits(runs.cached(kind, row), runs(kind, row))

    def test_tiles(self, runs, kind, row, group_loop_tiles):
        run = runs.cached(kind, row)
        with group_loop_tiles():
            other = runs(kind, row)
        config = settings(kind, row)
        ran_plan = "tile_forward" in run.trainer.runtime.backend.calls
        assert ran_plan == (kind == "mlp" and config["strategy"] == "tile"
                            and config["mode"] == "pooled")
        if not ran_plan:
            assert_same_bits(run, other)
            return
        assert "stacked_gemm" in run.trainer.runtime.backend.calls
        assert "stacked_gemm" not in other.trainer.runtime.backend.calls
        rtol = 1e-10 if config["dtype"] == "float64" else 1e-4
        np.testing.assert_allclose(run.losses, other.losses, rtol=rtol)
        for param, other_param in zip(run.params, other.params):
            np.testing.assert_allclose(param, other_param, rtol=rtol,
                                       atol=rtol)

    def test_sparse(self, runs, kind, row):
        assert_same_bits(runs.cached(kind, row),
                         runs(kind, flipped(kind, row, "optimizer")))

    def test_strided(self, runs, kind, row, monkeypatch):
        # Small update blocks: every weight matrix spans several, most of
        # them with a ragged last one.
        monkeypatch.setattr(optim, "UPDATE_BLOCK", 333)
        blocked = runs(kind, row)
        monkeypatch.setattr(optim, "UPDATE_BLOCK", 1 << 20)
        for module in (F, backend_module, compact_ops):
            monkeypatch.setattr(module, "_slice_or_index", contiguous_only)
        reference = runs(kind, row)
        assert all(len(optim._row_blocks(param.shape)) == 1
                   for param in reference.params)
        assert_same_bits(blocked, reference)

    def test_serving(self, runs, kind, row, tiny_mnist, tiny_corpus):
        trainer = runs.cached(kind, row).trainer
        model = trainer.model
        engine = InferenceEngine(model, runtime=trainer.runtime)
        dtype = trainer.runtime.np_dtype
        model.eval()
        if kind == "mlp":
            images = tiny_mnist.test_images[:9].astype(dtype)
            with no_grad():
                expected = model(Tensor(images, dtype=dtype)).data
            served = engine.infer(images)
            assert served.dtype == expected.dtype
            assert np.array_equal(served, expected)
            return
        tokens = tiny_corpus.test[:LM_SEQ * 3].reshape(LM_SEQ, 3)
        with no_grad():
            expected, expected_state = model(tokens)
        logits, state = engine.infer(tokens)
        assert logits.dtype == expected.data.dtype
        assert np.array_equal(logits, expected.data)
        for (h, c), (expected_h, expected_c) in zip(state, expected_state):
            assert np.array_equal(h, expected_h.data)
            assert np.array_equal(c, expected_c.data)
