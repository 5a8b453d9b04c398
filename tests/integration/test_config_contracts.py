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
tiles      the row with every tile context replaced by  bit for bit; to a
           one GEMM per run of weight rows that keep    tolerance where a
           the same columns, read from the weight       tile context runs
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
stream     the row with the other execution mode        equal patterns at
                                                        every site and step;
                                                        bit for bit without
                                                        a pattern site; to a
                                                        tolerance under a
                                                        dense loss head
=========  ===========================================  ====================

"Bit for bit" covers the loss of every step and every parameter after the
last step; "to a tolerance" is rtol=atol 1e-10 (float64) or 1e-4
(float32).  Compact tile execution (the
:class:`~repro.dropout.compact_ops.TileContext` of the tile layer and of
the tiled recurrent projection) is held to the dense masked product by
``test_stream`` (each pooled tile row against its masked rerun, to the
tile tolerance) and by
``tests/dropout/test_compact_ops_and_layers.py::TestMaskedExecutionMode``
(per layer under one frozen pattern); the context's GEMMs alone by
``tests/backends/test_backends.py::TestContextEquivalence``.  The
``tiles`` contract holds it to the plainest loop over the same plan (the
``group_loop_tiles`` fixture).  A tile context runs in the pooled MLP
rows of the ``tile`` strategy and in the pooled LSTM rows of the tiled
recurrent projection (whatever their strategy; the LSTM's ``tile``
strategy is otherwise block dropout).  Its classes concatenate tile-rows,
which may change summation order.

Both execution modes draw one pattern stream: the masked row's schedule
pools the same sites from the same seed and installs the same patterns as
the pooled row's, and only the GEMMs that run them differ.  A masked loss
head computes the dense loss, so under the sampled or adaptive head the
stream contract compares the patterns only.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

import repro.backends.backend as backend_module
from repro.data.batching import BPTTBatcher
from repro.dropout import compact_ops
from repro.dropout.sampler import PatternSite
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
    """A short training run: its losses, the patterns its sites held after
    each step and a copy of every parameter."""

    trainer: object
    losses: list
    patterns: list
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


def installed(model) -> tuple:
    """The pattern each :class:`PatternSite` of ``model`` holds."""
    return tuple(module.pattern for module in model.modules()
                 if isinstance(module, PatternSite))


def train(kind: str, row: tuple, data) -> Run:
    config = settings(kind, row)
    strategy = config.pop("strategy")
    losses, patterns = [], []
    if kind == "mlp":
        # 160-192: at dp 3 each tile plan holds three column classes.
        model = MLPClassifier(MLPConfig(
            input_size=data.num_features, hidden_sizes=(160, 192),
            num_classes=data.num_classes, drop_rates=(0.5, 0.5),
            strategy=strategy, seed=3))
        trainer = ClassifierTrainer(
            model, data, ClassifierTrainingConfig(batch_size=BATCH, seed=3),
            runtime=EngineRuntime(ExecutionConfig(seed=3, **config)))
        for start in range(0, STEPS * BATCH, BATCH):
            losses.append(trainer.train_step(
                data.train_images[start:start + BATCH],
                data.train_labels[start:start + BATCH]))
            patterns.append(installed(model))
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
        state = model.init_state(LM_BATCH)
        windows = BPTTBatcher(data.train, LM_BATCH, LM_SEQ)
        for _, (inputs, targets) in zip(range(STEPS), windows):
            loss, state = trainer.train_step(inputs, targets, state)
            losses.append(loss)
            patterns.append(installed(model))
    params = [param.data.copy() for param in trainer.model.parameters()]
    return Run(trainer, losses, patterns, params)


def assert_same_bits(run: Run, other: Run) -> None:
    """Equal bit for bit: ``-0.0`` against ``+0.0`` fails too."""
    assert ([float(loss).hex() for loss in run.losses]
            == [float(loss).hex() for loss in other.losses])
    assert len(run.params) == len(other.params)
    for param, other_param in zip(run.params, other.params):
        assert param.dtype == other_param.dtype
        assert param.tobytes() == other_param.tobytes()


def assert_close(run: Run, other: Run, dtype: str) -> None:
    """Losses to rtol, parameters to rtol=atol: 1e-10 (float64) or 1e-4."""
    tol = 1e-10 if dtype == "float64" else 1e-4
    np.testing.assert_allclose(run.losses, other.losses, rtol=tol)
    assert len(run.params) == len(other.params)
    for param, other_param in zip(run.params, other.params):
        np.testing.assert_allclose(param, other_param, rtol=tol, atol=tol)


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
        calls = run.trainer.runtime.backend.calls
        other_calls = other.trainer.runtime.backend.calls
        ran_context = "context_forward" in calls
        tiled = (config["strategy"] == "tile" if kind == "mlp"
                 else config["recurrent"] == "tiled")
        assert ran_context == (tiled and config["mode"] == "pooled")
        assert "context_forward" not in other_calls
        assert ("group_loop_gemm" in other_calls) == ran_context
        if not ran_context:
            assert_same_bits(run, other)
            return
        assert_close(run, other, config["dtype"])

    def test_stream(self, runs, kind, row):
        run = runs.cached(kind, row)
        other = runs(kind, flipped(kind, row, "mode"))
        assert run.patterns == other.patterns
        config = settings(kind, row)
        if config["strategy"] == "original":
            assert run.patterns == [()] * STEPS
            assert_same_bits(run, other)
            return
        assert all(any(pattern is not None for pattern in step)
                   for step in run.patterns)
        if kind == "mlp" or config["loss_head"] == "dense":
            assert_close(run, other, config["dtype"])

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


class TestRateZeroSite:
    """A site at rate 0 is not pooled, so it draws nothing in either mode and
    cannot advance the generator it shares with a live site under
    ``seed=None``: the masked run's losses equal the pooled run's."""

    @pytest.mark.parametrize("seed", [0, None])
    def test_masked_losses_equal_pooled(self, tiny_mnist, seed):
        def run(mode):
            model = MLPClassifier(MLPConfig(
                input_size=tiny_mnist.num_features, hidden_sizes=(160, 192),
                num_classes=tiny_mnist.num_classes, drop_rates=(0.0, 0.5),
                strategy="row", seed=3))
            trainer = ClassifierTrainer(
                model, tiny_mnist,
                ClassifierTrainingConfig(batch_size=BATCH, seed=3),
                runtime=EngineRuntime(ExecutionConfig(mode=mode, seed=seed)))
            losses = [trainer.train_step(
                tiny_mnist.train_images[start:start + BATCH],
                tiny_mnist.train_labels[start:start + BATCH]).hex()
                for start in range(0, STEPS * BATCH, BATCH)]
            assert model.hidden_linears[0].pattern is None
            return losses

        assert run("masked") == run("pooled")
