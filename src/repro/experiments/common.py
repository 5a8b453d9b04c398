"""Shared helpers for the experiment drivers.

The drivers separate two concerns:

* **Speedups** are computed with the analytical GPU timing model at the
  *paper's* network dimensions (2048-unit MLPs, 1500-unit LSTMs, batch 128/20)
  — this is cheap, so it is always done at full scale.
* **Accuracy / perplexity** requires actually training networks, which at the
  paper's scale would take days on a CPU.  The helpers therefore train at a
  configurable *reduced scale* on the synthetic datasets; the comparisons are
  still like-for-like because every dropout variant trains the same reduced
  network on the same data for the same number of updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic_mnist import SyntheticMNIST, make_synthetic_mnist
from repro.data.synthetic_text import SyntheticCorpus, make_synthetic_corpus
from repro.execution import EngineRuntime, ExecutionConfig
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.gpu.training_time import DropoutTimingConfig, LSTMTimingModel, MLPTimingModel
from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
from repro.models.mlp import MLPClassifier, MLPConfig
from repro.training.lm_trainer import LanguageModelTrainer, LanguageModelTrainingConfig
from repro.training.trainer import ClassifierTrainer, ClassifierTrainingConfig


# ----------------------------------------------------------------------
# reduced-scale configuration
# ----------------------------------------------------------------------
@dataclass
class ReducedScale:
    """Knobs controlling how much actual training the accuracy columns use.

    The defaults are sized so that a full table reproduces in tens of seconds
    on a laptop CPU; pass larger values for a closer-to-paper run.
    """

    mlp_hidden: int = 256
    mlp_train_samples: int = 2000
    mlp_test_samples: int = 800
    mlp_epochs: int = 12
    mlp_batch_size: int = 64
    lstm_vocab: int = 300
    lstm_hidden: int = 64
    lstm_train_tokens: int = 8000
    lstm_eval_tokens: int = 1500
    lstm_epochs: int = 2
    lstm_batch_size: int = 10
    lstm_seq_len: int = 20
    seed: int = 0

    @staticmethod
    def smoke() -> "ReducedScale":
        """A very small configuration for unit tests and CI smoke runs."""
        return ReducedScale(
            mlp_hidden=64, mlp_train_samples=512, mlp_test_samples=256, mlp_epochs=2,
            mlp_batch_size=64, lstm_vocab=80, lstm_hidden=24, lstm_train_tokens=1500,
            lstm_eval_tokens=600, lstm_epochs=1, lstm_batch_size=5, lstm_seq_len=10)


_MNIST_CACHE: dict[tuple, SyntheticMNIST] = {}
_CORPUS_CACHE: dict[tuple, SyntheticCorpus] = {}


def mnist_for(scale: ReducedScale) -> SyntheticMNIST:
    """The synthetic digit dataset for a reduced-scale configuration (cached)."""
    key = (scale.mlp_train_samples, scale.mlp_test_samples, scale.seed)
    if key not in _MNIST_CACHE:
        _MNIST_CACHE[key] = make_synthetic_mnist(
            num_train=scale.mlp_train_samples, num_test=scale.mlp_test_samples,
            noise=0.6, prototypes_per_class=8, label_noise=0.1, seed=scale.seed + 1)
    return _MNIST_CACHE[key]


def corpus_for(scale: ReducedScale) -> SyntheticCorpus:
    """The synthetic language-model corpus for a reduced-scale configuration (cached)."""
    key = (scale.lstm_vocab, scale.lstm_train_tokens, scale.lstm_eval_tokens, scale.seed)
    if key not in _CORPUS_CACHE:
        _CORPUS_CACHE[key] = make_synthetic_corpus(
            vocab_size=scale.lstm_vocab, num_train_tokens=scale.lstm_train_tokens,
            num_valid_tokens=scale.lstm_eval_tokens, num_test_tokens=scale.lstm_eval_tokens,
            seed=scale.seed + 1)
    return _CORPUS_CACHE[key]


# ----------------------------------------------------------------------
# paper-scale speedups from the timing model
# ----------------------------------------------------------------------
def mlp_speedup(hidden_sizes: tuple[int, ...], rates: tuple[float, ...], mode: str,
                batch_size: int = 128, input_size: int = 784, num_classes: int = 10,
                device: DeviceSpec = GTX_1080TI) -> float:
    """Modelled "old time / new time" for an MLP at the paper's scale."""
    model = MLPTimingModel([input_size, *hidden_sizes, num_classes], batch_size,
                           device=device)
    baseline = model.iteration(DropoutTimingConfig(mode="baseline", rates=rates))
    accelerated = model.iteration(DropoutTimingConfig(mode=mode, rates=rates))
    return accelerated.speedup_over(baseline)


def lstm_speedup(vocab_size: int, hidden_size: int, num_layers: int,
                 rates: tuple[float, ...], mode: str, batch_size: int = 20,
                 seq_len: int = 35, embed_size: int | None = None,
                 device: DeviceSpec = GTX_1080TI) -> float:
    """Modelled "old time / new time" for an LSTM LM at the paper's scale."""
    model = LSTMTimingModel(vocab_size, embed_size or hidden_size, hidden_size,
                            num_layers, batch_size, seq_len, device=device)
    baseline = model.iteration(DropoutTimingConfig(mode="baseline", rates=rates))
    accelerated = model.iteration(DropoutTimingConfig(mode=mode, rates=rates))
    return accelerated.speedup_over(baseline)


_TIMING_MODE = {"none": "none", "original": "baseline", "ROW": "row", "TILE": "tile"}


def timing_mode_for(strategy_name: str) -> str:
    """Map an experiment strategy label to the timing-model mode string."""
    try:
        return _TIMING_MODE[strategy_name]
    except KeyError as exc:
        raise KeyError(f"unknown strategy label {strategy_name!r}") from exc


# ----------------------------------------------------------------------
# execution runtimes for the drivers
# ----------------------------------------------------------------------
def driver_runtime(execution: ExecutionConfig | None = None) -> EngineRuntime:
    """The :class:`EngineRuntime` a driver shares across its training runs.

    One runtime per driver invocation means the table-level engine record
    aggregates the cache/pool/head counters over every run that built the
    table, and a single ``execution.seed`` fixes all of their pattern streams.
    """
    return EngineRuntime(execution or ExecutionConfig())


# ----------------------------------------------------------------------
# reduced-scale accuracy training
# ----------------------------------------------------------------------
def train_reduced_mlp(strategy: str, rates: tuple[float, ...], scale: ReducedScale,
                      hidden: int | None = None, epochs: int | None = None,
                      seed: int | None = None,
                      runtime: EngineRuntime | None = None,
                      return_result: bool = False):
    """Train the reduced MLP with a given dropout strategy; return test accuracy.

    ``runtime`` selects the execution engine (mode/dtype/pool seed) the run
    uses; ``return_result`` returns the full :class:`TrainingResult` (with its
    ``engine_stats``) instead of just the final metric.
    """
    data = mnist_for(scale)
    hidden = hidden or scale.mlp_hidden
    config = MLPConfig(
        input_size=data.num_features,
        hidden_sizes=(hidden,) * len(rates),
        num_classes=data.num_classes,
        drop_rates=rates,
        strategy=strategy,
        seed=scale.seed if seed is None else seed,
    )
    model = MLPClassifier(config)
    trainer = ClassifierTrainer(model, data, ClassifierTrainingConfig(
        batch_size=scale.mlp_batch_size,
        learning_rate=0.01,
        momentum=0.9,
        epochs=epochs or scale.mlp_epochs,
        seed=scale.seed if seed is None else seed,
    ), runtime=runtime)
    result = trainer.train()
    return result if return_result else result.final_metric


def train_reduced_lstm(strategy: str, rates: tuple[float, ...], scale: ReducedScale,
                       num_layers: int | None = None, epochs: int | None = None,
                       eval_metric: str = "accuracy", seed: int | None = None,
                       return_history: bool = False,
                       runtime: EngineRuntime | None = None):
    """Train the reduced LSTM LM; return the final metric (and optionally the run).

    ``runtime`` selects the execution engine the run uses (see
    :func:`train_reduced_mlp`).
    """
    corpus = corpus_for(scale)
    num_layers = num_layers or len(rates)
    config = LSTMConfig(
        vocab_size=corpus.vocab_size,
        embed_size=scale.lstm_hidden,
        hidden_size=scale.lstm_hidden,
        num_layers=num_layers,
        drop_rates=rates,
        strategy=strategy,
        seed=scale.seed if seed is None else seed,
    )
    model = LSTMLanguageModel(config)
    trainer = LanguageModelTrainer(model, corpus, LanguageModelTrainingConfig(
        batch_size=scale.lstm_batch_size,
        seq_len=scale.lstm_seq_len,
        learning_rate=1.0,
        epochs=epochs or scale.lstm_epochs,
        eval_metric=eval_metric,
        seed=scale.seed if seed is None else seed,
    ), runtime=runtime)
    result = trainer.train()
    if return_history:
        return result
    return result.final_metric
