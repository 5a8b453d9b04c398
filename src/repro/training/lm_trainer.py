"""Truncated-BPTT training loop for the LSTM language-model workload."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.data.batching import BPTTBatcher
from repro.data.synthetic_text import SyntheticCorpus
from repro.execution import EngineRuntime, ExecutionConfig
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.models.lstm_lm import LSTMLanguageModel
from repro.nn.losses import CrossEntropyLoss
from repro.nn.metrics import perplexity_from_loss
from repro.nn.optim import ExponentialLR
from repro.tensor import no_grad
from repro.tensor import dirty as _dirty
from repro.training.history import TrainingHistory, TrainingResult
from repro.training.trainer import checked_loss


@dataclass
class LanguageModelTrainingConfig:
    """Hyper-parameters of the LSTM run (paper defaults: Section IV-C)."""

    batch_size: int = 20
    seq_len: int = 35
    learning_rate: float = 1.0
    lr_decay: float = 0.8
    lr_flat_epochs: int = 2
    grad_clip: float = 5.0
    epochs: int = 3
    max_iterations: int | None = None
    eval_metric: str = "perplexity"  # or "accuracy" (next-word top-1, Table II)
    seed: int = 0

    def __post_init__(self):
        if self.batch_size <= 0 or self.seq_len <= 0 or self.epochs <= 0:
            raise ValueError("batch_size, seq_len and epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.eval_metric not in ("perplexity", "accuracy"):
            raise ValueError("eval_metric must be 'perplexity' or 'accuracy'")


class LanguageModelTrainer:
    """Trains an :class:`LSTMLanguageModel` with truncated BPTT.

    As with the classifier trainer, the approximate dropout patterns are
    resampled once per iteration (per BPTT window, i.e. per parameter update),
    matching the paper's "one dropout pattern is applied to the whole batch"
    observation, and the modelled GPU time per iteration is recorded so each
    run carries its own speedup estimate.
    """

    def __init__(self, model: LSTMLanguageModel, corpus: SyntheticCorpus,
                 config: LanguageModelTrainingConfig | None = None,
                 device: DeviceSpec = GTX_1080TI,
                 runtime: EngineRuntime | None = None):
        self.model = model
        self.corpus = corpus
        self.config = config or LanguageModelTrainingConfig()
        self.device = device
        self.loss_fn = CrossEntropyLoss()
        # Unified execution shared with the MLP trainer: the runtime selects
        # the engine mode/dtype, reseeds the pattern streams pool-wide and
        # returns the schedule (in either mode, one batched draw per epoch
        # feeds every live pattern site of the model).  Bound before the
        # optimizer so its state buffers match the cast parameter dtype.
        self.runtime = runtime or EngineRuntime(ExecutionConfig(
            seed=self.config.seed))
        self.backend = self.runtime.backend
        self.pattern_schedule = self.runtime.bind(model)
        # Built through the runtime so ExecutionConfig.optimizer selects the
        # dense or the dirty-region sparse update (identical trajectories).
        self.optimizer = self.runtime.make_sgd(
            model.parameters(), lr=self.config.learning_rate,
            grad_clip=self.config.grad_clip)
        self.schedule = ExponentialLR(self.optimizer, gamma=self.config.lr_decay,
                                      flat_epochs=self.config.lr_flat_epochs)
        self.rng = np.random.default_rng(self.config.seed)

        timing_model = model.timing_model(self.config.batch_size, self.config.seq_len,
                                          device=device)
        self.iteration_time_ms = timing_model.iteration(
            model.timing_config()).iteration_time_ms
        self.baseline_iteration_time_ms = timing_model.iteration(
            model.baseline_timing_config()).iteration_time_ms

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train(self) -> TrainingResult:
        """Run the configured number of epochs and return the result record."""
        config = self.config
        batcher = BPTTBatcher(self.corpus.train, config.batch_size, config.seq_len)
        history = TrainingHistory()
        start = time.perf_counter()
        iteration = 0
        last_loss = float("nan")
        for _ in range(config.epochs):
            self.pattern_schedule.plan(len(batcher))
            state = self.model.init_state(config.batch_size)
            for inputs, targets in batcher:
                if config.max_iterations is not None and iteration >= config.max_iterations:
                    break
                last_loss, state = self.train_step(inputs, targets, state)
                iteration += 1
            if config.max_iterations is not None and iteration >= config.max_iterations:
                break
            self.schedule.step()
            self._record(history, iteration, last_loss, start)
        if not history.iterations or history.iterations[-1] != iteration:
            self._record(history, iteration, last_loss, start)

        higher_is_better = config.eval_metric == "accuracy"
        return TrainingResult(
            strategy=self.model.strategy.name,
            final_metric=history.eval_metric[-1],
            best_metric=history.best_metric(higher_is_better=higher_is_better),
            iterations=iteration,
            simulated_time_ms=iteration * self.iteration_time_ms,
            simulated_baseline_time_ms=iteration * self.baseline_iteration_time_ms,
            wall_time_s=time.perf_counter() - start,
            history=history,
            engine_stats=self.runtime.stats(model=self.model),
        )

    def train_step(self, inputs: np.ndarray, targets: np.ndarray,
                   state: list) -> tuple[float, list]:
        """One BPTT window: forward, backward, clip, update. Returns (loss, state).

        The loss is computed through the model's bound loss head
        (:mod:`repro.heads`): the dense head reproduces the classic
        logits-then-cross-entropy path exactly, the sampled head never
        materialises full-vocabulary logits.  Evaluation (:meth:`evaluate`)
        always goes through the exact dense logits.  A non-finite loss raises
        :class:`FloatingPointError` before the backward pass, leaving
        parameters and optimizer state untouched.
        """
        self.optimizer.zero_grad()
        try:
            self.model.train()
            self.pattern_schedule.step()
            loss, new_state = self.model.loss(inputs, targets.reshape(-1), state)
            value = checked_loss(loss, self.optimizer)
            loss.backward()
            new_state = self.model.detach_state(new_state)
        except BaseException:
            # SparseSGD.zero_grad activated the tracker; its step, which
            # would deactivate it, never runs.
            _dirty.deactivate(self.runtime.dirty_tracker)
            raise
        self.optimizer.step()
        return value, new_state

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, split: str = "test") -> float:
        """Evaluate perplexity (default) or next-word accuracy on a split."""
        stream = getattr(self.corpus, split)
        config = self.config
        batcher = BPTTBatcher(stream, config.batch_size, config.seq_len)
        self.model.eval()
        total_loss = 0.0
        total_correct = 0.0
        total_tokens = 0
        state = self.model.init_state(config.batch_size)
        with no_grad():
            for inputs, targets in batcher:
                logits, state = self.model(inputs, state)
                state = self.model.detach_state(state)
                flat_targets = targets.reshape(-1)
                loss = self.loss_fn(logits, flat_targets)
                tokens = flat_targets.shape[0]
                total_loss += float(loss.data) * tokens
                predictions = logits.data.argmax(axis=1)
                total_correct += float(np.sum(predictions == flat_targets))
                total_tokens += tokens
        self.model.train()
        if total_tokens == 0:
            raise ValueError(f"split {split!r} produced no evaluation batches")
        mean_loss = total_loss / total_tokens
        if config.eval_metric == "accuracy":
            return total_correct / total_tokens
        return perplexity_from_loss(mean_loss)

    def _record(self, history: TrainingHistory, iteration: int, loss: float,
                start_time: float) -> None:
        history.record(
            iteration=iteration,
            train_loss=loss,
            eval_metric=self.evaluate("valid"),
            simulated_time_ms=iteration * self.iteration_time_ms,
            wall_time_s=time.perf_counter() - start_time,
        )
