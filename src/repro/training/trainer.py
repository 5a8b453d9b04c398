"""SGD training loop for the MLP classification workload."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.data.batching import BatchIterator
from repro.data.synthetic_mnist import SyntheticMNIST
from repro.execution import EngineRuntime, ExecutionConfig
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.models.mlp import MLPClassifier
from repro.nn.losses import CrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.optim import Optimizer
from repro.tensor import Tensor, no_grad
from repro.tensor import dirty as _dirty
from repro.training.history import TrainingHistory, TrainingResult


def checked_loss(loss: Tensor, optimizer: Optimizer) -> float:
    """The loss value; raises :class:`FloatingPointError` if it is not finite.

    Both trainers call this between the forward and the backward pass, so a
    NaN/Inf loss stops the run before it reaches the parameters.  The error
    names the step that would have run (``optimizer.step_count + 1``).
    """
    value = float(loss.data)
    if not math.isfinite(value):
        raise FloatingPointError(
            f"non-finite loss {value} at step {optimizer.step_count + 1}")
    return value


@dataclass
class ClassifierTrainingConfig:
    """Hyper-parameters of the MLP training run (paper defaults: Section IV-A)."""

    batch_size: int = 128
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 5
    eval_every: int = 0  # 0 = evaluate once per epoch
    max_iterations: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


class ClassifierTrainer:
    """Trains an :class:`MLPClassifier` and records accuracy + modelled GPU time.

    The trainer resamples the model's dropout patterns at the top of every
    iteration (the approximate-dropout lifecycle), trains with SGD + momentum,
    and integrates the :mod:`repro.gpu` timing model so each run knows both
    how well it learned and how long the paper's GPU would have taken.

    Execution (engine mode, dtype, optimizer, pool-wide seed) is governed by
    an :class:`~repro.execution.EngineRuntime`; by default the trainer builds
    a pooled runtime seeded from its own training seed, so the full
    vectorized pattern-pool engine drives every run.  Pass an explicit
    ``runtime`` to select the dense-masked baseline (``mode="masked"``) or a
    float32 hot path; the runtime's backend instance is exposed as
    ``trainer.backend`` and its per-op call counts land in the run's
    ``engine_stats``.
    """

    def __init__(self, model: MLPClassifier, dataset: SyntheticMNIST,
                 config: ClassifierTrainingConfig | None = None,
                 device: DeviceSpec = GTX_1080TI,
                 runtime: EngineRuntime | None = None):
        self.model = model
        self.dataset = dataset
        self.config = config or ClassifierTrainingConfig()
        self.device = device
        self.loss_fn = CrossEntropyLoss()
        # Unified execution: the runtime configures every pattern site for its
        # engine mode/dtype and hands back the schedule that installs one
        # pattern per site and iteration (in either mode, from one batched
        # numpy draw per site per epoch).  Bound before the optimizer so
        # momentum buffers match the cast parameter dtype.
        self.runtime = runtime or EngineRuntime(ExecutionConfig(
            seed=self.config.seed))
        self.backend = self.runtime.backend
        self.pattern_schedule = self.runtime.bind(model)
        # Built through the runtime so ExecutionConfig.optimizer selects the
        # dense or the dirty-region sparse update (identical trajectories).
        self.optimizer = self.runtime.make_sgd(
            model.parameters(), lr=self.config.learning_rate,
            momentum=self.config.momentum)
        self.rng = np.random.default_rng(self.config.seed)

        timing_model = model.timing_model(self.config.batch_size, device=device)
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
        iterator = BatchIterator(self.dataset.train_images, self.dataset.train_labels,
                                 config.batch_size, rng=self.rng)
        history = TrainingHistory()
        start = time.perf_counter()
        iteration = 0
        last_loss = float("nan")
        for _ in range(config.epochs):
            self.pattern_schedule.plan(len(iterator))
            for images, labels in iterator:
                if config.max_iterations is not None and iteration >= config.max_iterations:
                    break
                last_loss = self.train_step(images, labels)
                iteration += 1
                if config.eval_every and iteration % config.eval_every == 0:
                    self._record(history, iteration, last_loss, start)
            if config.max_iterations is not None and iteration >= config.max_iterations:
                break
            if not config.eval_every:
                self._record(history, iteration, last_loss, start)
        if not history.iterations or history.iterations[-1] != iteration:
            self._record(history, iteration, last_loss, start)

        final_accuracy = history.eval_metric[-1]
        return TrainingResult(
            strategy=self.model.strategy.name,
            final_metric=final_accuracy,
            best_metric=history.best_metric(higher_is_better=True),
            iterations=iteration,
            simulated_time_ms=iteration * self.iteration_time_ms,
            simulated_baseline_time_ms=iteration * self.baseline_iteration_time_ms,
            wall_time_s=time.perf_counter() - start,
            history=history,
            engine_stats=self.runtime.stats(model=self.model),
        )

    def train_step(self, images: np.ndarray, labels: np.ndarray) -> float:
        """One SGD step (resample, forward, backward, update); returns the batch loss.

        A non-finite loss raises :class:`FloatingPointError` before the
        backward pass, leaving parameters and optimizer state untouched.
        """
        self.optimizer.zero_grad()
        try:
            self.model.train()
            self.pattern_schedule.step()
            logits = self.model(Tensor(images, dtype=self.runtime.np_dtype))
            loss = self.loss_fn(logits, labels)
            value = checked_loss(loss, self.optimizer)
            loss.backward()
        except BaseException:
            # SparseSGD.zero_grad activated the tracker; its step, which
            # would deactivate it, never runs.
            _dirty.deactivate(self.runtime.dirty_tracker)
            raise
        self.optimizer.step()
        return value

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, images: np.ndarray | None = None,
                 labels: np.ndarray | None = None,
                 batch_size: int = 512) -> float:
        """Top-1 accuracy on the given (or the test) split, in [0, 1]."""
        images = self.dataset.test_images if images is None else images
        labels = self.dataset.test_labels if labels is None else labels
        self.model.eval()
        correct = 0
        total = 0
        with no_grad():
            for start in range(0, len(images), batch_size):
                stop = start + batch_size
                logits = self.model(Tensor(images[start:stop], dtype=self.runtime.np_dtype))
                correct += accuracy(logits, labels[start:stop]) * (min(stop, len(images)) - start)
                total += min(stop, len(images)) - start
        self.model.train()
        return correct / total if total else 0.0

    def _record(self, history: TrainingHistory, iteration: int, loss: float,
                start_time: float) -> None:
        history.record(
            iteration=iteration,
            train_loss=loss,
            eval_metric=self.evaluate(),
            simulated_time_ms=iteration * self.iteration_time_ms,
            wall_time_s=time.perf_counter() - start_time,
        )
