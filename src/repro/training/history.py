"""Training history records shared by both trainers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TrainingHistory:
    """Per-evaluation-point curves recorded during a training run.

    ``simulated_time_ms`` is the cumulative *modelled* GPU time (from
    :mod:`repro.gpu`) at each evaluation point; it is the x-axis of the
    accuracy-vs-time convergence plot the paper shows in Fig. 5.
    """

    iterations: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    eval_metric: list[float] = field(default_factory=list)
    simulated_time_ms: list[float] = field(default_factory=list)
    wall_time_s: list[float] = field(default_factory=list)

    def record(self, iteration: int, train_loss: float, eval_metric: float,
               simulated_time_ms: float, wall_time_s: float) -> None:
        self.iterations.append(int(iteration))
        self.train_loss.append(float(train_loss))
        self.eval_metric.append(float(eval_metric))
        self.simulated_time_ms.append(float(simulated_time_ms))
        self.wall_time_s.append(float(wall_time_s))

    def __len__(self) -> int:
        return len(self.iterations)

    def best_metric(self, higher_is_better: bool = True) -> float:
        if not self.eval_metric:
            raise ValueError("history is empty")
        return max(self.eval_metric) if higher_is_better else min(self.eval_metric)

    def as_arrays(self) -> dict[str, np.ndarray]:
        """All curves as numpy arrays (for plotting / analysis)."""
        return {
            "iterations": np.asarray(self.iterations),
            "train_loss": np.asarray(self.train_loss),
            "eval_metric": np.asarray(self.eval_metric),
            "simulated_time_ms": np.asarray(self.simulated_time_ms),
            "wall_time_s": np.asarray(self.wall_time_s),
        }


@dataclass
class TrainingResult:
    """Outcome of one training run.

    Attributes
    ----------
    strategy:
        Dropout strategy name ("original", "ROW", "TILE", "none").
    final_metric:
        Final evaluation metric (classification accuracy in [0, 1], or
        perplexity for language models).
    best_metric:
        Best evaluation metric seen during training.
    iterations:
        Total optimisation steps performed.
    simulated_time_ms:
        Total modelled GPU time for the run (iterations x modelled time per
        iteration under this strategy).
    simulated_baseline_time_ms:
        Modelled GPU time the *same* number of iterations would have taken
        under conventional dropout — the "old time" of the paper's speedup.
    wall_time_s:
        Actual CPU wall-clock spent in this process (informational).
    history:
        The full learning curves.
    engine_stats:
        Execution-engine counters (mode/dtype/seed, tile-plan cache hits and
        misses, pool refill/consumption, loss-head counters) captured from the
        :class:`repro.execution.EngineRuntime` that drove the run.
    """

    strategy: str
    final_metric: float
    best_metric: float
    iterations: int
    simulated_time_ms: float
    simulated_baseline_time_ms: float
    wall_time_s: float
    history: TrainingHistory
    engine_stats: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Modelled "old time / new time" speedup of this run."""
        if self.simulated_time_ms <= 0:
            return float("nan")
        return self.simulated_baseline_time_ms / self.simulated_time_ms

    @property
    def time_saved_fraction(self) -> float:
        if self.simulated_baseline_time_ms <= 0:
            return 0.0
        return 1.0 - self.simulated_time_ms / self.simulated_baseline_time_ms
