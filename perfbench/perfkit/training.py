"""The ``mlp_train`` and ``lstm_train`` workloads.

Both drive a trainer of the repository through its public API
(``train_step`` over the data iterators, then ``evaluate``), with blocks of
the approximate-dropout engine interleaved with blocks of the same model
trained with conventional dropout, so the paper's headline ratio — the
conventional step over the engine step — comes from one run on one machine.

``mlp_train``: 784-1024-1024-10 MLP, row dropout (RDP) at rate 0.7, pooled
engine, sparse SGD with momentum 0.9, batch 128, float64, numpy backend, on
seeded synthetic MNIST.  ``lstm_train``: 2-layer LSTM language model, vocab
10000, embed = hidden = 256, seq_len 35, batch 20, RDP at rate 0.3 on the
non-recurrent paths, tiled recurrent projection, adaptive softmax head and
sparse SGD, on the seeded Zipf+Markov corpus with state carried across BPTT
windows.  The conventional blocks train the ``original`` strategy in
``masked`` mode with the dense head and the dense optimizer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfkit import stats
from perfkit.metrics import BACKEND_OPS
from perfkit.spans import Tracer, child_coverage, self_times


@dataclass(frozen=True)
class Plan:
    """How one training workload is measured."""

    engine_block: int      # engine steps per block
    conv_block: int        # conventional-dropout steps per block
    warmup: int            # untimed engine steps inside set-up
    min_engine: int        # timed engine steps a run needs at least
    min_conv: int          # timed conventional steps a run needs at least
    quality_step: int      # engine step count at which quality is evaluated
    tail_q: float          # tail percentile of the step time
    min_beyond: int = 10   # samples required beyond the tail percentile
    setup_reps: int = 3    # set-ups per run; setup_s is their median
    trace_min: int = 10    # traced steps at least
    trace_max: int = 400   # traced steps at most


SHAPES = {
    ("mlp", "full"): dict(hidden=1024, rate=0.7, batch=128, num_train=4096,
                          num_test=4000),
    ("mlp", "tiny"): dict(hidden=64, rate=0.7, batch=32, num_train=256,
                          num_test=64),
    ("lstm", "full"): dict(vocab=10000, hidden=256, layers=2, seq_len=35,
                           batch=20, rate=0.3, train_tokens=60000,
                           valid_tokens=3500),
    ("lstm", "tiny"): dict(vocab=300, hidden=32, layers=2, seq_len=8, batch=4,
                           rate=0.3, train_tokens=4000, valid_tokens=400),
}

PLANS = {
    ("mlp", "full"): Plan(engine_block=6, conv_block=3, warmup=3,
                          min_engine=300, min_conv=20, quality_step=300,
                          tail_q=90),
    ("lstm", "full"): Plan(engine_block=5, conv_block=1, warmup=2,
                           min_engine=40, min_conv=8, quality_step=40,
                           tail_q=75),
    ("mlp", "tiny"): Plan(engine_block=4, conv_block=2, warmup=1, min_engine=300,
                          min_conv=4, quality_step=300, tail_q=90, min_beyond=0,
                          setup_reps=2, trace_min=4, trace_max=8),
    ("lstm", "tiny"): Plan(engine_block=4, conv_block=2, warmup=1, min_engine=8,
                           min_conv=4, quality_step=8, tail_q=75, min_beyond=0,
                           setup_reps=2, trace_min=4, trace_max=8),
}

WORKLOAD_KIND = {"mlp_train": "mlp", "lstm_train": "lstm"}


class StepFailed(RuntimeError):
    """A training step raised or returned a non-finite loss; fails the run."""


def make_data(kind: str, size: str, seed: int):
    """The workload's inputs, generated from the seed (outside every timer)."""
    shape = SHAPES[kind, size]
    if kind == "mlp":
        from repro.data.synthetic_mnist import make_synthetic_mnist
        return make_synthetic_mnist(num_train=shape["num_train"],
                                    num_test=shape["num_test"], seed=seed)
    from repro.data.synthetic_text import make_synthetic_corpus
    return make_synthetic_corpus(vocab_size=shape["vocab"],
                                 num_train_tokens=shape["train_tokens"],
                                 num_valid_tokens=shape["valid_tokens"],
                                 num_test_tokens=shape["seq_len"] * shape["batch"] + 1,
                                 seed=seed)


class Learner:
    """One trainer and its batch stream, stepped through the public API."""

    def __init__(self, kind: str, size: str, seed: int, engine: bool, data):
        from repro.execution import EngineRuntime, ExecutionConfig

        shape = SHAPES[kind, size]
        self.kind = kind
        strategy = "row" if engine else "original"
        if kind == "mlp":
            from repro.data.batching import BatchIterator
            from repro.models.mlp import MLPClassifier, MLPConfig
            from repro.training.trainer import ClassifierTrainer, ClassifierTrainingConfig

            config = (ExecutionConfig(mode="pooled", optimizer="sparse", seed=seed)
                      if engine else ExecutionConfig(mode="masked", seed=seed))
            self.model = MLPClassifier(MLPConfig(
                input_size=data.num_features,
                hidden_sizes=(shape["hidden"], shape["hidden"]),
                num_classes=data.num_classes,
                drop_rates=(shape["rate"], shape["rate"]),
                strategy=strategy, seed=seed))
            self.trainer = ClassifierTrainer(
                self.model, data,
                ClassifierTrainingConfig(batch_size=shape["batch"],
                                         learning_rate=0.01, momentum=0.9,
                                         seed=seed),
                runtime=EngineRuntime(config))
            self.batches = BatchIterator(data.train_images, data.train_labels,
                                         shape["batch"],
                                         rng=np.random.default_rng(seed))
            self.items_per_step = shape["batch"]
        else:
            from repro.data.batching import BPTTBatcher
            from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
            from repro.training.lm_trainer import (LanguageModelTrainer,
                                                   LanguageModelTrainingConfig)

            config = (ExecutionConfig(mode="pooled", recurrent="tiled",
                                      loss_head="adaptive", optimizer="sparse",
                                      seed=seed)
                      if engine else ExecutionConfig(mode="masked", seed=seed))
            self.model = LSTMLanguageModel(LSTMConfig(
                vocab_size=shape["vocab"], embed_size=shape["hidden"],
                hidden_size=shape["hidden"], num_layers=shape["layers"],
                drop_rates=(shape["rate"],) * shape["layers"],
                strategy=strategy, seed=seed))
            self.trainer = LanguageModelTrainer(
                self.model, data,
                LanguageModelTrainingConfig(batch_size=shape["batch"],
                                            seq_len=shape["seq_len"], seed=seed),
                runtime=EngineRuntime(config))
            self.batches = BPTTBatcher(data.train, shape["batch"], shape["seq_len"])
            self.items_per_step = shape["batch"] * shape["seq_len"]
        self.batch_size = shape["batch"]
        self.runtime = self.trainer.runtime
        self.state = None
        self._iter = None
        self.losses: list[float] = []

    @property
    def steps(self) -> int:
        return len(self.losses)

    def next_batch(self):
        batch = next(self._iter, None) if self._iter is not None else None
        if batch is None:
            # A new epoch, begun the way the trainers' own train() loops do.
            self.trainer.pattern_schedule.plan(len(self.batches))
            if self.kind == "lstm":
                self.state = self.model.init_state(self.batch_size)
            self._iter = iter(self.batches)
            batch = next(self._iter)
        return batch

    def train_step(self, batch) -> float:
        try:
            if self.kind == "mlp":
                loss = self.trainer.train_step(*batch)
            else:
                loss, self.state = self.trainer.train_step(*batch, self.state)
        except Exception as error:  # noqa: BLE001 - any raise fails the step
            raise StepFailed(f"step {self.steps + 1} raised {error!r}") from error
        self.losses.append(loss)
        if not math.isfinite(loss):
            raise StepFailed(f"step {self.steps} gave loss {loss}")
        return loss

    def evaluate(self) -> tuple[dict[str, float], bool]:
        """Quality figures, and whether the model beat a floor far below them.

        The floors (test accuracy at least 0.5 against a chance of 0.1;
        validation perplexity under the vocabulary size, the uniform guess)
        catch a step that stopped training the model.
        """
        if self.kind == "lstm":
            perplexity = self.trainer.evaluate("valid")
            return ({"valid_perplexity": perplexity},
                    perplexity < self.model.config.vocab_size)
        accuracy = self.trainer.evaluate()
        return {"test_accuracy": accuracy}, accuracy >= 0.5


def setup_engine(kind: str, size: str, seed: int, data,
                 plan: Plan) -> tuple[Learner, float]:
    """Build, bind and warm the engine learner; returns it and the seconds taken.

    The pattern caches are cleared first, so every set-up interns its own
    patterns (the tile-plan caches have no public reset and stay warm).
    """
    from repro.dropout.patterns import clear_pattern_caches

    clear_pattern_caches()
    start = time.perf_counter()
    learner = Learner(kind, size, seed, True, data)
    for _ in range(plan.warmup):
        learner.train_step(learner.next_batch())
    return learner, time.perf_counter() - start


def _timed_step(learner: Learner) -> tuple[float, float]:
    """(data seconds, step seconds) of one step."""
    t0 = time.perf_counter()
    batch = learner.next_batch()
    t1 = time.perf_counter()
    learner.train_step(batch)
    return t1 - t0, time.perf_counter() - t1


def run(workload: str, seed: int, seconds: float, size: str = "full") -> dict:
    """The untraced run: end-to-end metrics."""
    kind = WORKLOAD_KIND[workload]
    plan = PLANS[kind, size]
    data = make_data(kind, size, seed)

    setups = []
    for _ in range(plan.setup_reps):
        engine, elapsed = setup_engine(kind, size, seed, data, plan)
        setups.append(elapsed)
    conv = Learner(kind, size, seed, False, data)
    for _ in range(plan.warmup):
        conv.train_step(conv.next_batch())

    engine_data: list[float] = []
    engine_times: list[float] = []
    conv_times: list[float] = []
    # Conventional over engine median step of each engine+conventional block
    # pair: host speed drifts on a seconds scale, and a pair sees one speed.
    cycle_ratios: list[float] = []
    quality = None
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(plan.engine_block):
            data_s, step_s = _timed_step(engine)
            engine_data.append(data_s)
            engine_times.append(step_s)
            if engine.steps == plan.quality_step:
                quality, learned = engine.evaluate()
        for _ in range(plan.conv_block):
            conv_times.append(_timed_step(conv)[1])
        cycle_ratios.append(stats.median(conv_times[-plan.conv_block:])
                            / stats.median(engine_times[-plan.engine_block:]))
        if (time.perf_counter() >= deadline and quality is not None
                and len(engine_times) >= plan.min_engine
                and len(conv_times) >= plan.min_conv):
            break
    items_per_s = engine.items_per_step * len(engine_times) / (
        sum(engine_times) + sum(engine_data))
    p50_ms = 1000.0 * stats.median(engine_times)
    tail_ms = 1000.0 * stats.percentile(engine_times, plan.tail_q, plan.min_beyond)
    conv_p50_ms = 1000.0 * stats.median(conv_times)
    speedup = stats.median(cycle_ratios)
    metrics = {
        "setup_s": stats.median(setups),
        "throughput_per_s": items_per_s,
        "p50_ms": p50_ms,
        "tail_ms": tail_ms,
        "speedup_x": speedup,
    }
    details = {
        "train_items_per_s": items_per_s,
        "step_ms_p50": p50_ms,
        f"step_ms_p{plan.tail_q:g}": tail_ms,
        "dropout_speedup": speedup,
        "conventional_step_ms_p50": conv_p50_ms,
        **quality,
        "quality_step": plan.quality_step,
        "engine_steps_timed": len(engine_times),
        "conventional_steps_timed": len(conv_times),
        "setup_s_each": setups,
    }
    return {"attempted": engine.steps + conv.steps + 1, "failed": int(not learned),
            "checks": {"model_learned": learned}, "metrics": metrics,
            "details": details}


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

def _plan_cache() -> tuple[int, int]:
    from repro.dropout.engine import recurrent_plan_cache_info, tile_plan_cache_info

    tile, recurrent = tile_plan_cache_info(), recurrent_plan_cache_info()
    return tile.hits + recurrent.hits, tile.misses + recurrent.misses


def _counters(learner: Learner) -> dict[str, float]:
    engine_stats = learner.runtime.stats(model=learner.model)
    return {
        "refills": engine_stats["pools"]["refills"],
        "ws_hits": engine_stats["workspace"]["hits"],
        "ws_misses": engine_stats["workspace"]["misses"],
        "head_draws": engine_stats["loss_head"]["draws"],
        "head_kept": engine_stats["loss_head"]["kept_classes"],
        "dirty_fraction": engine_stats["optimizer"]["dirty_fraction"],
    }


def _gemm_flop(a, b, *args, **kwargs) -> dict:
    return {"flop": 2 * int(np.prod(a.shape)) * int(b.shape[-1])}


def _keep_fraction(patterns, span) -> None:
    if patterns:
        span.args["keep_fraction"] = float(np.mean(
            [pattern.keep_fraction for pattern in patterns.values()]))


def instrument(tracer: Tracer, learner: Learner) -> None:
    """Wrap the public calls into each layer of one engine learner."""
    from repro.tensor import Tensor

    trainer, model = learner.trainer, learner.model
    tracer.patch(Tensor, "backward", "tensor.backward")
    tracer.patch(trainer.optimizer, "step", "optim.step")
    tracer.patch(trainer.optimizer, "zero_grad", "optim.zero_grad")
    tracer.patch(trainer.pattern_schedule, "step", "dropout.resample",
                 result_fn=_keep_fraction)
    for op in BACKEND_OPS:
        if hasattr(trainer.backend, op):
            tracer.patch(trainer.backend, op, f"backend.{op}",
                         args_fn=_gemm_flop if op == "gemm" else None)
    if learner.kind == "mlp":
        tracer.patch(model, "forward", "model.forward")
        tracer.patch(trainer.loss_fn, "forward", "nn.loss")
    else:
        tracer.patch(model, "loss", "model.forward")
        tracer.patch(model.embedding, "forward", "nn.embedding")
        tracer.patch(model.lstm, "forward", "nn.lstm")
        tracer.patch(model.loss_head, "loss", "heads.loss")


def trace(workload: str, seed: int, seconds: float, out_dir: Path,
          size: str = "full") -> dict:
    """The traced run: per-layer metrics, tracing overhead, bit-identity check.

    Phase A trains untraced for about 45% of the time budget; phase B sets
    up again at the same seed with every layer wrapped and trains exactly as
    many steps.  The two loss trajectories must be bit-identical.
    """
    from repro.dropout.search import PatternDistributionSearch
    from repro.execution import EngineRuntime

    kind = WORKLOAD_KIND[workload]
    plan = PLANS[kind, size]
    data = make_data(kind, size, seed)

    plan_before = _plan_cache()
    reference, _ = setup_engine(kind, size, seed, data, plan)
    untraced: list[float] = []
    deadline = time.perf_counter() + 0.45 * seconds
    while ((time.perf_counter() < deadline or len(untraced) < plan.trace_min)
           and len(untraced) < plan.trace_max):
        untraced.append(sum(_timed_step(reference)))
    plan_hits, plan_misses = (a - b for a, b in zip(_plan_cache(), plan_before))
    steps = len(untraced)

    tracer = Tracer()
    tracer.patch(PatternDistributionSearch, "search", "dropout.search")
    tracer.patch(EngineRuntime, "bind", "execution.bind")
    try:
        learner, _ = setup_engine(kind, size, seed, data, plan)
    finally:
        tracer.restore()
    before = _counters(learner)
    traced: list[float] = []
    instrument(tracer, learner)
    try:
        for step in range(steps):
            start = time.perf_counter()
            with tracer.span("data.next_batch", step=step):
                batch = learner.next_batch()
            with tracer.span("step", step=step):
                learner.train_step(batch)
            traced.append(time.perf_counter() - start)
    finally:
        tracer.restore()
    after = _counters(learner)
    identical = reference.losses == learner.losses

    per_step = 1.0 / steps
    spans = tracer.spans
    selfs = self_times(spans)
    metrics = {
        "data.next_batch_ms": tracer.total_ms("data.next_batch") * per_step,
        "dropout.resample_ms": tracer.total_ms("dropout.resample") * per_step,
        "dropout.pool_refills": (after["refills"] - before["refills"]) * per_step,
        "dropout.keep_fraction": float(np.mean(
            [s.args["keep_fraction"] for s in tracer.named("dropout.resample")
             if "keep_fraction" in s.args] or [0.0])),
        "dropout.workspace_hit_rate": _rate(after["ws_hits"] - before["ws_hits"],
                                            after["ws_misses"] - before["ws_misses"]),
        "dropout.plan_cache_hit_rate": _rate(plan_hits, plan_misses),
        "dropout.search_ms": tracer.total_ms("dropout.search"),
        "backend.gemm.gflop": sum(s.args.get("flop", 0)
                                  for s in tracer.named("backend.gemm")) * 1e-9 * per_step,
        "model.forward_ms": tracer.total_ms("model.forward") * per_step,
        "nn.embedding.fwd_ms": tracer.total_ms("nn.embedding") * per_step,
        "nn.lstm.fwd_ms": tracer.total_ms("nn.lstm") * per_step,
        "heads.loss.fwd_ms": tracer.total_ms("heads.loss") * per_step,
        "heads.kept_fraction": _kept_fraction(learner, before, after),
        "tensor.backward_ms": tracer.total_ms("tensor.backward") * per_step,
        "tensor.backward_self_ms": 1000.0 * per_step * sum(
            t for s, t in zip(spans, selfs) if s.name == "tensor.backward"),
        "optim.step_ms": tracer.total_ms("optim.step") * per_step,
        "optim.zero_grad_ms": tracer.total_ms("optim.zero_grad") * per_step,
        "optim.dirty_fraction": after["dirty_fraction"],
        "execution.bind_ms": tracer.total_ms("execution.bind"),
        "trace.slowdown": sum(traced) / sum(untraced),
        "trace.step_coverage": child_coverage(spans, "step"),
    }
    for op in BACKEND_OPS:
        metrics[f"backend.{op}.ms"] = tracer.total_ms(f"backend.{op}") * per_step
        metrics[f"backend.{op}.calls"] = len(tracer.named(f"backend.{op}")) * per_step
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{workload}-seed{seed}.trace.json"
    tracer.write_chrome_trace(trace_path)
    return {"attempted": reference.steps + learner.steps + 1,
            "failed": int(not identical),
            "checks": {"traced_losses_bit_identical": identical},
            "metrics": metrics,
            "details": {"traced_steps": steps, "spans": len(spans),
                        "plan_cache_hits": plan_hits,
                        "plan_cache_misses": plan_misses,
                        "chrome_trace": str(trace_path)}}


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _kept_fraction(learner: Learner, before: dict, after: dict) -> float:
    draws = after["head_draws"] - before["head_draws"]
    if not draws:
        return 0.0
    vocab = learner.model.config.vocab_size
    return (after["head_kept"] - before["head_kept"]) / (draws * vocab)
