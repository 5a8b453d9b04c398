"""Quickstart: approximate random dropout in five minutes.

This script walks through the library's core objects:

1. run Algorithm 1 to get a dropout-pattern distribution for a target rate;
2. sample concrete Row-based patterns from it and check the statistical
   equivalence with conventional Bernoulli dropout;
3. build a small MLP with the Row-based Dropout Pattern and train it for a
   couple of epochs on the synthetic digit task, executed through the
   vectorized pattern-pool engine (``ExecutionConfig`` / ``EngineRuntime``);
4. ask the GPU timing model how much faster the same run would have been on
   the paper's GTX 1080Ti compared to conventional dropout.

Run with:  python examples/quickstart.py [--epochs 4]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.data import make_synthetic_mnist
from repro.dropout import PatternDistributionSearch, PatternSampler, equivalence_report
from repro.execution import EngineRuntime, ExecutionConfig
from repro.gpu import DropoutTimingConfig, MLPTimingModel
from repro.models import MLPClassifier, MLPConfig
from repro.training import ClassifierTrainer, ClassifierTrainingConfig


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=0.5, help="target dropout rate")
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--train-samples", type=int, default=1500)
    parser.add_argument("--test-samples", type=int, default=500)
    parser.add_argument("--hidden", type=int, default=256)
    args = parser.parse_args(argv)
    target_rate = args.rate

    # 1. Algorithm 1: a distribution over pattern periods whose expected global
    #    dropout rate equals the target.
    search = PatternDistributionSearch(max_period=8)
    result = search.search(target_rate)
    print(f"[search] target rate {target_rate}: achieved {result.achieved_rate:.3f}, "
          f"entropy {result.entropy:.2f}, effective sub-models "
          f"{result.effective_sub_models():.1f}")

    # 2. Sample patterns and verify statistical equivalence (Eq. 2-3).
    sampler = PatternSampler(target_rate, max_period=8, rng=np.random.default_rng(0))
    report = equivalence_report(sampler, num_units=256, iterations=1000)
    print(f"[equivalence] per-neuron drop rate {report.empirical_unit_rate_mean:.3f} "
          f"(target {target_rate}), equivalent: {report.is_equivalent()}")

    # 3. Train a small MLP with the Row-based Dropout Pattern.  The
    #    ExecutionConfig picks the engine mode (pooled = the full vectorized
    #    engine), hot-path dtype and the pool-wide pattern seed; the
    #    EngineRuntime applies it to the model and the trainer drives the
    #    returned schedule.
    execution = ExecutionConfig(mode="pooled", dtype="float64", seed=0)
    runtime = EngineRuntime(execution)
    data = make_synthetic_mnist(num_train=args.train_samples,
                                num_test=args.test_samples, seed=0)
    model = MLPClassifier(MLPConfig(hidden_sizes=(args.hidden, args.hidden),
                                    drop_rates=(target_rate, target_rate),
                                    strategy="row", seed=0))
    trainer = ClassifierTrainer(model, data, ClassifierTrainingConfig(
        batch_size=64, epochs=args.epochs, learning_rate=0.01), runtime=runtime)
    run = trainer.train()
    stats = run.engine_stats
    print(f"[training] ROW pattern accuracy after {run.iterations} iterations: "
          f"{run.final_metric:.3f}")
    print(f"[engine] {execution.describe()} | pools consumed "
          f"{stats['pools']['consumed']} | backend calls "
          f"{sum(stats['backend_calls'].values())}")

    # 4. Paper-scale speedup estimate from the GPU timing model.
    timing = MLPTimingModel([784, 2048, 2048, 10], batch_size=128)
    baseline = timing.iteration(DropoutTimingConfig("baseline", (0.5, 0.5)))
    row = timing.iteration(DropoutTimingConfig("row", (0.5, 0.5)))
    print(f"[gpu model] 784-2048-2048-10 @ rate 0.5: baseline "
          f"{baseline.iteration_time_ms:.3f} ms/iter, ROW {row.iteration_time_ms:.3f} "
          f"ms/iter -> speedup {row.speedup_over(baseline):.2f}x")


if __name__ == "__main__":
    main()
