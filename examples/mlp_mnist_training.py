"""Section IV-A style experiment: one MLP, three dropout implementations.

Trains the same 2-hidden-layer MLP on the synthetic digit task with
conventional dropout, the Row-based pattern and the Tile-based pattern, then
prints an accuracy/speedup comparison like the paper's Fig. 4 discussion.

Every run is built through the unified execution stack: one
``ExecutionConfig`` (engine mode, dtype, backend, pool-wide pattern seed)
shared by an ``EngineRuntime`` across the three training runs, exactly how
the experiment drivers in ``repro.experiments`` construct theirs.

Run with:  python examples/mlp_mnist_training.py [--rate 0.5] [--epochs 8]
           [--mode pooled] [--backend stacked] [--dtype float32]
"""

from __future__ import annotations

import argparse

from repro.backends import available_backends
from repro.data import make_synthetic_mnist
from repro.execution import EXECUTION_MODES, EngineRuntime, ExecutionConfig
from repro.models import MLPClassifier, MLPConfig
from repro.training import ClassifierTrainer, ClassifierTrainingConfig


def train_one(strategy: str, rate: float, data, epochs: int, hidden: int,
              runtime: EngineRuntime) -> dict:
    model = MLPClassifier(MLPConfig(hidden_sizes=(hidden, hidden),
                                    drop_rates=(rate, rate), strategy=strategy, seed=0))
    trainer = ClassifierTrainer(model, data, ClassifierTrainingConfig(
        batch_size=64, epochs=epochs, learning_rate=0.01, momentum=0.9),
        runtime=runtime)
    result = trainer.train()
    return {
        "strategy": result.strategy,
        "accuracy": result.final_metric,
        "modelled_time_ms": result.simulated_time_ms,
        "speedup": result.speedup,
        "wall_s": result.wall_time_s,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=0.5, help="dropout rate per hidden layer")
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--hidden", type=int, default=256)
    parser.add_argument("--train-samples", type=int, default=2000)
    parser.add_argument("--test-samples", type=int, default=800)
    parser.add_argument("--mode", default="pooled", choices=list(EXECUTION_MODES),
                        help="engine execution mode of the pattern runs")
    parser.add_argument("--dtype", default="float64", choices=["float64", "float32"])
    parser.add_argument("--backend", default="numpy",
                        choices=list(available_backends()),
                        help="execution backend of the compact engine")
    args = parser.parse_args(argv)

    execution = ExecutionConfig(mode=args.mode, dtype=args.dtype,
                                backend=args.backend, seed=0)
    runtime = EngineRuntime(execution)
    data = make_synthetic_mnist(num_train=args.train_samples,
                                num_test=args.test_samples, seed=1)
    print(f"Training 784-{args.hidden}-{args.hidden}-10 MLP, dropout rate {args.rate}, "
          f"{args.epochs} epochs ({execution.describe()})\n")
    rows = [train_one(strategy, args.rate, data, args.epochs, args.hidden, runtime)
            for strategy in ("original", "row", "tile")]

    header = f"{'strategy':10s} {'accuracy':>9s} {'modelled ms':>12s} {'speedup':>8s} {'wall s':>7s}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['strategy']:10s} {row['accuracy']:9.3f} {row['modelled_time_ms']:12.1f} "
              f"{row['speedup']:8.2f} {row['wall_s']:7.1f}")
    baseline = rows[0]
    print(f"\nAccuracy change vs conventional dropout: "
          f"ROW {rows[1]['accuracy'] - baseline['accuracy']:+.3f}, "
          f"TILE {rows[2]['accuracy'] - baseline['accuracy']:+.3f}")
    stats = runtime.stats()
    print(f"Engine: plan-cache hits {stats['tile_plan_cache']['hits']}, "
          f"pool draws consumed {stats['pools']['consumed']}, "
          f"backend calls {sum(stats['backend_calls'].values())} "
          f"({stats['backend']})")


if __name__ == "__main__":
    main()
