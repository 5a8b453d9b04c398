"""Section IV-C style experiment: word-level LSTM with approximate dropout.

Trains a 2-layer LSTM language model on the synthetic Zipfian corpus with
conventional dropout and with the Row-based pattern, reporting perplexity,
next-word accuracy and the modelled speedup at the paper's LSTM dimensions.

Both runs are built through the unified execution stack (``ExecutionConfig``
/ ``EngineRuntime``), which also accelerates the LSTM's vocabulary
projection: under the pooled mode the projection GEMM skips the columns
the output dropout's row pattern zeroed.

Run with:  python examples/lstm_language_model.py [--rate 0.5] [--epochs 2]
           [--mode pooled] [--backend stacked] [--recurrent tiled]
"""

from __future__ import annotations

import argparse

from repro.backends import available_backends
from repro.data import make_synthetic_corpus
from repro.execution import (
    EXECUTION_MODES,
    RECURRENT_MODES,
    EngineRuntime,
    ExecutionConfig,
)
from repro.experiments.common import lstm_speedup
from repro.models import LSTMConfig, LSTMLanguageModel
from repro.training import LanguageModelTrainer, LanguageModelTrainingConfig


def train_one(strategy: str, rate: float, corpus, epochs: int, hidden: int,
              runtime: EngineRuntime) -> dict:
    model = LSTMLanguageModel(LSTMConfig(
        vocab_size=corpus.vocab_size, embed_size=hidden, hidden_size=hidden,
        num_layers=2, drop_rates=(rate, rate), strategy=strategy, seed=0))
    trainer = LanguageModelTrainer(model, corpus, LanguageModelTrainingConfig(
        batch_size=10, seq_len=20, epochs=epochs, learning_rate=1.0,
        eval_metric="perplexity"), runtime=runtime)
    result = trainer.train()
    trainer.config.eval_metric = "accuracy"
    accuracy = trainer.evaluate("test")
    return {"strategy": result.strategy, "perplexity": result.final_metric,
            "accuracy": accuracy, "wall_s": result.wall_time_s}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=0.5)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--vocab", type=int, default=400)
    parser.add_argument("--train-tokens", type=int, default=12000)
    parser.add_argument("--eval-tokens", type=int, default=2000)
    parser.add_argument("--mode", default="pooled", choices=list(EXECUTION_MODES),
                        help="engine execution mode of the pattern runs")
    parser.add_argument("--backend", default="numpy",
                        choices=list(available_backends()),
                        help="execution backend of the compact engine")
    parser.add_argument("--recurrent", default="dense",
                        choices=list(RECURRENT_MODES),
                        help="run the recurrent weight_h projection as a "
                             "gate-aligned DropConnect pattern site")
    args = parser.parse_args(argv)

    execution = ExecutionConfig(mode=args.mode, backend=args.backend,
                                recurrent=args.recurrent, seed=0)
    runtime = EngineRuntime(execution)
    corpus = make_synthetic_corpus(vocab_size=args.vocab,
                                   num_train_tokens=args.train_tokens,
                                   num_valid_tokens=args.eval_tokens,
                                   num_test_tokens=args.eval_tokens, seed=1)
    print(f"Training 2x{args.hidden} LSTM LM, vocab {args.vocab}, dropout {args.rate} "
          f"({execution.describe()})\n")
    rows = [train_one(strategy, args.rate, corpus, args.epochs, args.hidden, runtime)
            for strategy in ("original", "row")]

    print(f"{'strategy':10s} {'perplexity':>11s} {'accuracy':>9s} {'wall s':>7s}")
    for row in rows:
        print(f"{row['strategy']:10s} {row['perplexity']:11.2f} {row['accuracy']:9.3f} "
              f"{row['wall_s']:7.1f}")

    # The speedup the paper reports is for the full-size 2x1500 LSTM on a
    # GTX 1080Ti; reproduce that column with the timing model.
    speedup = lstm_speedup(8800, 1500, 2, (args.rate, args.rate), "row")
    print(f"\nModelled speedup at the paper's LSTM dimensions (2x1500, vocab 8800): "
          f"{speedup:.2f}x")
    stats = runtime.stats()
    print(f"Engine: pool draws consumed {stats['pools']['consumed']}, "
          f"backend calls {sum(stats['backend_calls'].values())} "
          f"({stats['backend']})")


if __name__ == "__main__":
    main()
