"""Smoke tests executing every example script at reduced scale.

The examples are the repo's public face (README points at them), so they must
keep working as the library evolves — PR 2 changed the trainer construction
path and the examples silently drifted.  Each test loads the script as a
module straight from ``examples/`` and runs its ``main`` with arguments small
enough for the tier-1 suite, asserting it completes and prints its headline
output.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def load_example(name: str):
    """Import ``examples/<name>.py`` as a throwaway module."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def test_quickstart_smoke(capsys):
    module = load_example("quickstart")
    module.main(["--epochs", "1", "--train-samples", "256",
                 "--test-samples", "128", "--hidden", "48"])
    out = capsys.readouterr().out
    assert "[search]" in out
    assert "[training]" in out
    assert "[engine]" in out
    assert "speedup" in out


def test_mlp_mnist_training_smoke(capsys):
    module = load_example("mlp_mnist_training")
    module.main(["--epochs", "1", "--train-samples", "256",
                 "--test-samples", "128", "--hidden", "48"])
    out = capsys.readouterr().out
    assert "strategy" in out
    assert "original" in out and "ROW" in out and "TILE" in out
    assert "Engine:" in out


def test_lstm_language_model_smoke(capsys):
    module = load_example("lstm_language_model")
    module.main(["--epochs", "1", "--hidden", "24", "--vocab", "80",
                 "--train-tokens", "1600", "--eval-tokens", "400"])
    out = capsys.readouterr().out
    assert "perplexity" in out
    assert "Modelled speedup" in out
    assert "Engine:" in out


def test_lstm_language_model_tiled_recurrent_smoke(capsys):
    module = load_example("lstm_language_model")
    module.main(["--epochs", "1", "--hidden", "32", "--vocab", "80",
                 "--train-tokens", "1600", "--eval-tokens", "400",
                 "--recurrent", "tiled"])
    out = capsys.readouterr().out
    assert "recurrent=tiled" in out
    assert "perplexity" in out


def test_gpu_cost_model_tour_smoke(capsys):
    module = load_example("gpu_cost_model_tour")
    module.main()
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", [path.stem for path in
                                  sorted(EXAMPLES_DIR.glob("*.py"))])
def test_example_exists_and_has_main(name):
    module = load_example(name)
    assert callable(getattr(module, "main", None))
