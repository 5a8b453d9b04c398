"""Pluggable dropout strategies shared by the MLP and LSTM model builders.

Each experiment in the paper compares three configurations of the *same*
network: conventional random dropout ("original"), the Row-based Dropout
Pattern ("ROW") and the Tile-based Dropout Pattern ("TILE").  A
:class:`DropoutStrategy` encapsulates everything that differs between those
configurations:

* which linear-layer class the MLP uses for a hidden layer whose output is a
  dropout site (:meth:`hidden_linear`),
* which module is applied after the hidden activation
  (:meth:`post_activation` — the conventional mask layer, or identity),
* which module drops the non-recurrent activations of the LSTM
  (:meth:`activation_dropout`),
* which ``mode`` string the GPU timing model should use
  (:attr:`timing_mode`).

Every pattern module the approximate strategies build is a
:class:`~repro.dropout.sampler.PatternSite`; the trainer's
:class:`~repro.dropout.sampler.PatternSchedule` resamples them once per
training iteration.
"""

from __future__ import annotations

import numpy as np

from repro.dropout.layers import (
    ApproxBlockDropout,
    ApproxDropConnectLinear,
    ApproxRandomDropout,
    ApproxRandomDropoutLinear,
    ApproxRecurrentDropConnect,
)
from repro.nn.dropout import Dropout
from repro.nn.layers import Identity, Linear
from repro.nn.module import Module


class DropoutStrategy:
    """Base class; concrete strategies override the factory methods."""

    #: Name used in experiment tables ("original", "ROW", "TILE", "none").
    name: str = "base"
    #: Mode string consumed by :class:`repro.gpu.DropoutTimingConfig`.
    timing_mode: str = "none"

    def hidden_linear(self, in_features: int, out_features: int, rate: float,
                      rng: np.random.Generator) -> Module:
        """Linear layer for an MLP hidden layer whose output is a dropout site."""
        raise NotImplementedError

    def post_activation(self, num_units: int, rate: float,
                        rng: np.random.Generator) -> Module:
        """Module applied to the hidden activation after the nonlinearity."""
        raise NotImplementedError

    def activation_dropout(self, num_units: int, rate: float,
                           rng: np.random.Generator) -> Module:
        """Dropout module for a non-recurrent LSTM connection."""
        raise NotImplementedError

    def recurrent_dropout(self, hidden_size: int, rate: float,
                          rng: np.random.Generator) -> Module | None:
        """Structured-DropConnect site for an LSTM cell's recurrent projection.

        ``None`` (the default, used by the no-dropout and conventional
        strategies) keeps the recurrent GEMM dense — the paper drops only the
        non-recurrent connections.  The pattern strategies return a *gated*
        :class:`~repro.dropout.layers.ApproxRecurrentDropConnect` that stays
        inert until :meth:`repro.execution.EngineRuntime.bind` enables it for
        ``ExecutionConfig(recurrent="tiled")``.
        """
        return None

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(name={self.name!r})"


class NoDropout(DropoutStrategy):
    """No dropout at all (reference runs and unit tests)."""

    name = "none"
    timing_mode = "none"

    def hidden_linear(self, in_features, out_features, rate, rng) -> Module:
        return Linear(in_features, out_features, rng=rng)

    def post_activation(self, num_units, rate, rng) -> Module:
        return Identity()

    def activation_dropout(self, num_units, rate, rng) -> Module:
        return Identity()


class ConventionalDropout(DropoutStrategy):
    """The paper's baseline: i.i.d. Bernoulli masks (Srivastava et al.)."""

    name = "original"
    timing_mode = "baseline"

    def hidden_linear(self, in_features, out_features, rate, rng) -> Module:
        return Linear(in_features, out_features, rng=rng)

    def post_activation(self, num_units, rate, rng) -> Module:
        return Dropout(rate, rng=rng)

    def activation_dropout(self, num_units, rate, rng) -> Module:
        return Dropout(rate, rng=rng)


class RowPatternDropout(DropoutStrategy):
    """Row-based Dropout Pattern (RDP): regular neuron dropout, compact GEMMs."""

    name = "ROW"
    timing_mode = "row"

    def __init__(self, max_period: int | None = None, scale: bool = True):
        self.max_period = max_period
        self.scale = scale

    def hidden_linear(self, in_features, out_features, rate, rng) -> Module:
        return ApproxRandomDropoutLinear(in_features, out_features, rate,
                                         max_period=self.max_period,
                                         scale=self.scale, rng=rng)

    def post_activation(self, num_units, rate, rng) -> Module:
        # The dropped rows are already zero in the compact-GEMM output.
        return Identity()

    def activation_dropout(self, num_units, rate, rng) -> Module:
        return ApproxRandomDropout(num_units, rate, max_period=self.max_period,
                                   scale=self.scale, rng=rng)

    def recurrent_dropout(self, hidden_size, rate, rng) -> Module | None:
        return ApproxRecurrentDropConnect(hidden_size, rate,
                                          max_period=self.max_period,
                                          scale=self.scale, rng=rng)


class TilePatternDropout(DropoutStrategy):
    """Tile-based Dropout Pattern (TDP): structured DropConnect over 32x32 tiles."""

    name = "TILE"
    timing_mode = "tile"

    def __init__(self, tile: int = 32, max_period: int | None = None,
                 scale: bool = True):
        self.tile = tile
        self.max_period = max_period
        self.scale = scale

    def hidden_linear(self, in_features, out_features, rate, rng) -> Module:
        return ApproxDropConnectLinear(in_features, out_features, rate,
                                       tile=self.tile, max_period=self.max_period,
                                       scale=self.scale, rng=rng)

    def post_activation(self, num_units, rate, rng) -> Module:
        return Identity()

    def activation_dropout(self, num_units, rate, rng) -> Module:
        return ApproxBlockDropout(num_units, rate, block=self.tile,
                                  max_period=self.max_period,
                                  scale=self.scale, rng=rng)

    def recurrent_dropout(self, hidden_size, rate, rng) -> Module | None:
        return ApproxRecurrentDropConnect(hidden_size, rate, tile=self.tile,
                                          max_period=self.max_period,
                                          scale=self.scale, rng=rng)


_STRATEGIES = {
    "none": NoDropout,
    "original": ConventionalDropout,
    "baseline": ConventionalDropout,
    "conventional": ConventionalDropout,
    "row": RowPatternDropout,
    "rdp": RowPatternDropout,
    "tile": TilePatternDropout,
    "tdp": TilePatternDropout,
}


def build_strategy(name: str, **kwargs) -> DropoutStrategy:
    """Instantiate a strategy by name ("none", "original", "row", "tile")."""
    key = name.lower()
    if key not in _STRATEGIES:
        raise KeyError(f"unknown dropout strategy {name!r}; "
                       f"available: {sorted(set(_STRATEGIES))}")
    return _STRATEGIES[key](**kwargs)
