"""The paper's MLP workload (Sections IV-A and IV-B).

The network is the 4-layer multilayer perceptron used for the MNIST-style
experiments: an input layer shaped by the data, two (or more) hidden ReLU
layers that are the dropout sites, and a 10-way softmax output layer.  The
dropout behaviour — conventional, Row-based pattern or Tile-based pattern —
is injected through a :class:`~repro.models.dropout_strategy.DropoutStrategy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dropout.layers import ApproxRandomDropoutLinear
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.gpu.training_time import DropoutTimingConfig, MLPTimingModel
from repro.models.dropout_strategy import DropoutStrategy, build_strategy
from repro.nn.layers import Linear, ReLU
from repro.nn.module import Module
from repro.tensor import Tensor


@dataclass
class MLPConfig:
    """Configuration of the MLP workload.

    Attributes
    ----------
    input_size:
        Number of input features (784 for the 28x28 digit task).
    hidden_sizes:
        Width of each hidden layer; the paper uses two hidden layers of equal
        width (64–4096).
    num_classes:
        Output classes (10 digits).
    drop_rates:
        Target dropout rate for each hidden layer's output; must have the same
        length as ``hidden_sizes``.
    strategy:
        Dropout strategy name: "none", "original", "row" or "tile".
    seed:
        Seed for weight initialisation and pattern/mask sampling.
    """

    input_size: int = 784
    hidden_sizes: tuple[int, ...] = (2048, 2048)
    num_classes: int = 10
    drop_rates: tuple[float, ...] = (0.5, 0.5)
    strategy: str = "original"
    seed: int = 0

    def __post_init__(self):
        if self.input_size <= 0 or self.num_classes <= 0:
            raise ValueError("input_size and num_classes must be positive")
        if not self.hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        if len(self.drop_rates) != len(self.hidden_sizes):
            raise ValueError(
                f"drop_rates (len {len(self.drop_rates)}) must match hidden_sizes "
                f"(len {len(self.hidden_sizes)})")

    @property
    def layer_sizes(self) -> list[int]:
        """All layer widths including input and output (for the timing model)."""
        return [self.input_size, *self.hidden_sizes, self.num_classes]


class MLPClassifier(Module):
    """Feed-forward classifier with pluggable dropout.

    The forward pass chains ``linear -> ReLU -> (post-activation dropout)``
    for every hidden layer and finishes with a plain linear output layer.
    When consecutive hidden layers both use the Row-based pattern, the later
    layer receives the earlier layer's pattern so its compact GEMM can also
    skip the dropped input columns (Fig. 3(a) step 2).
    """

    def __init__(self, config: MLPConfig,
                 strategy: DropoutStrategy | None = None):
        super().__init__()
        self.config = config
        self.strategy = strategy or build_strategy(config.strategy)
        self.rng = np.random.default_rng(config.seed)

        self.hidden_linears: list[Module] = []
        self.activations: list[Module] = []
        self.post_activations: list[Module] = []

        previous = config.input_size
        for index, (width, rate) in enumerate(zip(config.hidden_sizes, config.drop_rates)):
            linear = self.strategy.hidden_linear(previous, width, rate, self.rng)
            activation = ReLU()
            post = self.strategy.post_activation(width, rate, self.rng)
            self.add_module(f"hidden{index}", linear)
            self.add_module(f"act{index}", activation)
            self.add_module(f"post{index}", post)
            self.hidden_linears.append(linear)
            self.activations.append(activation)
            self.post_activations.append(post)
            previous = width
        self.output = Linear(previous, config.num_classes, rng=self.rng)

    # ------------------------------------------------------------------
    # forward / lifecycle
    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        previous_pattern = None
        for linear, activation, post in zip(self.hidden_linears, self.activations,
                                            self.post_activations):
            if isinstance(linear, ApproxRandomDropoutLinear) and self.training:
                x = linear(x, input_pattern=previous_pattern)
                previous_pattern = linear.pattern
            else:
                x = linear(x)
                previous_pattern = None
            x = activation(x)
            x = post(x)
        return self.output(x)

    # ------------------------------------------------------------------
    # GPU timing integration
    # ------------------------------------------------------------------
    def timing_model(self, batch_size: int,
                     device: DeviceSpec = GTX_1080TI, **kwargs) -> MLPTimingModel:
        """Build the analytical timing model matching this network's shape."""
        return MLPTimingModel(self.config.layer_sizes, batch_size, device=device,
                              **kwargs)

    def timing_config(self) -> DropoutTimingConfig:
        """Timing-model dropout configuration matching this network's strategy."""
        return DropoutTimingConfig(mode=self.strategy.timing_mode,
                                   rates=tuple(self.config.drop_rates))

    def baseline_timing_config(self) -> DropoutTimingConfig:
        """Conventional-dropout configuration with the same rates (the "old time")."""
        return DropoutTimingConfig(mode="baseline", rates=tuple(self.config.drop_rates))

    def __repr__(self) -> str:
        return (f"MLPClassifier(layers={self.config.layer_sizes}, "
                f"rates={self.config.drop_rates}, strategy={self.strategy.name})")
