"""Word-level LSTM language model (Section IV-C of the paper).

The model follows the standard regularised-LSTM recipe the paper's setup
implies: an embedding layer, two or three stacked LSTM layers of 1500 units,
and a vocabulary projection, with dropout applied only to the non-recurrent
connections (embedding output, between layers, and before the projection).
The dropout behaviour is injected through a
:class:`~repro.models.dropout_strategy.DropoutStrategy` so the same model can
be trained with conventional dropout, the Row-based pattern or the Tile-based
pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.gpu.training_time import DropoutTimingConfig, LSTMTimingModel
from repro.heads import DenseSoftmaxHead, build_loss_head
from repro.models.dropout_strategy import DropoutStrategy, build_strategy
from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module
from repro.nn.recurrent import LSTM, active_input_pattern
from repro.tensor import Tensor


@dataclass
class LSTMConfig:
    """Configuration of the LSTM language-model workload.

    Attributes
    ----------
    vocab_size:
        Vocabulary size (8800 for the dictionary task, ~10k for PTB).
    embed_size:
        Word-embedding width (the paper's setup uses the hidden width).
    hidden_size:
        LSTM hidden units per layer (1500 in the paper).
    num_layers:
        Stacked LSTM layers (2 for the dictionary task, 3 for PTB).
    drop_rates:
        Dropout rate applied to the output of each LSTM layer; the embedding
        output is dropped with ``drop_rates[0]``.  Must have ``num_layers``
        entries.
    strategy:
        Dropout strategy name: "none", "original", "row" or "tile".
    seed:
        Seed for initialisation and mask/pattern sampling.
    """

    vocab_size: int = 8800
    embed_size: int = 1500
    hidden_size: int = 1500
    num_layers: int = 2
    drop_rates: tuple[float, ...] = (0.5, 0.5)
    strategy: str = "original"
    seed: int = 0

    def __post_init__(self):
        for label, value in (("vocab_size", self.vocab_size),
                             ("embed_size", self.embed_size),
                             ("hidden_size", self.hidden_size),
                             ("num_layers", self.num_layers)):
            if value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")
        if len(self.drop_rates) != self.num_layers:
            raise ValueError(
                f"drop_rates (len {len(self.drop_rates)}) must have one entry per "
                f"LSTM layer ({self.num_layers})")


class LSTMLanguageModel(Module):
    """Next-word prediction model with pluggable dropout on non-recurrent paths."""

    def __init__(self, config: LSTMConfig,
                 strategy: DropoutStrategy | None = None):
        super().__init__()
        self.config = config
        self.strategy = strategy or build_strategy(config.strategy)
        self.rng = np.random.default_rng(config.seed)

        self.embedding = Embedding(config.vocab_size, config.embed_size, rng=self.rng)
        self.input_dropout = self.strategy.activation_dropout(
            config.embed_size, config.drop_rates[0], self.rng)

        def dropout_builder(layer_index: int) -> Module:
            return self.strategy.activation_dropout(
                config.hidden_size, config.drop_rates[layer_index], self.rng)

        def recurrent_builder(layer_index: int) -> Module | None:
            # Gate-aligned DropConnect site on each cell's weight_h; inert
            # (dense) until an EngineRuntime with recurrent="tiled" binds the
            # model and enables it.
            return self.strategy.recurrent_dropout(
                config.hidden_size, config.drop_rates[layer_index], self.rng)

        self.lstm = LSTM(config.embed_size, config.hidden_size,
                         num_layers=config.num_layers, rng=self.rng,
                         dropout_builder=dropout_builder,
                         recurrent_dropout_builder=recurrent_builder)
        self.output_dropout = self.strategy.activation_dropout(
            config.hidden_size, config.drop_rates[-1], self.rng)
        self.projection = Linear(config.hidden_size, config.vocab_size, rng=self.rng)
        # The loss head owns the tail of the forward pass (projection + loss
        # execution strategy): dense by default; EngineRuntime.bind swaps in a
        # CompactSoftmaxHead for ExecutionConfig(loss_head="sampled") via
        # set_loss_head.  The consumer-GEMM compaction of the projection
        # against output_dropout's row pattern (Fig. 3(a) step 2) lives on
        # the head too — both heads apply it when the engine is bound.
        self.loss_head = DenseSoftmaxHead()

    # ------------------------------------------------------------------
    # forward / lifecycle
    # ------------------------------------------------------------------
    def _features(self, tokens: np.ndarray,
                  state: list[tuple[Tensor, Tensor]] | None,
                  ) -> tuple[Tensor, list[tuple[Tensor, Tensor]], object]:
        """Embedding → LSTM → output dropout, flattened for the loss head.

        Returns ``(features, new_state, output_pattern)``: the
        ``(seq_len * batch, hidden)`` feature matrix, the carried LSTM state
        and the row pattern ``output_dropout`` zeroed the features with when
        a consumer GEMM may compact against it (``None`` otherwise — see
        :func:`~repro.nn.recurrent.active_input_pattern`).
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be 2-D (seq_len, batch), got shape {tokens.shape}")
        embedded = self.embedding(tokens)
        embedded = self.input_dropout(embedded)
        outputs, new_state = self.lstm(
            embedded, state,
            input_pattern=active_input_pattern(self.input_dropout,
                                               self.config.embed_size))
        outputs = self.output_dropout(outputs)
        seq_len, batch = tokens.shape
        flat = outputs.reshape(seq_len * batch, self.config.hidden_size)
        pattern = active_input_pattern(self.output_dropout,
                                       self.config.hidden_size)
        return flat, new_state, pattern

    def forward(self, tokens: np.ndarray,
                state: list[tuple[Tensor, Tensor]] | None = None,
                ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Compute next-word logits for a batch of sequences.

        The logits always come from the head's *exact dense* projection
        (:meth:`~repro.heads.LossHead.logits`), so evaluation — perplexity in
        particular — is never approximated, whichever head trains the model.

        Parameters
        ----------
        tokens:
            Integer array of shape ``(seq_len, batch)``.
        state:
            Optional LSTM state carried over from the previous BPTT window.

        Returns
        -------
        ``(logits, new_state)`` with ``logits`` of shape
        ``(seq_len * batch, vocab_size)``.
        """
        flat, new_state, pattern = self._features(tokens, state)
        logits = self.loss_head.logits(flat, self.projection.weight,
                                       self.projection.bias,
                                       input_pattern=pattern)
        return logits, new_state

    def loss(self, tokens: np.ndarray, targets: np.ndarray,
             state: list[tuple[Tensor, Tensor]] | None = None,
             ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Training loss of one window, computed through the bound loss head.

        This is the entry point the trainer's hot path uses instead of
        ``forward`` + an external cross-entropy: the head may never
        materialise full-vocabulary logits (the sampled head projects only
        the kept classes).  Returns ``(loss, new_state)``.
        """
        flat, new_state, pattern = self._features(tokens, state)
        loss = self.loss_head.loss(flat, self.projection.weight,
                                   self.projection.bias,
                                   np.asarray(targets).reshape(-1),
                                   input_pattern=pattern)
        return loss, new_state

    def set_loss_head(self, kind: str, rate: float = 0.5,
                      shortlist: int = 0, clusters: int = 4) -> None:
        """Install a fresh loss head (the ``ExecutionConfig.loss_head`` hook).

        Called by :meth:`repro.execution.EngineRuntime.bind` before the
        engine attributes are applied and the pattern sites enumerated, so a
        sampled head joins the pooled schedule and the pool-wide reseeding
        like any other pattern site.  ``rate`` configures the sampled head,
        ``shortlist``/``clusters`` the adaptive one (``shortlist=0`` =
        auto-size); each head ignores the knobs it does not own.
        """
        self.loss_head = build_loss_head(kind, self.config.vocab_size,
                                         rate=rate, rng=self.rng,
                                         shortlist=shortlist,
                                         clusters=clusters)

    def init_state(self, batch: int) -> list[tuple[Tensor, Tensor]]:
        return self.lstm.init_state(batch)

    def detach_state(self, state: list[tuple[Tensor, Tensor]],
                     ) -> list[tuple[Tensor, Tensor]]:
        """Cut the BPTT graph between windows while keeping the numeric state."""
        return [(h.detach(), c.detach()) for h, c in state]

    # ------------------------------------------------------------------
    # GPU timing integration
    # ------------------------------------------------------------------
    def timing_model(self, batch_size: int, seq_len: int,
                     device: DeviceSpec = GTX_1080TI, **kwargs) -> LSTMTimingModel:
        """Build the analytical timing model matching this network's shape."""
        return LSTMTimingModel(self.config.vocab_size, self.config.embed_size,
                               self.config.hidden_size, self.config.num_layers,
                               batch_size, seq_len, device=device, **kwargs)

    def timing_config(self) -> DropoutTimingConfig:
        return DropoutTimingConfig(mode=self.strategy.timing_mode,
                                   rates=tuple(self.config.drop_rates))

    def baseline_timing_config(self) -> DropoutTimingConfig:
        return DropoutTimingConfig(mode="baseline", rates=tuple(self.config.drop_rates))

    def __repr__(self) -> str:
        return (f"LSTMLanguageModel(vocab={self.config.vocab_size}, "
                f"hidden={self.config.hidden_size}x{self.config.num_layers}, "
                f"rates={self.config.drop_rates}, strategy={self.strategy.name})")
