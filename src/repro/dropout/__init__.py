"""Approximate Random Dropout — the paper's core contribution.

The package contains:

* :mod:`repro.dropout.patterns` — the two regular dropout-pattern families,
  Row-based Dropout Pattern (RDP) and Tile-based Dropout Pattern (TDP), and
  their compaction machinery (which rows/tiles survive, how the compact GEMM
  operands are built and how results are scattered back).
* :mod:`repro.dropout.search` — the SGD-based Search Algorithm (Algorithm 1)
  that produces the distribution ``K`` over pattern periods so that the global
  dropout rate matches a target Bernoulli rate while maximising sub-model
  diversity.
* :mod:`repro.dropout.sampler` — per-iteration sampling of a concrete pattern
  ``(dp, b)`` from ``K``, and :class:`PatternSite`, the base class of every
  dropout site, which owns that sampling rule.
* :mod:`repro.dropout.layers` — the five drop-in sites:
  :class:`ApproxRandomDropout` and :class:`ApproxBlockDropout` (activation
  RDP and its block analogue), :class:`ApproxRandomDropoutLinear` (RDP,
  neuron dropout, compact GEMMs), :class:`ApproxDropConnectLinear` (TDP,
  structured DropConnect) and
  :class:`~repro.dropout.layers.ApproxRecurrentDropConnect` (gate-aligned
  TDP over an LSTM cell's recurrent projection).
* :mod:`repro.dropout.statistics` — the statistical-equivalence analysis of
  Section III-D (per-neuron drop probability vs. the global dropout rate).
"""

from repro.dropout.patterns import (
    RowDropoutPattern,
    TileDropoutPattern,
    row_pattern_mask,
    tile_pattern_mask,
    row_pattern_masks,
    row_keep_counts,
    row_pattern,
    tile_pattern,
    pattern_cache_info,
    clear_pattern_caches,
    max_row_patterns,
    max_tile_patterns,
)
from repro.dropout.engine import (
    CompactWorkspace,
    TileExecutionPlan,
    compile_tile_plan,
)
from repro.dropout.compact_ops import (
    input_compact_linear,
    row_compact_linear,
    tile_compact_linear,
)
from repro.dropout.search import PatternDistributionSearch, SearchResult, pattern_drop_rates
from repro.dropout.sampler import PatternPool, PatternSampler, PatternSchedule, PatternSite
from repro.dropout.layers import (
    ApproxRandomDropout,
    ApproxBlockDropout,
    ApproxRandomDropoutLinear,
    ApproxDropConnectLinear,
)
from repro.dropout.statistics import (
    empirical_unit_drop_rate,
    expected_global_drop_rate,
    equivalence_report,
    sub_model_count,
)

__all__ = [
    "RowDropoutPattern",
    "TileDropoutPattern",
    "row_pattern_mask",
    "tile_pattern_mask",
    "row_pattern_masks",
    "row_keep_counts",
    "row_pattern",
    "tile_pattern",
    "pattern_cache_info",
    "clear_pattern_caches",
    "CompactWorkspace",
    "TileExecutionPlan",
    "compile_tile_plan",
    "input_compact_linear",
    "row_compact_linear",
    "tile_compact_linear",
    "max_row_patterns",
    "max_tile_patterns",
    "PatternDistributionSearch",
    "SearchResult",
    "pattern_drop_rates",
    "PatternPool",
    "PatternSampler",
    "PatternSchedule",
    "PatternSite",
    "ApproxRandomDropout",
    "ApproxBlockDropout",
    "ApproxRandomDropoutLinear",
    "ApproxDropConnectLinear",
    "empirical_unit_drop_rate",
    "expected_global_drop_rate",
    "equivalence_report",
    "sub_model_count",
]
