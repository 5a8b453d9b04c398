"""Structured result records returned by the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentRow:
    """One row of a reproduced table/figure.

    ``values`` maps column name to value; ``paper`` optionally maps the same
    column names to the values the paper reports, so the formatted output can
    show paper-vs-measured side by side (the EXPERIMENTS.md requirement).
    ``engine`` optionally carries the execution-engine counters of the
    training run that produced this row — pool/head/step counts are
    restricted to that run's model; the tile-plan/pattern cache entries are
    process-global deltas for the driver's runtime, and ``backend`` /
    ``backend_calls`` identify the execution backend the run selected and its
    per-operation call counts (see
    :meth:`repro.execution.EngineRuntime.stats` and
    ``docs/architecture.md``).
    """

    label: str
    values: dict[str, Any] = field(default_factory=dict)
    paper: dict[str, Any] = field(default_factory=dict)
    engine: dict[str, Any] = field(default_factory=dict)

    def get(self, column: str, default=None):
        return self.values.get(column, default)


@dataclass
class ExperimentTable:
    """A reproduced table/figure: a list of rows plus formatting helpers.

    ``engine`` holds the table-level execution-engine record — which
    :class:`~repro.execution.ExecutionConfig` the driver ran under plus the
    aggregated cache/pool/head counters — and is printed as a trailing
    summary by :meth:`format`.
    """

    name: str
    description: str
    columns: list[str]
    rows: list[ExperimentRow] = field(default_factory=list)
    engine: dict[str, Any] = field(default_factory=dict)

    def add_row(self, label: str, values: dict[str, Any],
                paper: dict[str, Any] | None = None,
                engine: dict[str, Any] | None = None) -> ExperimentRow:
        row = ExperimentRow(label=label, values=dict(values),
                            paper=dict(paper or {}), engine=dict(engine or {}))
        self.rows.append(row)
        return row

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row.values.get(name) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # formatting
    # ------------------------------------------------------------------
    def format(self, float_digits: int = 3) -> str:
        """Render the table as aligned plain text (paper values in parentheses)."""
        header = ["case"] + list(self.columns)
        body: list[list[str]] = []
        for row in self.rows:
            cells = [row.label]
            for column in self.columns:
                value = row.values.get(column)
                cell = _format_value(value, float_digits)
                if column in row.paper:
                    cell += f" (paper {_format_value(row.paper[column], float_digits)})"
                cells.append(cell)
            body.append(cells)
        widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
                  for i in range(len(header))]
        lines = [self.name, self.description,
                 "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
                 "  ".join("-" * widths[i] for i in range(len(header)))]
        for cells in body:
            lines.append("  ".join(cells[i].ljust(widths[i]) for i in range(len(cells))))
        if self.engine:
            lines.append(format_engine_stats(self.engine))
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (used by tests and by EXPERIMENTS.md tooling)."""
        record: dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "columns": list(self.columns),
            "rows": [
                {"label": row.label, "values": row.values, "paper": row.paper,
                 **({"engine": row.engine} if row.engine else {})}
                for row in self.rows
            ],
        }
        if self.engine:
            record["engine"] = self.engine
        return record


def format_engine_stats(engine: dict[str, Any]) -> str:
    """One-line rendering of an engine-stats record for formatted tables."""
    parts = []
    mode = engine.get("mode")
    if mode is not None:
        seed = engine.get("seed")
        shards = engine.get("shards", 1)
        parts.append(f"mode={mode} dtype={engine.get('dtype')} "
                     f"backend={engine.get('backend', 'numpy')} "
                     f"recurrent={engine.get('recurrent', 'dense')} "
                     f"seed={'-' if seed is None else seed}"
                     + (f" shards={shards}" if shards != 1 else ""))
    head = engine.get("loss_head")
    if head and (head.get("kind", "dense") != "dense" or head.get("draws")):
        parts.append(f"loss-head {head.get('kind')} draws={head.get('draws', 0)} "
                     f"kept-classes={head.get('kept_classes', 0)}")
    backend_calls = engine.get("backend_calls")
    if backend_calls:
        total = sum(backend_calls.values())
        parts.append(f"backend calls={total}")
    plan = engine.get("tile_plan_cache")
    if plan:
        parts.append(f"tile-plan cache hits={plan.get('hits', 0)} "
                     f"misses={plan.get('misses', 0)}")
    pools = engine.get("pools")
    if pools:
        parts.append(f"pools sites={pools.get('sites', 0)} "
                     f"refills={pools.get('refills', 0)} "
                     f"consumed={pools.get('consumed', 0)}")
    if not parts:
        parts.append(str(engine))
    return "engine: " + " | ".join(parts)


def _format_value(value, float_digits: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)
