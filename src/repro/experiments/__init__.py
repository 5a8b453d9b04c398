"""Experiment drivers — one per table / figure in the paper's evaluation.

Every driver follows the same contract:

* it accepts a *scale* knob so the expensive accuracy-training part can run at
  a reduced synthetic scale (the default, suitable for CI and the slow
  ``benchmarks/`` tier) or closer to the paper's scale;
* the *speedup* columns are always computed with the analytical GPU timing
  model at the **paper's** network dimensions and batch sizes, so they are
  directly comparable to the numbers printed in the paper regardless of the
  accuracy-training scale;
* it returns an :class:`~repro.experiments.records.ExperimentTable` whose rows
  mirror the paper's artefact, and whose ``format()`` output is what the
  slow ``benchmarks/`` tier prints;
* it accepts an ``execution`` knob (an
  :class:`repro.execution.ExecutionConfig`) selecting the engine mode
  (masked/compact/pooled), dtype (float64/float32) and pool-wide pattern seed
  of its training runs, and stamps the runtime's cache/pool/workspace counters
  into the table's ``engine`` record.

| Driver | Paper artefact |
|---------------------------------------|----------------------------------|
| :func:`repro.experiments.fig4.run_fig4`             | Fig. 4 (rate sweep, RDP & TDP)   |
| :func:`repro.experiments.table1.run_table1`         | Table I (network-size sweep)     |
| :func:`repro.experiments.table2.run_table2`         | Table II (LSTM dictionary)       |
| :func:`repro.experiments.fig5.run_fig5`             | Fig. 5 (convergence curves)      |
| :func:`repro.experiments.fig6.run_fig6a`            | Fig. 6(a) (PTB rate sweep)       |
| :func:`repro.experiments.fig6.run_fig6b`            | Fig. 6(b) (batch-size sweep)     |
| :func:`repro.experiments.motivation.run_fig1b`      | Fig. 1(b) (divergence strawman)  |
| :func:`repro.experiments.algorithm1.run_algorithm1` | Algorithm 1 behaviour            |
"""

from repro.experiments.records import ExperimentRow, ExperimentTable
from repro.experiments.fig4 import run_fig4
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6a, run_fig6b
from repro.experiments.motivation import run_fig1b
from repro.experiments.algorithm1 import run_algorithm1

__all__ = [
    "ExperimentRow",
    "ExperimentTable",
    "run_fig4",
    "run_table1",
    "run_table2",
    "run_fig5",
    "run_fig6a",
    "run_fig6b",
    "run_fig1b",
    "run_algorithm1",
]
