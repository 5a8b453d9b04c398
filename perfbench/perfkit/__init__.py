"""Benchmark kit for the approximate-random-dropout repository.

The modules here drive the repository's public API from outside:

* :mod:`perfkit.stats` — percentile and spread rules;
* :mod:`perfkit.spans` — the in-memory span tracer, self-time arithmetic and
  the Chrome Trace Event export;
* :mod:`perfkit.openloop` — the open-loop Poisson request generator;
* :mod:`perfkit.training` — the ``mlp_train`` and ``lstm_train`` workloads;
* :mod:`perfkit.serving` — the ``serve_lstm`` workload;
* :mod:`perfkit.metrics` — the metric catalogue shared with ``BENCHMARK.json``;
* :mod:`perfkit.envinfo` — the environment record stamped on every result.

Importing the package imports nothing from the repository and reads no
environment; the entry point (``perfbench/run.py``) pins the BLAS thread
count before numpy is first imported.
"""
