"""Deterministic parallel experiment engine.

The engine is the shared substrate under every expensive workload in the
reproduction (Table 6 fuzzing, Figure 11 sweeping, Table 5 repeated
reverse engineering, the Figure 5 campaign):

* :class:`ExperimentSpec` / :class:`RunBudget` — the unified "what to
  run" / "how much to run" API every entry point now accepts,
* :class:`ExecutorBackend` + :func:`create_backend` — pluggable task
  execution (the in-process :class:`SerialBackend` and the multi-core
  :class:`PersistentPoolBackend`, whose forked workers inherit the
  caller's warm caches), both with order-stable aggregation, per-task
  failure capture and graceful serial degradation, such that
  ``workers=N`` is bit-identical to ``workers=1``.
"""

from repro.engine.budget import BACKEND_CHOICES, ExperimentSpec, RunBudget
from repro.engine.executor import (
    ExecutorBackend,
    PersistentPoolBackend,
    PoolReport,
    SerialBackend,
    TaskError,
    create_backend,
    default_workers,
    fork_available,
)

__all__ = [
    "BACKEND_CHOICES",
    "ExecutorBackend",
    "ExperimentSpec",
    "PersistentPoolBackend",
    "PoolReport",
    "RunBudget",
    "SerialBackend",
    "TaskError",
    "create_backend",
    "default_workers",
    "fork_available",
]
