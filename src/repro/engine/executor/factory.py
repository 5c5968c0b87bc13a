"""Backend selection policy: one factory, every call-site.

``create_backend`` is the only place that decides *which* backend runs a
workload and *how many* workers it really gets:

* ``auto`` (the default) caps the requested worker count at the host's
  usable CPUs — oversubscribing forked workers onto fewer cores only adds
  IPC overhead — and picks :class:`PersistentPoolBackend` when that still
  leaves real parallelism, :class:`SerialBackend` otherwise;
* an explicit backend name (``serial``/``persistent``) is honoured
  verbatim, worker count included, so tests and benches can exercise
  real forking even on single-core hosts.
"""

from __future__ import annotations

from repro.engine.budget import BACKEND_CHOICES, RunBudget
from repro.engine.executor.base import (
    ExecutorBackend,
    default_workers,
    fork_available,
)
from repro.engine.executor.persistent import PersistentPoolBackend
from repro.engine.executor.serial import SerialBackend


def create_backend(
    budget: RunBudget | None = None,
    *,
    workers: int | None = None,
    backend: str | None = None,
) -> ExecutorBackend:
    """Build the executor backend a workload should run on.

    ``workers`` and ``backend`` default to the budget's fields; keywords
    win over them.
    """
    if workers is None:
        workers = budget.workers if budget is not None else 1
    if backend is None:
        backend = getattr(budget, "backend", None) or "auto"
    name = str(backend).lower()
    if name not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown executor backend {backend!r}; "
            f"choose from {', '.join(BACKEND_CHOICES)}"
        )
    if name == "auto":
        workers = min(workers, default_workers())
        name = "persistent" if workers > 1 and fork_available() else "serial"
    if name == "serial":
        return SerialBackend()
    return PersistentPoolBackend(workers=workers)
