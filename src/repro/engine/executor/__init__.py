"""Pluggable execution backends for the deterministic experiment engine.

Public surface (re-exported from :mod:`repro.engine`):

* :class:`ExecutorBackend` — the protocol every backend satisfies,
* :class:`SerialBackend` / :class:`PersistentPoolBackend` — the two
  implementations,
* :func:`create_backend` — the selection policy (``auto`` routing and
  host CPU capping),
* :class:`PoolReport` / :class:`TaskError` and the
  :func:`default_workers` / :func:`fork_available` host probes.
"""

from repro.engine.executor.base import (
    ExecutorBackend,
    PoolReport,
    TaskError,
    default_workers,
    fork_available,
)
from repro.engine.executor.factory import create_backend
from repro.engine.executor.persistent import PersistentPoolBackend
from repro.engine.executor.serial import SerialBackend

__all__ = [
    "ExecutorBackend",
    "PersistentPoolBackend",
    "PoolReport",
    "SerialBackend",
    "TaskError",
    "create_backend",
    "default_workers",
    "fork_available",
]
