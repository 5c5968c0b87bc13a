"""The in-process backend: one worker, zero processes, zero overhead.

Serial execution is both a first-class backend (``--backend serial``) and
the semantic reference every parallel backend is tested against — the
determinism contract is literally "bit-identical to
:class:`SerialBackend`".
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.engine.executor.base import (
    PoolReport,
    run_serial_tasks,
    run_with_batch_span,
)


class SerialBackend:
    """Runs every task in the calling process, in task order."""

    name = "serial"
    workers = 1

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: Sequence[Any],
        init: Callable[[], Any] | None = None,
    ) -> PoolReport:
        tasks = list(tasks)
        return run_with_batch_span(
            lambda: run_serial_tasks(fn, tasks, init), len(tasks), 1
        )

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
