"""Shared substrate of every executor backend.

The engine's trial primitives are pure functions of their inputs: a
:meth:`~repro.hammer.session.HammerSession.run_pattern` call derives every
random stream it needs from stable names (never from shared stateful
draws), so trial outcomes do not depend on execution order.  That property
makes parallelism free of modelling risk — every backend exploits it by
fanning an indexed task list out over workers and reassembling results
**in task order**, so ``workers=N`` is bit-identical to ``workers=1``.

This module holds what all backends share: the :class:`ExecutorBackend`
protocol itself, the :class:`PoolReport`/:class:`TaskError` result types,
the in-process serial runner (which doubles as the pool's degradation
path), and the telemetry glue — the ``pool.batch`` span wrapper and the
task-order replay of worker-shipped trace events.

Failure semantics: an exception inside one task is captured (with its
traceback) and recorded as a :class:`TaskError` while the other tasks'
results are preserved; a failure of the pool machinery itself (broken
worker, unpicklable payload, dead process) degrades the remaining tasks
to in-process serial execution rather than losing the batch.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.obs import OBS, MetricsBatch


@dataclass(frozen=True)
class TaskError:
    """One task that raised; ``detail`` carries the formatted traceback."""

    index: int
    detail: str

    @property
    def exception_line(self) -> str:
        """The ``ExcType: message`` line of the captured traceback.

        Robust against trailing blank lines and multi-line exception
        messages: the exception line is the first non-indented line after
        the traceback's last ``File`` frame (Python's own format), with a
        last-non-blank-line fallback for free-form detail strings.
        """
        lines = self.detail.splitlines()
        last_frame = -1
        for i, line in enumerate(lines):
            if line.startswith("  File "):
                last_frame = i
        if last_frame >= 0:
            for line in lines[last_frame + 1:]:
                if line.strip() and not line.startswith(" "):
                    return line.strip()
        for line in reversed(lines):
            if line.strip():
                return line.strip()
        return "unknown error"

    @property
    def summary(self) -> str:
        return f"task {self.index}: {self.exception_line}"


@dataclass
class PoolReport:
    """Ordered results of one :meth:`ExecutorBackend.map` call.

    ``results[i]`` is task *i*'s return value, or ``None`` if it failed
    (its error is in ``errors``).  ``degraded`` marks batches where the
    pool machinery failed and remaining tasks fell back to serial
    in-process execution; ``retries`` counts task chunks that were
    re-dispatched to a fresh worker after a worker death.
    """

    results: list[Any]
    errors: list[TaskError] = field(default_factory=list)
    workers: int = 1
    degraded: bool = False
    backend: str = "serial"
    retries: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r is not None)

    def notes(self, label: str = "task") -> tuple[str, ...]:
        """Human-readable failure notes for embedding in reports."""
        notes = [
            f"{label} {err.index} failed: {err.exception_line}"
            for err in self.errors
        ]
        if self.degraded:
            notes.append(
                "worker pool degraded to serial execution mid-batch"
            )
        return tuple(notes)


@runtime_checkable
class ExecutorBackend(Protocol):
    """What every execution backend exposes to the engine's call-sites.

    ``map(fn, tasks, init)`` runs ``fn(ctx, task)`` once per task and
    returns a :class:`PoolReport` with results **in task order**;
    ``init()`` (optional) builds a per-process context lazily on each
    worker's first task.  ``close()`` releases any long-lived resources
    (persistent workers); backends are context managers so call-sites
    can write ``with create_backend(budget) as backend``.
    """

    name: str
    workers: int

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: Sequence[Any],
        init: Callable[[], Any] | None = None,
    ) -> PoolReport:
        ...

    def close(self) -> None:
        ...

    def __enter__(self) -> "ExecutorBackend":
        ...

    def __exit__(self, *exc: object) -> None:
        ...


def fork_available() -> bool:
    """Can this platform fan out via ``fork``? (Linux/macOS: yes.)"""
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """A sensible worker count for this host (respects CPU affinity)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def task_metrics(batch: MetricsBatch, status: str, dur_s: float) -> None:
    """Parent-side per-task counters (``*_wall_*`` = nondeterministic).

    Accumulates into a batch-per-dispatch (flushed at the batch/loop
    boundary by the caller) so the task loop never pays registry lookups.
    """
    batch.inc("pool.tasks_total")
    if status == "failed":
        batch.inc("pool.tasks_failed")
    batch.observe("pool.task_wall_seconds", dur_s)


def run_with_batch_span(
    dispatch: Callable[[], PoolReport], tasks: int, workers: int
) -> PoolReport:
    """Run one dispatch under the ``pool.batch`` telemetry envelope.

    The batch span is what per-worker utilization is measured against:
    its wall duration times the configured worker count is the pool's
    capacity, and each child ``pool.task``'s wall duration (attributed to
    its worker pid) is the busy time inside it.
    """
    if not OBS.enabled:
        return dispatch()
    OBS.metrics.counter("pool.batches").inc()
    with OBS.tracer.span("pool.batch", tasks=tasks, workers=workers) as span:
        report = dispatch()
        span.set(
            completed=report.completed,
            failed=len(report.errors),
            degraded=report.degraded,
        )
    if report.degraded:
        OBS.metrics.counter("pool.degraded_batches").inc()
    return report


def run_serial_tasks(
    fn: Callable[[Any, Any], Any],
    tasks: list[Any],
    init: Callable[[], Any] | None,
    into: PoolReport | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> PoolReport:
    """In-process execution; also every backend's degradation path.

    With ``into`` given, indices that already settled (a result or a
    :class:`TaskError`) are preserved and only the unsettled remainder
    runs — that is how a broken pool hands its batch over without losing
    completed work.
    """
    report = into or PoolReport(results=[None] * len(tasks), workers=1)
    ctx = init() if init is not None else None
    settled = {err.index for err in report.errors}
    settled.update(
        i for i, res in enumerate(report.results) if res is not None
    )
    done = len(settled)
    batch = OBS.metrics.batch() if OBS.metrics.enabled else None
    for index, task in enumerate(tasks):
        if index in settled:
            continue  # preserved from before the pool broke
        start = time.perf_counter()
        with OBS.tracer.span("pool.task", index=index) as span:
            status = "ok"
            try:
                report.results[index] = fn(ctx, task)
            except Exception:  # noqa: BLE001 - surfaced via TaskError
                report.errors.append(
                    TaskError(index, traceback.format_exc(limit=8))
                )
                status = "failed"
            span.set(status=status)
            span.set_wall(worker=os.getpid())
        if batch is not None:
            task_metrics(batch, status, time.perf_counter() - start)
        done += 1
        if progress is not None:
            progress(done, len(tasks))
    report.errors.sort(key=lambda err: err.index)
    if batch is not None:
        batch.flush()
    return report


def absorb_worker_telemetry(
    report: PoolReport, metas: list[dict[str, Any] | None]
) -> None:
    """Replay worker trace events and count tasks, in task order.

    Walks tasks in index order — never completion order — so the emitted
    stream is deterministic and bit-identical to a serial run's (modulo
    ``wall`` fields and wall-named metrics).  Worker metric deltas travel
    per *chunk*, not per task, and the persistent backend merges them
    itself.
    """
    if not OBS.enabled:
        return
    failed = {err.index for err in report.errors}
    batch = OBS.metrics.batch() if OBS.metrics.enabled else None
    for index, meta in enumerate(metas):
        if meta is None:
            continue  # unsettled (degraded batch): serial re-run covers it
        status = "failed" if index in failed else "ok"
        if OBS.tracer.enabled:
            with OBS.tracer.span("pool.task", index=index) as span:
                OBS.tracer.replay(meta.get("events", []), span.span_id)
                span.set(status=status)
                # dur_s overrides the parent-side (near-zero) replay
                # duration with the worker-side task duration.
                span.set_wall(worker=meta["worker"], dur_s=meta["dur_s"])
        if batch is not None:
            task_metrics(batch, status, meta["dur_s"])
    if batch is not None:
        batch.flush()
