"""The persistent worker-pool backend: fork once, feed chunks forever.

Forking a fresh pool per ``map`` call would pay the whole
fork/pickle/teardown bill on every batch, which after the kernel hot path
was vectorised costs more than the work itself.
:class:`PersistentPoolBackend` forks its workers **once per pool
lifetime** and feeds them over per-worker pipes instead (a ``map`` with a
new task function re-forks them, so one-shot callers need nothing else):

* tasks are cut into contiguous index ranges ("chunks") whose size adapts
  to the observed per-task wall time, so many small patterns ride one
  dispatch while long tasks keep retry granularity;
* each worker runs its chunk against the fork-inherited closure, buffers
  its OBS metric contributions in a
  :class:`~repro.obs.metrics.DeltaBuffer`, and ships back indexed
  results + per-task trace events + one metric delta per chunk;
* the parent reassembles results in task order, replays trace events in
  task order, and merges chunk deltas in ascending start-index order — so
  ``workers=N`` stays bit-identical to ``workers=1`` for results and for
  every non-wall metric;
* workers fork inside ``map``, after the caller has warmed the machine's
  caches (executor memo, weak-cell thresholds), so they inherit those
  caches; replacement workers fork from the parent too.

Robustness: worker death is detected via process sentinels, the dead
worker's chunk is re-dispatched to a freshly forked replacement up to
``max_retries`` times, and anything still unsettled after that — or after
a failure of the pool machinery itself — degrades to in-process serial
execution without losing completed results.  ``close()`` (also run on
``KeyboardInterrupt`` escaping ``map``) joins or kills every worker.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
import weakref
from typing import Any, Callable, Sequence

from repro.engine.executor.base import (
    PoolReport,
    TaskError,
    absorb_worker_telemetry,
    fork_available,
    run_serial_tasks,
    run_with_batch_span,
)
from repro.obs import OBS
from repro.obs.health import emit_health_event

#: Parent-side state inherited by forked workers; (re)asserted right
#: before every fork — initial spawn and mid-batch replacements alike —
#: so the closure never has to cross a pipe.
_POOL_STATE: dict[str, Any] = {}

#: How often a dead worker's chunk is re-dispatched to a fresh worker
#: before the batch degrades to serial execution.
DEFAULT_MAX_RETRIES = 1

#: Adaptive chunking aims each dispatch at this much worker wall time:
#: large enough to amortise per-message IPC, small enough that a retry
#: after a worker death repeats little work.
_TARGET_CHUNK_S = 0.2

#: Hard ceiling on tasks per chunk regardless of how cheap tasks look.
_MAX_CHUNK = 64


def _worker_main(worker_id: int, task_recv: Any, result_send: Any) -> None:
    """Worker loop: pull chunks, run tasks, ship indexed results back.

    Each chunk's metric contributions are buffered in a
    :class:`~repro.obs.metrics.DeltaBuffer` and flushed as one delta at
    the chunk boundary; per-task trace events and wall durations travel
    in each task's meta, so the parent replays them in task order.
    """
    state = _POOL_STATE
    while True:
        try:
            msg = task_recv.recv()
        except (EOFError, OSError):
            break  # parent went away
        if msg[0] == "stop":
            break
        _, chunk_id, start_index, chunk_tasks = msg
        buffer = OBS.metrics.delta_buffer()
        results = []
        for offset, task in enumerate(chunk_tasks):
            index = start_index + offset
            began = time.perf_counter()
            try:
                if state.get("init") is not None and "ctx" not in state:
                    state["ctx"] = state["init"]()
                ok, payload = True, state["fn"](state.get("ctx"), task)
            except Exception:  # noqa: BLE001 - surfaced via TaskError
                ok, payload = False, traceback.format_exc(limit=8)
            meta: dict[str, Any] = {
                "dur_s": time.perf_counter() - began,
                "worker": os.getpid(),
            }
            if OBS.tracer.enabled:
                meta["events"] = OBS.tracer.take_child_events()
            results.append((index, ok, payload, meta))
        chunk_meta: dict[str, Any] = {"start": start_index}
        delta = buffer.flush()
        if delta is not None:
            chunk_meta["metrics"] = delta
        try:
            result_send.send(
                ("done", worker_id, chunk_id, results, chunk_meta)
            )
        except (BrokenPipeError, OSError):
            break


class _Worker:
    """Parent-side record of one persistent worker process."""

    __slots__ = ("proc", "task_conn", "result_conn", "assignment")

    def __init__(self, proc: Any, task_conn: Any, result_conn: Any) -> None:
        self.proc = proc
        self.task_conn = task_conn
        self.result_conn = result_conn
        self.assignment: tuple[int, int] | None = None  # [start, stop)


def _finalize_pool(workers: list[_Worker]) -> None:
    """Last-resort cleanup if a backend is garbage-collected unclosed."""
    for worker in workers:
        try:
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass
    workers.clear()


class PersistentPoolBackend:
    """Long-lived forked workers fed batched task chunks over pipes.

    The requested worker count is honoured exactly — host-CPU capping
    is the ``auto`` policy's job in
    :func:`~repro.engine.executor.factory.create_backend`, so explicit
    backends can oversubscribe (tests and benches rely on this to
    exercise real forking on small CI hosts).
    """

    name = "persistent"

    def __init__(
        self,
        workers: int = 2,
        chunk_size: int | None = None,
        progress: Callable[[int, int], None] | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        if workers < 1:
            raise ValueError(
                "PersistentPoolBackend needs at least one worker"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.progress = progress
        self.max_retries = max_retries
        self._workers: list[_Worker] = []
        self._fn: Callable[[Any, Any], Any] | None = None
        self._init: Callable[[], Any] | None = None
        self._task_s: float | None = None
        self._finalizer = weakref.finalize(self, _finalize_pool, self._workers)

    # ------------------------------------------------------------------
    def worker_pids(self) -> list[int]:
        """Live worker pids (test/diagnostic hook)."""
        return [w.proc.pid for w in self._workers if w.proc.is_alive()]

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: Sequence[Any],
        init: Callable[[], Any] | None = None,
    ) -> PoolReport:
        tasks = list(tasks)
        workers = min(self.workers, max(1, len(tasks)))
        if workers <= 1 or not fork_available():
            return run_with_batch_span(
                lambda: run_serial_tasks(
                    fn, tasks, init, progress=self.progress
                ),
                len(tasks),
                workers,
            )
        try:
            self._ensure_pool(fn, init, workers)
        except Exception:  # noqa: BLE001 - fork machinery unavailable
            report = PoolReport(
                results=[None] * len(tasks),
                workers=workers,
                degraded=True,
                backend=self.name,
            )
            return run_with_batch_span(
                lambda: run_serial_tasks(
                    fn, tasks, init, into=report, progress=self.progress
                ),
                len(tasks),
                workers,
            )
        try:
            return run_with_batch_span(
                lambda: self._run(fn, tasks, init), len(tasks), workers
            )
        except BaseException:
            # KeyboardInterrupt & friends: tear everything down before
            # propagating so no worker outlives us.
            self.close()
            raise

    def close(self) -> None:
        """Stop workers (join, escalate to kill)."""
        self._shutdown_workers()
        if _POOL_STATE.get("fn") is self._fn:
            _POOL_STATE.clear()
        # Pool teardown is a span-buffer boundary: everything replayed
        # from workers must be durable before the pool disappears.
        OBS.tracer.flush()

    def __enter__(self) -> "PersistentPoolBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- pool lifecycle ------------------------------------------------
    def _ensure_pool(
        self,
        fn: Callable[[Any, Any], Any],
        init: Callable[[], Any] | None,
        workers: int,
    ) -> None:
        if self._workers and (fn is not self._fn or init is not self._init):
            # A different workload needs a different inherited closure.
            self._shutdown_workers()
        self._fn, self._init = fn, init
        while len(self._workers) < workers:
            self._workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        # Flush buffered spans before forking: children inherit the
        # buffer and the sink fd, and although their pid-guarded flush
        # can never write, an empty inherited buffer keeps the invariant
        # that a killed worker costs at most its *own* unshipped events.
        OBS.tracer.flush()
        # Re-assert the inherited state on *every* fork: another backend
        # instance may have overwritten the module global since our last
        # spawn, and replacement workers must see our closure, not theirs.
        _POOL_STATE.clear()
        _POOL_STATE.update(fn=self._fn, init=self._init)
        ctx = multiprocessing.get_context("fork")
        task_recv, task_send = ctx.Pipe(duplex=False)
        result_recv, result_send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(len(self._workers), task_recv, result_send),
            daemon=True,
        )
        proc.start()
        task_recv.close()
        result_send.close()
        emit_health_event(
            "worker_spawn", worker=len(self._workers), pid=proc.pid
        )
        return _Worker(proc, task_send, result_recv)

    def _shutdown_workers(self) -> None:
        for worker in self._workers:
            try:
                worker.task_conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                worker.proc.kill()
                worker.proc.join(timeout=2.0)
            for conn in (worker.task_conn, worker.result_conn):
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        self._workers.clear()

    # -- batch execution -----------------------------------------------
    def _run(
        self,
        fn: Callable[[Any, Any], Any],
        tasks: list[Any],
        init: Callable[[], Any] | None,
    ) -> PoolReport:
        n = len(tasks)
        report = PoolReport(
            results=[None] * n,
            workers=len(self._workers),
            backend=self.name,
        )
        metas: list[dict[str, Any] | None] = [None] * n
        chunk_deltas: list[tuple[int, dict[str, Any]]] = []
        cursor = 0  # next undispatched task index
        chunk_seq = 0
        retry_queue: list[tuple[int, int]] = []
        attempts: dict[int, int] = {}  # chunk start -> dispatch count
        done = 0
        stop_feeding = False
        batch_t0 = time.perf_counter()

        def feed(worker: _Worker) -> bool:
            nonlocal cursor, chunk_seq
            if worker.assignment is not None:
                return True
            if retry_queue:
                start, stop = retry_queue.pop(0)
            elif cursor < n and not stop_feeding:
                start = cursor
                stop = min(n, start + self._chunk_span(n - cursor))
                cursor = stop
            else:
                return True  # nothing to hand out
            chunk_seq += 1
            attempts[start] = attempts.get(start, 0) + 1
            try:
                worker.task_conn.send(
                    ("chunk", chunk_seq, start, tasks[start:stop])
                )
            except (BrokenPipeError, OSError):
                retry_queue.insert(0, (start, stop))
                attempts[start] -= 1
                return False  # dead before it even got work
            worker.assignment = (start, stop)
            return True

        def feed_all() -> None:
            nonlocal stop_feeding
            for worker in list(self._workers):
                if worker.assignment is not None or not feed(worker):
                    if worker.assignment is None and not worker.proc.is_alive():
                        if not self._handle_death(
                            worker, retry_queue, attempts, report
                        ):
                            stop_feeding = True

        try:
            feed_all()
            while any(w.assignment is not None for w in self._workers) or (
                (retry_queue or cursor < n) and not stop_feeding
            ):
                busy = [w for w in self._workers if w.assignment is not None]
                if not busy:
                    # Workers all idle but work remains: top the pool up.
                    while len(self._workers) < report.workers:
                        self._workers.append(self._spawn())
                    feed_all()
                    continue
                by_result = {w.result_conn: w for w in busy}
                by_sentinel = {w.proc.sentinel: w for w in busy}
                ready = multiprocessing.connection.wait(
                    list(by_result) + list(by_sentinel), timeout=5.0
                )
                handled: set[int] = set()
                for item in ready:
                    worker = by_result.get(item) or by_sentinel.get(item)
                    if worker is None or id(worker) in handled:
                        continue
                    handled.add(id(worker))
                    payload = None
                    if item in by_result:
                        try:
                            payload = item.recv()
                        except (EOFError, OSError):
                            payload = None
                    if payload is None:
                        # Sentinel fired or the pipe died: worker is gone.
                        if not worker.proc.is_alive():
                            retry_ok = self._handle_death(
                                worker, retry_queue, attempts, report
                            )
                            if not retry_ok:
                                stop_feeding = True
                        continue
                    _, _, _, results, chunk_meta = payload
                    worker.assignment = None
                    durs = []
                    for index, ok, task_payload, meta in results:
                        metas[index] = meta
                        durs.append(meta["dur_s"])
                        if ok:
                            report.results[index] = task_payload
                        else:
                            report.errors.append(
                                TaskError(index, task_payload)
                            )
                        done += 1
                        if self.progress is not None:
                            self.progress(done, n)
                    delta = chunk_meta.get("metrics")
                    if delta is not None:
                        chunk_deltas.append((chunk_meta["start"], delta))
                    if durs:
                        mean = sum(durs) / len(durs)
                        if (
                            OBS.tracer.sampler is not None
                            and self._task_s is not None
                            and mean > 4.0 * self._task_s
                            and mean > 0.05
                        ):
                            # Wall-derived, so only detected while health
                            # sampling is opted in (determinism contract).
                            emit_health_event(
                                "slow_chunk",
                                start=chunk_meta["start"],
                                tasks=len(durs),
                                mean_s=round(mean, 4),
                                ema_s=round(self._task_s, 4),
                            )
                        self._task_s = (
                            mean
                            if self._task_s is None
                            else 0.5 * self._task_s + 0.5 * mean
                        )
                    # Liveness for `rhohammer follow`: worker trace spans
                    # only reach the file at batch end (parent-side
                    # replay), so emit rate-limited progress heartbeats.
                    OBS.tracer.heartbeat(
                        phase="pool.batch", done=done, tasks=n
                    )
                    if OBS.tracer.sampler is not None:
                        elapsed = time.perf_counter() - batch_t0
                        OBS.tracer.health_tick(
                            pids=[
                                w.proc.pid
                                for w in self._workers
                                if w.proc.is_alive()
                            ],
                            workers=len(self._workers),
                            done=done,
                            tasks=n,
                            queue_depth=(n - cursor)
                            + sum(stop - start for start, stop in retry_queue),
                            retries=report.retries,
                            throughput=round(done / elapsed, 4)
                            if elapsed > 0
                            else 0.0,
                        )
                    feed_all()
        except Exception:  # noqa: BLE001 - pool machinery failure
            report.degraded = True
            emit_health_event("degraded_serial", reason="pool_failure")
            self._shutdown_workers()
        # Reap anything the machinery left behind, in deterministic order.
        report.errors.sort(key=lambda err: err.index)
        self._absorb(report, metas, chunk_deltas)
        if stop_feeding:
            report.degraded = True
        if report.degraded or any(
            r is None for i, r in enumerate(report.results)
        ):
            settled = {err.index for err in report.errors}
            unsettled = [
                i
                for i, r in enumerate(report.results)
                if r is None and i not in settled
            ]
            if unsettled:
                run_serial_tasks(
                    fn, tasks, init, into=report, progress=self.progress
                )
        return report

    def _handle_death(
        self,
        worker: _Worker,
        retry_queue: list[tuple[int, int]],
        attempts: dict[int, int],
        report: PoolReport,
    ) -> bool:
        """Reap a dead worker; requeue its chunk if the retry budget allows.

        Returns ``False`` when the budget is exhausted — the caller stops
        feeding and the batch degrades to serial for the remainder.
        """
        assignment = worker.assignment
        worker.assignment = None
        worker.proc.join(timeout=2.0)
        for conn in (worker.task_conn, worker.result_conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        if worker in self._workers:
            self._workers.remove(worker)
        if OBS.metrics.enabled:
            OBS.metrics.counter("pool.worker_deaths").inc()
        emit_health_event(
            "worker_death",
            pid=worker.proc.pid,
            exitcode=worker.proc.exitcode,
            chunk_start=assignment[0] if assignment else None,
        )
        replacement_ok = True
        try:
            self._workers.append(self._spawn())
        except Exception:  # noqa: BLE001 - cannot fork replacements
            replacement_ok = False
        if assignment is None:
            if not replacement_ok:
                emit_health_event(
                    "degraded_serial", reason="respawn_failed"
                )
            return replacement_ok
        start, stop = assignment
        if attempts.get(start, 0) > self.max_retries or not replacement_ok:
            emit_health_event(
                "degraded_serial",
                reason="retry_budget"
                if replacement_ok
                else "respawn_failed",
                chunk_start=start,
            )
            return False
        report.retries += 1
        if OBS.metrics.enabled:
            OBS.metrics.counter("pool.chunk_retries").inc()
        emit_health_event(
            "chunk_retry",
            chunk_start=start,
            tasks=stop - start,
            attempt=attempts.get(start, 0),
        )
        retry_queue.insert(0, (start, stop))
        return True

    def _chunk_span(self, remaining: int) -> int:
        """Tasks for the next chunk, adapted to observed task cost."""
        if self.chunk_size:
            return min(self.chunk_size, remaining)
        workers = max(1, len(self._workers))
        if self._task_s is not None and self._task_s > 0:
            size = max(1, int(_TARGET_CHUNK_S / self._task_s))
        else:
            size = max(1, remaining // (workers * 4))
        fair = -(-remaining // workers)  # ceil: never starve the tail
        return max(1, min(size, fair, _MAX_CHUNK))

    def _absorb(
        self,
        report: PoolReport,
        metas: list[dict[str, Any] | None],
        chunk_deltas: list[tuple[int, dict[str, Any]]],
    ) -> None:
        """Deterministic telemetry absorption for chunked dispatch.

        Trace spans replay in task index order (shared helper); metric
        deltas arrive one per chunk and merge in ascending start-index
        order, which for additive counters/histograms reproduces the
        serial snapshot exactly and for gauges preserves the same
        task-order last-write-wins the per-task protocol has.
        """
        if not OBS.enabled:
            return
        absorb_worker_telemetry(report, metas)
        if OBS.metrics.enabled:
            for _, delta in sorted(chunk_deltas, key=lambda cd: cd[0]):
                OBS.metrics.merge(delta)
