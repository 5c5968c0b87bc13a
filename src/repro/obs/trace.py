"""Span tracer: nested phases as a deterministic JSONL event stream.

Every record is one JSON object per line.  Three event kinds:

* ``{"ev": "span", "ph": "B", "id": N, "parent": P, "name": ..., "attrs": {...}, "wall": {...}}``
  opens span ``N`` under ``P`` (``null`` at the root);
* ``{"ev": "span", "ph": "E", "id": N, "attrs": {...}, "wall": {...}}``
  closes it — end attrs carry the *virtual simulated* durations
  (``virtual_ns`` / ``virtual_s``) and outcome counts;
* ``{"ev": "point", ...}`` / ``{"ev": "manifest", ...}`` are single
  instantaneous records;
* ``{"ev": "heartbeat", "wall": {...}}`` is an opt-in liveness record for
  ``rhohammer follow`` (see :mod:`repro.obs.live`).  Heartbeats carry no
  ``id`` — the deterministic id sequence is untouched — and every field
  lives under ``wall``, so :func:`strip_wall` reduces each one to
  ``{"ev": "heartbeat"}`` and same-seed streams only differ in how many
  of those lines appear, which analytics readers ignore;
* ``{"ev": "health", "wall": {...}}`` / ``{"ev": "alert", "wall": {...}}``
  follow the same id-free shape: resource samples and structured fleet
  events (see :mod:`repro.obs.health`) and rule firings (see
  :mod:`repro.obs.alerts`).  Structural events are deterministic in
  count; wall-derived samples only appear when health sampling is opted
  into via ``configure(health_s=...)``.

**Determinism contract:** every nondeterministic value — wall-clock
timestamps, wall durations, worker pids — lives under the record's
``"wall"`` key and nowhere else.  Two runs with the same seed therefore
produce byte-identical streams after :func:`strip_wall`; this is asserted
by the test suite and is what makes traces diffable across runs.

**Fork safety:** executor-backend workers inherit the live tracer
through ``fork``.  A tracer detects it is running in a child (pid
mismatch) and diverts events to an in-memory buffer instead of the
parent's file handle; the pool ships each task's buffered events back and
:meth:`SpanTracer.replay` re-emits them under the task's span with ids
remapped into the parent's id space.

**Buffered emission:** records are serialised into an in-memory buffer
and written to the file sink in chunks — when the buffer reaches
``flush_records`` records, when ``flush_interval_s`` has elapsed since
the last flush, on every heartbeat (``rhohammer follow`` liveness), at
executor-pool teardown, and at ``shutdown()``/``atexit``.  Each flush
writes whole lines in a single ``write`` call, so a crash mid-run
truncates at most the final line (which ``read_trace(strict=False)``
skips) and loses at most one unflushed buffer.  :meth:`SpanTracer.flush`
is pid-guarded: a fork child inheriting a non-empty buffer can never
write it to the shared descriptor.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from typing import Any, Callable, IO, Iterator

#: The one key that may hold nondeterministic values in a trace record.
WALL_KEY = "wall"

#: Trace detail levels: ``phase`` records campaign/trial/task phases;
#: ``window`` additionally records one point per DRAM refresh window.
DETAIL_LEVELS = ("phase", "window")

#: Default emission buffering: records are serialised into an in-memory
#: buffer and written to the sink in one chunk when the buffer holds this
#: many records ...
DEFAULT_FLUSH_RECORDS = 256
#: ... or when this many seconds have passed since the last flush (the
#: staleness check runs on each emission, so an idle tracer stays idle).
DEFAULT_FLUSH_INTERVAL_S = 0.5


class _NoopSpan:
    """Context manager handed out by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        pass

    def set_wall(self, **wall: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """One live span; use via ``with tracer.span(...) as sp``."""

    __slots__ = ("tracer", "span_id", "_end_attrs", "_end_wall", "_t0")

    def __init__(self, tracer: "SpanTracer", span_id: int) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self._end_attrs: dict[str, Any] = {}
        self._end_wall: dict[str, Any] = {}
        self._t0 = time.perf_counter()

    def set(self, **attrs: Any) -> None:
        """Attach deterministic attributes to the span's end record."""
        self._end_attrs.update(attrs)

    def set_wall(self, **wall: Any) -> None:
        """Attach nondeterministic facts (worker pid, queue delay, ...)."""
        self._end_wall.update(wall)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._end_attrs.setdefault("error", exc_type.__name__)
        self.tracer._end_span(self, self._end_attrs)


class SpanTracer:
    """Emits the JSONL stream; disabled (all no-ops) until configured."""

    def __init__(self) -> None:
        self.enabled = False
        self.detail = "phase"
        #: Minimum seconds between heartbeat records; ``None`` disables.
        self.heartbeat_s: float | None = None
        #: Optional :class:`repro.obs.health.ResourceSampler`; set via
        #: ``configure(health_s=...)``, ticked on emission and by the
        #: persistent pool's result loop.
        self.sampler: Any | None = None
        #: Optional :class:`repro.obs.alerts.AlertEngine`; when set,
        #: every health/heartbeat payload is offered to it and firings
        #: are appended to the stream as ``alert`` records.
        self.alerts: Any | None = None
        self._sink: IO[str] | None = None
        self._owns_sink = False
        self._memory: list[dict[str, Any]] | None = None
        self._pid = os.getpid()
        self._child_events: list[dict[str, Any]] = []
        self._next_id = 1
        self._stack: list[int] = []
        self._stack_names: list[str] = []
        self._last_heartbeat = 0.0
        #: Serialised-but-unwritten JSONL lines (see :meth:`flush`).
        self._buffer: list[str] = []
        self._flush_records = DEFAULT_FLUSH_RECORDS
        self._flush_interval_s = DEFAULT_FLUSH_INTERVAL_S
        self._last_flush = 0.0
        self._atexit_registered = False

    # -- lifecycle -----------------------------------------------------
    def configure(
        self,
        path: str | os.PathLike[str] | None = None,
        memory: bool = False,
        detail: str = "phase",
        heartbeat_s: float | None = None,
        health_s: float | None = None,
        flush_records: int = DEFAULT_FLUSH_RECORDS,
        flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
    ) -> None:
        """Start a fresh stream to ``path`` (or an in-memory list).

        ``heartbeat_s`` opts into liveness records at most every that
        many seconds (off by default — heartbeats are nondeterministic
        in count, so only follow-minded runs enable them).

        ``health_s`` opts into fleet resource sampling at most every
        that many seconds: id-free ``health`` records carrying /proc
        CPU/RSS/fd samples for the parent and pool workers (see
        :mod:`repro.obs.health`).

        ``flush_records`` / ``flush_interval_s`` bound how much emission
        is buffered before a chunked write reaches the sink (see
        :meth:`flush` for the crash-safety guarantees).
        """
        if detail not in DETAIL_LEVELS:
            raise ValueError(f"trace detail must be one of {DETAIL_LEVELS}")
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if health_s is not None and health_s <= 0:
            raise ValueError("health_s must be positive")
        if flush_records < 1:
            raise ValueError("flush_records must be >= 1")
        if flush_interval_s <= 0:
            raise ValueError("flush_interval_s must be positive")
        self.shutdown()
        if path is not None:
            self._sink = open(path, "w", encoding="utf-8")
            self._owns_sink = True
        elif memory:
            self._memory = []
        else:
            return
        self.enabled = True
        self.detail = detail
        self.heartbeat_s = heartbeat_s
        if health_s is not None:
            from repro.obs.health import ResourceSampler

            self.sampler = ResourceSampler(health_s)
        self._pid = os.getpid()
        self._child_events = []
        self._next_id = 1
        self._stack = []
        self._stack_names = []
        self._last_heartbeat = time.monotonic()
        self._buffer = []
        self._flush_records = flush_records
        self._flush_interval_s = flush_interval_s
        self._last_flush = time.monotonic()
        if not self._atexit_registered:
            # Backstop for processes that never reach a clean
            # ``shutdown()``: flush (not close) whatever is buffered.
            atexit.register(self.flush)
            self._atexit_registered = True

    def flush(self) -> None:
        """Write every buffered record to the sink in one chunk.

        Safe to call at any time, from any process: only the process that
        configured the tracer may touch the sink (fork children inherit
        the buffer *and* the file descriptor, so an unguarded flush would
        duplicate the parent's buffered lines).  Each flush is a single
        ``write`` of whole lines followed by a file flush, so a crash can
        only ever truncate the final line of the file — the partial-tail
        shape ``read_trace(strict=False)`` already tolerates — and loses
        at most one buffer's worth of unflushed records.
        """
        if os.getpid() != self._pid:
            return
        if self._buffer:
            lines, self._buffer = self._buffer, []
            if self._sink is not None:
                self._sink.write("".join(lines))
                self._sink.flush()
        self._last_flush = time.monotonic()

    def shutdown(self) -> None:
        """Flush, close the stream, and return to the disabled state."""
        if self._sink is not None and self._owns_sink:
            self.flush()
            if os.getpid() == self._pid:
                self._sink.close()
        self._buffer = []
        self._sink = None
        self._owns_sink = False
        self._memory = None
        self.enabled = False
        self.detail = "phase"
        self.heartbeat_s = None
        self.sampler = None
        self.alerts = None
        self._stack = []
        self._stack_names = []
        self._child_events = []

    @property
    def memory_events(self) -> list[dict[str, Any]]:
        """The in-memory stream (only when configured with ``memory=True``)."""
        return list(self._memory or [])

    # -- emission ------------------------------------------------------
    def _emit(self, record: dict[str, Any]) -> None:
        if os.getpid() != self._pid:
            # fork child: never touch the parent's sink; buffer for the
            # pool to ship back (see module docstring).
            self._child_events.append(record)
            return
        self._write(record)
        if self.heartbeat_s is not None:
            self.heartbeat()
        if self.sampler is not None:
            self.health_tick()

    def _write(self, record: dict[str, Any]) -> None:
        if self._memory is not None:
            self._memory.append(record)
        if self._sink is not None:
            self._buffer.append(
                json.dumps(record, separators=(",", ":")) + "\n"
            )
            if (
                len(self._buffer) >= self._flush_records
                or time.monotonic() - self._last_flush
                >= self._flush_interval_s
            ):
                self.flush()

    def heartbeat(self, **wall: Any) -> None:
        """Emit an id-free liveness record (rate-limited, parent-only).

        Hot paths may call this freely: it is a no-op unless heartbeats
        were opted into via ``configure(heartbeat_s=...)``, at least that
        interval has elapsed, and we are the parent process (children
        drop heartbeats rather than buffering nondeterministic noise for
        replay).  Extra keyword values land under ``wall`` alongside the
        current open-span stack.
        """
        if not self.enabled or self.heartbeat_s is None:
            return
        if os.getpid() != self._pid:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < self.heartbeat_s:
            return
        self._last_heartbeat = now
        payload: dict[str, Any] = {
            "t": time.time(),
            "stack": list(self._stack_names),
            **wall,
        }
        if self._stack_names:
            payload.setdefault("phase", self._stack_names[-1])
        self._write({"ev": "heartbeat", WALL_KEY: payload})
        self._observe_alerts(payload, ev="heartbeat")
        # Heartbeats exist for ``rhohammer follow`` liveness: write
        # through the emission buffer so the tail of the file moves.
        self.flush()

    def health_event(self, kind: str, **wall: Any) -> None:
        """Emit one id-free structured health record (parent-only).

        Like heartbeats, every field — including ``kind`` — lives under
        ``wall``, so :func:`strip_wall` reduces the record to
        ``{"ev": "health"}`` and the span-id sequence is untouched.
        Prefer :func:`repro.obs.health.emit_health_event`, which also
        bumps the matching ``health.<kind>`` counter.
        """
        if not self.enabled:
            return
        if os.getpid() != self._pid:
            return
        payload: dict[str, Any] = {"t": time.time(), "kind": kind, **wall}
        self._write({"ev": "health", WALL_KEY: payload})
        self._observe_alerts(payload)
        self.flush()

    def health_tick(self, pids: Any = None, **pool: Any) -> None:
        """Offer the resource sampler a chance to emit (rate-limited).

        The persistent pool's result loop calls this with the live
        worker ``pids`` and pool statistics; plain emission calls it
        bare so parent self-samples flow even in serial runs.  No-op
        without a sampler (``configure(health_s=...)``), outside the
        parent process, or while the sampling interval has not elapsed.
        """
        sampler = self.sampler
        if sampler is None or not self.enabled:
            return
        if os.getpid() != self._pid:
            return
        if pids is not None or pool:
            sampler.update_pool(pids=pids, **pool)
        payloads = sampler.tick()
        if not payloads:
            return
        for payload in payloads:
            self._write({"ev": "health", WALL_KEY: payload})
            self._observe_alerts(payload)
        # Health records feed ``rhohammer top`` liveness: move the tail.
        self.flush()

    def _observe_alerts(self, payload: dict[str, Any], ev: str = "health") -> None:
        """Offer one wall payload to the alert engine; record firings."""
        if self.alerts is None:
            return
        for alert in self.alerts.observe(payload, ev=ev):
            self._write({"ev": "alert", WALL_KEY: {"t": time.time(), **alert}})

    def span(self, name: str, **attrs: Any) -> Span | _NoopSpan:
        """Open a nested span; close it by leaving the ``with`` block."""
        if not self.enabled:
            return NOOP_SPAN
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self._stack_names.append(name)
        self._emit(
            {
                "ev": "span",
                "ph": "B",
                "id": span_id,
                "parent": parent,
                "name": name,
                "attrs": attrs,
                WALL_KEY: {"t": time.time()},
            }
        )
        return Span(self, span_id)

    def _end_span(self, span: Span, attrs: dict[str, Any]) -> None:
        if not self.enabled:
            return
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
            self._stack_names.pop()
        elif span.span_id in self._stack:  # tolerate out-of-order exits
            idx = self._stack.index(span.span_id)
            del self._stack[idx]
            del self._stack_names[idx]
        self._emit(
            {
                "ev": "span",
                "ph": "E",
                "id": span.span_id,
                "attrs": attrs,
                WALL_KEY: {
                    "t": time.time(),
                    "dur_s": time.perf_counter() - span._t0,
                    **span._end_wall,
                },
            }
        )

    def point(self, name: str, wall: dict[str, Any] | None = None, **attrs: Any) -> None:
        """One instantaneous record under the current span."""
        if not self.enabled:
            return
        record_id = self._next_id
        self._next_id += 1
        self._emit(
            {
                "ev": "point",
                "id": record_id,
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "attrs": attrs,
                WALL_KEY: {"t": time.time(), **(wall or {})},
            }
        )

    def manifest(self, data: dict[str, Any], wall: dict[str, Any] | None = None) -> None:
        """The stream header: the run's manifest as the first record."""
        if not self.enabled:
            return
        self._emit({"ev": "manifest", "data": data, WALL_KEY: wall or {}})

    # -- fork-worker replay --------------------------------------------
    def take_child_events(self) -> list[dict[str, Any]]:
        """(Worker side.) Drain events buffered since the last drain."""
        events, self._child_events = self._child_events, []
        return events

    def replay(
        self, events: list[dict[str, Any]], parent_id: int | None
    ) -> None:
        """(Parent side.) Re-emit a worker's buffered events.

        Ids are remapped into this tracer's id space in replay order —
        deterministic because the pool replays tasks in task order.
        References to spans that were opened before the fork (or ids never
        seen in this buffer) are reparented onto ``parent_id``.
        """
        if not self.enabled:
            return
        id_map: dict[int, int] = {}
        for record in events:
            record = dict(record)
            old_id = record.get("id")
            if old_id is not None:
                if record.get("ev") == "span" and record.get("ph") == "E":
                    record["id"] = id_map.get(old_id, old_id)
                else:
                    new_id = self._next_id
                    self._next_id += 1
                    id_map[old_id] = new_id
                    record["id"] = new_id
            if "parent" in record:
                record["parent"] = id_map.get(record["parent"], parent_id)
            self._emit(record)


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------
def read_trace(
    path: str | os.PathLike[str],
    *,
    strict: bool = True,
    on_skip: Callable[[int, str], None] | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield every record of a JSONL trace file.

    ``strict=True`` (the default) raises on malformed lines.  With
    ``strict=False`` a truncated or corrupt line — e.g. the tail of a run
    killed mid-write — is skipped instead, and ``on_skip(lineno, line)``
    is invoked for each skipped line so callers can count and report
    them.  A line holding valid JSON that is not an object (the schema
    requires one object per line) counts as corrupt too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if strict:
                    raise
                if on_skip is not None:
                    on_skip(lineno, line)
                continue
            if not isinstance(record, dict):
                if strict:
                    raise ValueError(
                        f"trace line {lineno} is not a JSON object: {line[:80]}"
                    )
                if on_skip is not None:
                    on_skip(lineno, line)
                continue
            yield record


def strip_wall(record: dict[str, Any]) -> dict[str, Any]:
    """The record without its nondeterministic ``wall`` section."""
    return {k: v for k, v in record.items() if k != WALL_KEY}
