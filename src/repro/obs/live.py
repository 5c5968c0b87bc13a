"""Live run following: one follower behind ``follow``, ``status`` and ``top``.

A recording run appends one JSON record per line to ``trace.jsonl`` and
flushes after every write (and fork workers never touch the file — their
events are buffered and replayed parent-side), so the stream is always
a prefix of valid records plus at most one partial line.  That makes
*tailing* it safe: the follower re-reads from its last offset, keeps the
trailing partial line in a buffer until its newline arrives, and folds
each complete record into a tiny state machine that renders one-line
phase progress::

    [214 ev] cli.fuzz › fuzz.campaign › pool.batch 3/6 | flips=41

Liveness during long quiet phases comes from opt-in heartbeat records
(``--heartbeat SECS`` on any run subcommand): the tracer emits
``{"ev": "heartbeat", "wall": {...}}`` lines at most every few seconds,
carrying the open-span stack and pool progress, so the follower can show
a run is alive even when no span boundary has been crossed.  Heartbeats
carry no ``id`` and live entirely under ``wall``; analytics tooling
ignores them.

:class:`TraceFollower` is the one fold over a trace stream that the
live views share: phase progress from spans, points and heartbeats, the
per-process fleet view from health records
(:class:`~repro.obs.health.FleetState`), and alert firings through
:meth:`~repro.obs.alerts.AlertEngine.feed` — the same fold ``analyze
--alerts`` runs post-hoc.  ``follow`` draws its one-line progress and
``top`` (:mod:`repro.obs.top`) its fleet view through one tail loop,
:func:`watch`; ``status`` draws the fleet view once.

The follower is read-only and stdlib-only; ``follow`` exits 0 once the
run's root span closes, 1 when the stream stalls past ``--timeout``, and
2 when no trace appears at all.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, IO, Sequence

from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.analyze import TRACE_FILENAME
from repro.obs.health import HEALTH_EV, FleetState

#: Span names whose end-attrs ``flips`` / point-attrs ``flips`` count as
#: run progress worth surfacing in the one-line display.
_FLIP_POINTS = ("fuzz.pattern", "sweep.location")


@dataclass
class _OpenSpan:
    span_id: int
    name: str
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)
    tasks_done: int = 0


@dataclass
class FollowState:
    """Everything the renderer needs, rebuilt record by record."""

    manifest: dict[str, Any] | None = None
    events: int = 0
    spans_opened: int = 0
    spans_closed: int = 0
    errors: int = 0
    flips: int = 0
    points: int = 0
    root_id: int | None = None
    done: bool = False
    exit_error: str | None = None
    heartbeat: dict[str, Any] | None = None
    open_spans: dict[int, _OpenSpan] = field(default_factory=dict)

    @property
    def stack_names(self) -> list[str]:
        return [span.name for span in self.open_spans.values()]


class TraceFollower:
    """Folds raw trace records into progress, fleet health and alerts.

    :attr:`state` is the phase progress (:class:`FollowState`),
    :attr:`fleet` the per-process health view, and :attr:`alerts` every
    firing in order — alert records recorded live and ``rules``
    evaluated here alike.
    """

    def __init__(self, rules: Sequence[AlertRule] = ()) -> None:
        self.state = FollowState()
        self.fleet = FleetState()
        self.engine = AlertEngine(rules)
        self.alerts: list[dict[str, Any]] = []

    def feed(self, record: dict[str, Any]) -> None:
        state = self.state
        state.events += 1
        kind = record.get("ev")
        if kind == "manifest":
            if state.manifest is None:
                state.manifest = record.get("data")
        elif kind == "heartbeat":
            state.heartbeat = dict(record.get("wall") or {})
        elif kind == "span" and record.get("ph") == "B":
            span = _OpenSpan(
                span_id=record.get("id", -1),
                name=record.get("name", "?"),
                parent=record.get("parent"),
                attrs=dict(record.get("attrs") or {}),
            )
            state.open_spans[span.span_id] = span
            state.spans_opened += 1
            if state.root_id is None:
                state.root_id = span.span_id
        elif kind == "span" and record.get("ph") == "E":
            span_id = record.get("id")
            attrs = record.get("attrs") or {}
            if attrs.get("error"):
                state.errors += 1
                if span_id == state.root_id:
                    state.exit_error = str(attrs["error"])
            span = state.open_spans.pop(span_id, None)
            state.spans_closed += 1
            if span is not None and span.name == "pool.task":
                parent = state.open_spans.get(span.parent)
                if parent is not None:
                    parent.tasks_done += 1
            if span_id == state.root_id:
                state.done = True
        elif kind == "point":
            state.points += 1
            name = record.get("name")
            attrs = record.get("attrs") or {}
            if name in _FLIP_POINTS:
                flips = attrs.get("flips")
                if isinstance(flips, (int, float)):
                    state.flips += int(flips)
        elif kind == HEALTH_EV:
            self.fleet.update(record.get("wall") or {})
        self.alerts.extend(self.engine.feed(record))

    def tick(self, now_t: float) -> None:
        """Live absence check between records (wall-clock driven)."""
        self.alerts.extend(self.engine.check_absence(now_t))

    # -- rendering -----------------------------------------------------
    def status_line(self) -> str:
        state = self.state
        parts: list[str] = [f"[{state.events} ev]"]
        chain = []
        for span in state.open_spans.values():
            label = span.name
            if span.name == "pool.batch":
                total = span.attrs.get("tasks")
                done = span.tasks_done
                hb = state.heartbeat or {}
                if hb.get("phase") == "pool.batch" and "done" in hb:
                    done = max(done, int(hb["done"]))
                if total:
                    label = f"pool.batch {done}/{total}"
            chain.append(label)
        if chain:
            parts.append(" › ".join(chain))
        elif state.done:
            parts.append("run finished")
        else:
            parts.append("waiting for spans")
        tail: list[str] = []
        if state.flips:
            tail.append(f"flips={state.flips}")
        if state.errors:
            tail.append(f"errors={state.errors}")
        if tail:
            parts.append("| " + " ".join(tail))
        return " ".join(parts)

    def final_line(self) -> str:
        state = self.state
        man = state.manifest or {}
        target = ""
        if man:
            target = (
                f" {man.get('command')} on "
                f"{man.get('platform')}/{man.get('dimm')} "
                f"seed={man.get('seed')}"
            )
        verdict = "finished"
        if state.exit_error:
            verdict = f"failed ({state.exit_error})"
        elif not state.done:
            verdict = "still running"
        return (
            f"run {verdict}:{target} — {state.events} event(s), "
            f"{state.spans_closed} span(s), flips={state.flips}, "
            f"errors={state.errors}"
        )


# ----------------------------------------------------------------------
# Tailing the file
# ----------------------------------------------------------------------
class _Tail:
    """Incremental reader keeping the trailing partial line buffered."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: IO[str] | None = None
        self._buffer = ""

    def open_if_present(self) -> bool:
        if self._fh is not None:
            return True
        try:
            self._fh = open(self.path, "r", encoding="utf-8")
        except OSError:
            return False
        return True

    def drain(self) -> list[dict[str, Any]]:
        """Every complete record appended since the last drain."""
        if self._fh is None:
            return []
        chunk = self._fh.read()
        if not chunk:
            return []
        data = self._buffer + chunk
        lines = data.split("\n")
        self._buffer = lines.pop()  # "" after a complete line
        records: list[dict[str, Any]] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write mid-run: skip, the stream recovers
            if isinstance(record, dict):
                records.append(record)
        return records

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def resolve_trace_path(path: str | os.PathLike[str]) -> str:
    """A run directory or trace file → the trace file to tail.

    Unlike the analytics loaders this never requires the file to exist
    yet — following may begin before the run has opened its stream.
    """
    p = pathlib.Path(path)
    if p.is_dir() or p.suffix != ".jsonl":
        return str(p / TRACE_FILENAME) if p.is_dir() or not p.suffix else str(p)
    return str(p)


def watch(
    path: str | os.PathLike[str],
    follower: TraceFollower,
    frame: Callable[[], str],
    summary: Callable[[], str],
    *,
    screen: bool,
    interval: float,
    timeout: float | None,
    once: bool,
    stream: IO[str] | None,
    clock: Callable[[], float],
    sleep: Callable[[float], None],
) -> int:
    """The tail loop behind ``follow`` and ``top``.

    Feeds each new record at ``path`` to ``follower`` and draws
    ``frame()`` when records arrive — redrawn in place on a terminal
    (one line, or the whole ``screen``), one line per change otherwise —
    and ends with ``summary()``.  ``timeout`` is the tolerated silence
    (no new records) in seconds, ``None`` waits forever; ``once``
    processes what exists and returns immediately (for scripts and
    tests).  Exit codes: 0 — the run's root span closed (or ``once``
    found records); 1 — the stream stalled past ``timeout`` (or ``once``
    found nothing yet); 2 — no trace file appeared at all.
    """
    out = stream if stream is not None else sys.stdout
    trace_path = resolve_trace_path(path)
    tail = _Tail(trace_path)
    interactive = hasattr(out, "isatty") and out.isatty()
    last_data = clock()
    shown = ""
    line_open = False

    def draw(text: str) -> None:
        nonlocal shown, line_open
        if text == shown:
            return
        shown = text
        if not interactive:
            out.write(text + "\n")
        elif screen:
            out.write("\x1b[H\x1b[2J" + text + "\n")
        else:
            out.write("\r\x1b[2K" + text)
            line_open = True
        out.flush()

    def finish(*texts: str) -> None:
        # End an open progress line first.  Off a terminal, a final
        # text repeating the last frame is not written twice; on one it
        # is, so it survives the frame's screen clear.
        if line_open:
            out.write("\n")
        for text in texts:
            if interactive or text != shown:
                out.write(text + "\n")
        out.flush()

    try:
        while True:
            opened = tail.open_if_present()
            records = tail.drain() if opened else []
            for record in records:
                follower.feed(record)
            if records:
                last_data = clock()
            if follower.fleet.last_t:
                # Wall-clock absence rules (no heartbeat for Ns) keep
                # ticking between records.
                follower.tick(time.time())
            if records:
                draw(frame())
            if follower.state.done or (once and follower.state.events):
                finish(summary())
                return 0
            if once:
                finish(f"no trace records at {trace_path} yet")
                return 1 if opened else 2
            if timeout is not None and clock() - last_data > timeout:
                if not opened:
                    finish(
                        f"error: no trace appeared at {trace_path} "
                        f"within {timeout:.0f}s"
                    )
                    return 2
                note = f"stream stalled for {timeout:.0f}s"
                if screen:
                    finish(summary(), note)
                else:
                    finish(f"{note} — {summary()}")
                return 1
            sleep(interval)
    except KeyboardInterrupt:
        finish(summary())
        return 0
    finally:
        tail.close()


def follow(
    path: str | os.PathLike[str],
    interval: float = 0.5,
    timeout: float | None = 30.0,
    once: bool = False,
    stream: IO[str] | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Tail one run's trace stream and render live phase progress.

    One status line per change, then the run's final line; the
    arguments and exit codes are :func:`watch`'s.
    """
    follower = TraceFollower()
    return watch(
        path, follower, follower.status_line, follower.final_line,
        screen=False, interval=interval, timeout=timeout, once=once,
        stream=stream, clock=clock, sleep=sleep,
    )
