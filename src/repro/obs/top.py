"""Fleet views: ``rhohammer status`` (one-shot) and ``rhohammer top`` (live).

Both render the one :class:`~repro.obs.live.TraceFollower` that also
drives ``follow``: it folds the run's trace stream — spans, heartbeats,
health samples, structured events, alert records — into a per-worker
fleet table with utilization, RSS, throughput and any firing alerts.
``top`` redraws it through ``follow``'s tail loop
(:func:`~repro.obs.live.watch`).

Exit codes: ``status`` returns 2 when no trace exists, 1 when any alert
is firing, else 0.  ``top`` mirrors ``follow``: 0 once the run's root
span closes (or ``--once`` found records), 1 on a stalled stream, 2 when
no trace appears.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import IO, Any, Callable, Sequence

from repro.obs.alerts import AlertRule
from repro.obs.health import format_bytes
from repro.obs.live import TraceFollower, _Tail, resolve_trace_path, watch


def _fmt_pct(value: float | None) -> str:
    return f"{value * 100:.0f}%" if value is not None else "-"


def render_fleet(follower: TraceFollower) -> str:
    """The multi-line fleet view for one follower state."""
    state = follower.state
    fleet = follower.fleet
    lines: list[str] = []
    man = state.manifest or {}
    if man:
        lines.append(
            f"run      : {man.get('command')} on {man.get('platform')}"
            f"/{man.get('dimm')} seed={man.get('seed')}"
        )
    lines.append(f"phase    : {follower.status_line()}")
    pool = fleet.pool
    if pool:
        parts = []
        if pool.get("tasks"):
            parts.append(f"done={pool.get('done', 0)}/{pool['tasks']}")
        if pool.get("throughput") is not None:
            parts.append(f"throughput={pool['throughput']:.2f}/s")
        if pool.get("queue_depth") is not None:
            parts.append(f"queue={pool['queue_depth']}")
        if pool.get("retries") is not None:
            parts.append(f"retries={pool['retries']}")
        if pool.get("memo_hit_rate") is not None:
            parts.append(f"memo={pool['memo_hit_rate'] * 100:.1f}%")
        if parts:
            lines.append("pool     : " + " ".join(parts))
    rows = fleet.rows()
    if rows:
        lines.append("procs    :")
        lines.append(
            f"  {'ROLE':<7} {'W':<3} {'PID':<8} {'RSS':>8} "
            f"{'CPU':>8} {'UTIL':>5} {'FDS':>4}"
        )
        for proc in rows:
            worker = "-" if proc.worker is None else str(proc.worker)
            fds = "-" if proc.open_fds is None else str(proc.open_fds)
            lines.append(
                f"  {proc.role:<7} {worker:<3} {proc.pid:<8} "
                f"{format_bytes(proc.rss_bytes):>8} "
                f"{proc.cpu_s:>7.1f}s {_fmt_pct(proc.utilization):>5} "
                f"{fds:>4}"
            )
    if fleet.events:
        lines.append(
            "events   : "
            + " ".join(
                f"{kind}={count}"
                for kind, count in sorted(fleet.events.items())
            )
        )
    if follower.alerts:
        lines.append("alerts   :")
        for alert in follower.alerts:
            lines.append(
                f"  [{alert.get('severity', 'warning')}] "
                f"{alert.get('rule')}: {alert.get('message', '')}"
            )
    return "\n".join(lines)


def fleet_dict(follower: TraceFollower) -> dict[str, Any]:
    """JSON-ready status payload (``rhohammer status --json``)."""
    state = follower.state
    fleet = follower.fleet
    return {
        "manifest": state.manifest,
        "done": state.done,
        "events": state.events,
        "flips": state.flips,
        "errors": state.errors,
        "pool": dict(fleet.pool),
        "health_events": dict(sorted(fleet.events.items())),
        "procs": [
            {
                "pid": proc.pid,
                "role": proc.role,
                "worker": proc.worker,
                "cpu_s": proc.cpu_s,
                "rss_bytes": proc.rss_bytes,
                "open_fds": proc.open_fds,
                "utilization": proc.utilization,
            }
            for proc in fleet.rows()
        ],
        "alerts": list(follower.alerts),
    }


def status(
    path: str | os.PathLike[str],
    rules: Sequence[AlertRule] = (),
    stream: IO[str] | None = None,
    json_out: bool = False,
) -> int:
    """One-shot fleet view over whatever the trace holds right now."""
    out = stream if stream is not None else sys.stdout
    trace_path = resolve_trace_path(path)
    tail = _Tail(trace_path)
    if not tail.open_if_present():
        out.write(f"error: no trace at {trace_path}\n")
        return 2
    follower = TraceFollower(rules)
    try:
        for record in tail.drain():
            follower.feed(record)
    finally:
        tail.close()
    if json_out:
        out.write(json.dumps(fleet_dict(follower), indent=2) + "\n")
    else:
        out.write(render_fleet(follower) + "\n")
    return 1 if follower.alerts else 0


def top(
    path: str | os.PathLike[str],
    interval: float = 1.0,
    timeout: float | None = 30.0,
    once: bool = False,
    rules: Sequence[AlertRule] = (),
    stream: IO[str] | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Live fleet view, redrawn as the trace stream grows."""
    follower = TraceFollower(rules)

    def view() -> str:
        return render_fleet(follower)

    return watch(
        path, follower, view, view,
        screen=True, interval=interval, timeout=timeout, once=once,
        stream=stream, clock=clock, sleep=sleep,
    )
