"""Fleet health telemetry: resource sampling and structured events.

Long unattended campaigns run on the persistent worker pool, whose only
liveness signal used to be the opt-in heartbeat line.  This module adds
the operational layer:

* :class:`ResourceSampler` — a stdlib-only ``/proc`` sampler (CPU time,
  RSS, open fds) for the parent and every live worker pid, plus pool
  statistics (chunk throughput, queue depth, retries, memo-cache hit
  rate).  The tracer owns one when configured with ``health_s`` and
  emits its payloads as id-free ``{"ev": "health", ...}`` records;
* :func:`emit_health_event` — structural fleet events (worker
  spawn/death, chunk retry, degraded-serial fallback, slow chunks)
  recorded as typed ``health`` records with matching ``health.<kind>``
  counters;
* :class:`FleetState` — folds health records back into a live per-worker
  view for ``rhohammer status`` / ``rhohammer top``;
* :func:`summarize_health` — the per-run rollup (peak RSS, event counts,
  last throughput) persisted by the run registry for cross-PR trends.

**Determinism contract:** like heartbeats, health and alert records carry
no ``id`` and every field lives under ``wall``, so
:func:`~repro.obs.trace.strip_wall` reduces each one to ``{"ev":
"health"}`` and the span-id sequence is untouched.  Structural events are
deterministic in count for a given configuration; the wall-derived ones
(resource samples, slow-chunk detections) are only emitted when health
sampling is opted into via ``--health SECS``.  Matching ``health.*``
metric counters are likewise excluded from serial-vs-parallel snapshot
identity (documented in ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Record kind for id-free health records (samples and structured events).
HEALTH_EV = "health"
#: Record kind for alert records emitted by :mod:`repro.obs.alerts`.
ALERT_EV = "alert"

#: The structured fleet event vocabulary.  Everything here is a
#: *structural* fact (deterministic in count for a fixed configuration)
#: except ``slow_chunk``, which is wall-derived and therefore only
#: detected while health sampling is enabled.
EVENT_KINDS = (
    "worker_spawn",
    "worker_death",
    "chunk_retry",
    "degraded_serial",
    "slow_chunk",
)

try:
    _CLK_TCK = float(os.sysconf("SC_CLK_TCK"))
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _CLK_TCK = 100.0

try:
    import resource as _resource

    _PAGE_BYTES = _resource.getpagesize()
except Exception:  # pragma: no cover - non-POSIX fallback
    _resource = None
    _PAGE_BYTES = 4096


# ----------------------------------------------------------------------
# Per-process sampling
# ----------------------------------------------------------------------
def _proc_sample(pid: int) -> dict[str, Any] | None:
    """CPU seconds, RSS bytes and fd count from ``/proc/<pid>/``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    try:
        # Fields after the parenthesised comm (which may itself contain
        # spaces): index 0 is state (field 3), so utime/stime/rss —
        # fields 14, 15 and 24 — land at indices 11, 12 and 21.
        rest = stat.rsplit(")", 1)[1].split()
        utime, stime = int(rest[11]), int(rest[12])
        rss_pages = int(rest[21])
    except (IndexError, ValueError):
        return None
    sample: dict[str, Any] = {
        "pid": pid,
        "cpu_s": round((utime + stime) / _CLK_TCK, 3),
        "rss_bytes": rss_pages * _PAGE_BYTES,
    }
    try:
        sample["open_fds"] = len(os.listdir(f"/proc/{pid}/fd"))
    except OSError:
        pass
    return sample


def _rusage_sample() -> dict[str, Any] | None:
    """Self-only fallback for hosts without ``/proc`` (macOS, BSDs)."""
    if _resource is None:  # pragma: no cover
        return None
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS; Linux always has /proc,
    # so reaching this branch means the bytes interpretation applies —
    # but scale KiB defensively when the value looks page-granular.
    maxrss = usage.ru_maxrss
    if maxrss and maxrss < 1 << 20:
        maxrss *= 1024
    return {
        "pid": os.getpid(),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "rss_bytes": int(maxrss),
    }


def sample_process(pid: int | None = None) -> dict[str, Any] | None:
    """One resource sample for ``pid`` (default: this process).

    Returns ``None`` when the process is gone or unreadable — callers
    skip dead workers rather than fabricating numbers.
    """
    target = os.getpid() if pid is None else int(pid)
    sample = _proc_sample(target)
    if sample is None and target == os.getpid():
        sample = _rusage_sample()
    return sample


def _memo_stats() -> dict[str, Any]:
    """Executor memo-cache hit statistics from the live metric registry."""
    from repro.obs import OBS

    hits = OBS.metrics.counter_value("cpu.executor.cache_hits")
    misses = OBS.metrics.counter_value("cpu.executor.cache_misses")
    if hits is None and misses is None:
        return {}
    hits, misses = int(hits or 0), int(misses or 0)
    stats: dict[str, Any] = {"memo_hits": hits, "memo_misses": misses}
    if hits + misses:
        stats["memo_hit_rate"] = round(hits / (hits + misses), 4)
    return stats


class ResourceSampler:
    """Rate-limited fleet resource sampler owned by the parent tracer.

    ``tick()`` returns the payloads due for emission — one ``sample``
    per live process (parent first, then each registered worker pid) and
    one ``pool`` payload when pool statistics have been reported — or an
    empty list when the interval has not yet elapsed.  The executor
    refreshes worker pids and pool statistics via :meth:`update_pool`;
    the parent reads ``/proc/<pid>/`` directly, so no extra pipe
    round-trip is needed.
    """

    def __init__(
        self,
        interval_s: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("health interval_s must be positive")
        self.interval_s = interval_s
        self._clock = clock
        self._last = clock()
        self._pids: list[int] = []
        self._pool: dict[str, Any] | None = None
        self.samples_emitted = 0

    def update_pool(
        self, pids: Iterable[int] | None = None, **stats: Any
    ) -> None:
        """Record the latest worker pids and pool statistics."""
        if pids is not None:
            self._pids = [int(p) for p in pids]
        if stats:
            pool = dict(self._pool or {})
            pool.update(stats)
            self._pool = pool

    def due(self) -> bool:
        return self._clock() - self._last >= self.interval_s

    def tick(self) -> list[dict[str, Any]]:
        """The health payloads due now (``[]`` while rate-limited)."""
        if not self.due():
            return []
        self._last = self._clock()
        now = time.time()
        payloads: list[dict[str, Any]] = []
        parent = sample_process()
        if parent is not None:
            payloads.append(
                {"t": now, "kind": "sample", "role": "parent", **parent}
            )
        for worker_index, pid in enumerate(self._pids):
            sample = sample_process(pid)
            if sample is not None:
                payloads.append(
                    {
                        "t": now,
                        "kind": "sample",
                        "role": "worker",
                        "worker": worker_index,
                        **sample,
                    }
                )
        if self._pool:
            payloads.append(
                {"t": now, "kind": "pool", **self._pool, **_memo_stats()}
            )
        self.samples_emitted += len(payloads)
        return payloads


# ----------------------------------------------------------------------
# Structured events
# ----------------------------------------------------------------------
def emit_health_event(kind: str, **fields: Any) -> None:
    """Record one structured fleet event (parent-side only).

    Increments the matching ``health.<kind>`` counter and, when tracing,
    writes an id-free ``health`` record whose payload lives entirely
    under ``wall``.  A no-op while telemetry is disabled, so executor
    code may call it unconditionally.
    """
    from repro.obs import OBS

    if not OBS.enabled:
        return
    if OBS.metrics.enabled:
        OBS.metrics.counter(f"health.{kind}").inc()
    OBS.tracer.health_event(kind, **fields)


# ----------------------------------------------------------------------
# Folding records back into fleet state
# ----------------------------------------------------------------------
@dataclass
class ProcessHealth:
    """Latest known resource state of one fleet process."""

    pid: int
    role: str = "worker"
    worker: int | None = None
    cpu_s: float = 0.0
    rss_bytes: int = 0
    open_fds: int | None = None
    last_t: float = 0.0
    utilization: float | None = None

    def update(self, wall: dict[str, Any]) -> None:
        t = float(wall.get("t") or 0.0)
        cpu_s = float(wall.get("cpu_s") or 0.0)
        if self.last_t and t > self.last_t and cpu_s >= self.cpu_s:
            self.utilization = min(
                1.0, (cpu_s - self.cpu_s) / (t - self.last_t)
            )
        self.cpu_s = cpu_s
        self.rss_bytes = int(wall.get("rss_bytes") or self.rss_bytes)
        if wall.get("open_fds") is not None:
            self.open_fds = int(wall["open_fds"])
        if wall.get("worker") is not None:
            self.worker = int(wall["worker"])
        self.role = str(wall.get("role") or self.role)
        self.last_t = t


@dataclass
class FleetState:
    """Per-worker health view rebuilt record by record (status/top)."""

    procs: dict[int, ProcessHealth] = field(default_factory=dict)
    pool: dict[str, Any] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=dict)
    samples: int = 0
    last_t: float = 0.0

    def update(self, wall: dict[str, Any]) -> None:
        """Fold one ``health`` record's wall payload into the view."""
        kind = wall.get("kind")
        self.last_t = float(wall.get("t") or self.last_t)
        if kind == "sample":
            self.samples += 1
            pid = int(wall.get("pid") or 0)
            proc = self.procs.get(pid)
            if proc is None:
                proc = self.procs[pid] = ProcessHealth(pid=pid)
            proc.update(wall)
        elif kind == "pool":
            self.pool = {
                k: v for k, v in wall.items() if k not in ("t", "kind")
            }
        elif kind:
            self.events[kind] = self.events.get(kind, 0) + 1

    def rows(self) -> list[ProcessHealth]:
        """Processes ordered parent-first, then workers by index/pid."""
        return sorted(
            self.procs.values(),
            key=lambda p: (
                p.role != "parent",
                p.worker if p.worker is not None else 1 << 30,
                p.pid,
            ),
        )


# ----------------------------------------------------------------------
# Per-run summary for the registry
# ----------------------------------------------------------------------
def summarize_health(
    records: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """Fold a trace's health/alert records into a per-run summary.

    Returns ``{}`` when the run carried no health telemetry, so callers
    can skip persisting an empty column.
    """
    samples = 0
    alerts = 0
    events: dict[str, int] = {}
    peak_rss = 0
    peak_worker_rss = 0
    peak_open_fds = 0
    parent_cpu_s = 0.0
    throughput: float | None = None
    for record in records:
        ev = record.get("ev")
        wall = record.get("wall") or {}
        if ev == ALERT_EV:
            alerts += 1
        elif ev == HEALTH_EV:
            kind = wall.get("kind")
            if kind == "sample":
                samples += 1
                rss = int(wall.get("rss_bytes") or 0)
                peak_rss = max(peak_rss, rss)
                if wall.get("role") == "worker":
                    peak_worker_rss = max(peak_worker_rss, rss)
                else:
                    parent_cpu_s = max(
                        parent_cpu_s, float(wall.get("cpu_s") or 0.0)
                    )
                if wall.get("open_fds") is not None:
                    peak_open_fds = max(
                        peak_open_fds, int(wall["open_fds"])
                    )
            elif kind == "pool":
                if wall.get("throughput") is not None:
                    throughput = float(wall["throughput"])
            elif kind:
                events[kind] = events.get(kind, 0) + 1
    if not samples and not events and not alerts:
        return {}
    summary: dict[str, Any] = {
        "samples": samples,
        "alerts": alerts,
        "events": {k: events[k] for k in sorted(events)},
    }
    if peak_rss:
        summary["peak_rss_bytes"] = peak_rss
    if peak_worker_rss:
        summary["peak_worker_rss_bytes"] = peak_worker_rss
    if peak_open_fds:
        summary["peak_open_fds"] = peak_open_fds
    if parent_cpu_s:
        summary["parent_cpu_s"] = round(parent_cpu_s, 3)
    if throughput is not None:
        summary["throughput"] = round(throughput, 4)
    return summary


def flatten_health(summary: dict[str, Any]) -> dict[str, float]:
    """Registry sample keys (``health.*``) from a health summary."""
    samples: dict[str, float] = {}
    for key, value in summary.items():
        if key == "events":
            for kind, count in value.items():
                samples[f"health.events.{kind}"] = float(count)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            samples[f"health.{key}"] = float(value)
    return samples


def format_bytes(n: float) -> str:
    """Human-readable byte count (``1.5G``) for status/top rendering."""
    n = float(n)
    for unit in ("B", "K", "M", "G", "T"):
        if abs(n) < 1024 or unit == "T":
            if unit == "B":
                return f"{int(n)}B"
            return f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}T"  # pragma: no cover - unreachable
