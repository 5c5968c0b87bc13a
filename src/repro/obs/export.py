"""Standard-format trace/metric export: ``rhohammer export``.

Converts the repo's own artifacts into formats external tooling already
understands, so a recorded run can be *looked at* without bespoke
viewers:

* **Chrome Trace Event Format** — the span tree ``analyze`` builds from
  ``trace.jsonl`` becomes paired ``B``/``E`` duration events (one track
  per worker pid), point events become ``i`` instants, and the final
  metric snapshot becomes ``C`` counter events.  The resulting JSON
  object loads directly into Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.
* **OpenMetrics text** — the final metric snapshot (``metrics.json``)
  rendered in the OpenMetrics/Prometheus exposition format: counters,
  gauges, and full histograms with cumulative ``le`` buckets, ready for
  ``promtool``/scrape-style ingestion.

Both exporters are pure functions over already-recorded artifacts —
stdlib only, read-only, no network.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Mapping

from repro.obs.analyze import (
    RunArtifacts,
    RunLoadError,
    SpanNode,
    build_span_tree,
)
from repro.obs.trace import read_trace

#: Export formats understood by ``rhohammer export``.
FORMATS = ("chrome", "openmetrics")

#: The one pid the exported trace uses; Chrome tracks are per (pid, tid)
#: and the simulator is a single logical process whose fork workers map
#: onto tids.
_TRACE_PID = 1

#: tid of the main (parent) thread track.
_MAIN_TID = 0


# ----------------------------------------------------------------------
# Chrome Trace Event Format
# ----------------------------------------------------------------------
#: A span's settled Chrome track: ``(tid, begin_us, dur_us)``.
_Track = tuple[int, float, float]


def _settle_intervals(
    node: SpanNode, tid: int, tracks: dict[int, _Track]
) -> tuple[float, float]:
    """Bottom-up: grow each span to cover its children, resolve tids.

    Fork-pool spans are replayed parent-side *after* their worker-side
    children ran, so a replayed span's recorded begin postdates its
    children's worker-side begins.  Chrome requires strict containment
    per track, so such a span's begin snaps back to its earliest
    same-track child and its (worker-measured) duration re-anchors
    there — which is when the task actually started.  Records each
    span's track in ``tracks`` (keyed by node identity: a corrupt stream
    may reuse span ids) and returns its settled ``(begin_us, end_us)``.
    """
    if node.worker is not None:  # the fork worker pid it ran in
        try:
            tid = int(node.worker)
        except ValueError:
            pass
    begin = node.begin_s * 1e6
    child_ends: list[float] = []
    for child in node.children:
        c_begin, c_end = _settle_intervals(child, tid, tracks)
        if tracks[id(child)][0] == tid:
            begin = min(begin, c_begin)
            child_ends.append(c_end)
    end = begin + max(node.wall_s * 1e6, 0.0)
    if child_ends:
        end = max(end, max(child_ends))
    tracks[id(node)] = (tid, begin, max(end - begin, 0.0))
    return begin, end


def _clean_args(attrs: Mapping[str, Any]) -> dict[str, Any]:
    """Attrs as Chrome ``args`` — JSON-scalar values only."""
    return {
        k: v
        for k, v in attrs.items()
        if isinstance(v, (str, int, float, bool)) or v is None
    }


def chrome_trace(
    records: list[dict[str, Any]],
    metrics: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """A Chrome Trace Event Format object from raw trace records.

    Lays out the span tree :func:`~repro.obs.analyze.build_span_tree`
    builds.  Every emitted event carries the format's required keys —
    ``name``, ``ph``, ``ts``, ``pid``, ``tid`` — with timestamps in
    microseconds.  ``B``/``E`` pairs are strictly nested per track: the
    main process is tid 0 and each fork worker gets its own tid (its
    pid).
    """
    roots, _, manifest = build_span_tree(records)
    tracks: dict[int, _Track] = {}
    t0 = None
    for root in roots:
        begin, _ = _settle_intervals(root, _MAIN_TID, tracks)
        t0 = begin if t0 is None else min(t0, begin)
    t0 = t0 or 0.0

    events: list[dict[str, Any]] = []
    tids: set[int] = {_MAIN_TID}

    def emit(node: SpanNode) -> None:
        tid, begin_us, dur_us = tracks[id(node)]
        tids.add(tid)
        begin = begin_us - t0
        events.append({
            "name": node.name,
            "ph": "B",
            "ts": round(begin, 3),
            "pid": _TRACE_PID,
            "tid": tid,
            "args": _clean_args(node.attrs),
        })
        inner = sorted(
            [(tracks[id(c)][1], c) for c in node.children]
            + [
                (float((p.get("wall") or {}).get("t", 0.0)) * 1e6, p)
                for p in node.points
            ],
            key=lambda item: item[0],
        )
        for ts_us, payload in inner:
            if isinstance(payload, SpanNode):
                emit(payload)
                continue
            ts = min(max(ts_us - t0, begin), begin + dur_us)
            events.append({
                "name": payload.get("name", "?"),
                "ph": "i",
                "ts": round(ts, 3),
                "pid": _TRACE_PID,
                "tid": tid,
                "s": "t",
                "args": _clean_args(payload.get("attrs") or {}),
            })
        events.append({
            "name": node.name,
            "ph": "E",
            "ts": round(begin + dur_us, 3),
            "pid": _TRACE_PID,
            "tid": tid,
            "args": {},
        })

    for root in roots:
        emit(root)

    end_ts = max((e["ts"] for e in events), default=0.0)
    counter_sections = ("counters", "gauges")
    if metrics:
        for section in counter_sections:
            for key, value in sorted((metrics.get(section) or {}).items()):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                events.append({
                    "name": key,
                    "ph": "C",
                    "ts": round(end_ts, 3),
                    "pid": _TRACE_PID,
                    "tid": _MAIN_TID,
                    "args": {"value": value},
                })

    metadata: list[dict[str, Any]] = []
    process_name = "rhohammer"
    if manifest:
        command = manifest.get("command")
        if command:
            process_name = f"rhohammer {command}"
    metadata.append({
        "name": "process_name",
        "ph": "M",
        "ts": 0,
        "pid": _TRACE_PID,
        "tid": _MAIN_TID,
        "args": {"name": process_name},
    })
    for tid in sorted(tids):
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "ts": 0,
            "pid": _TRACE_PID,
            "tid": tid,
            "args": {
                "name": "main" if tid == _MAIN_TID else f"worker {tid}"
            },
        })

    payload: dict[str, Any] = {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
    }
    if manifest:
        payload["otherData"] = {
            k: v
            for k, v in manifest.items()
            if isinstance(v, (str, int, float, bool)) or v is None
        }
    return payload


# ----------------------------------------------------------------------
# OpenMetrics text exposition
# ----------------------------------------------------------------------
_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")


def _metric_name(raw: str) -> str:
    """A registry key as an OpenMetrics metric name (dots become ``_``)."""
    name = _NAME_RE.sub("_", raw)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _split_key(key: str) -> tuple[str, dict[str, str]]:
    """``pool.tasks{status=ok}`` → (``pool_tasks``, ``{"status": "ok"}``)."""
    match = _KEY_RE.match(key)
    if match is None:
        return _metric_name(key), {}
    labels: dict[str, str] = {}
    raw = match.group("labels")
    if raw:
        for part in raw.split(","):
            if "=" in part:
                k, v = part.split("=", 1)
                labels[_metric_name(k.strip())] = v.strip()
    return _metric_name(match.group("name")), labels


def _label_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{v}"'.replace("\\", "\\\\") for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: Health-sample fields exported as per-process gauges, with their
#: OpenMetrics-flavoured suffixes.
_HEALTH_GAUGES = (
    ("rss_bytes", "rss_bytes"),
    ("cpu_s", "cpu_seconds"),
    ("open_fds", "open_fds"),
)


def _health_gauge_lines(records: list[dict[str, Any]]) -> list[str]:
    """Per-process gauges from a trace's last health sample of each pid.

    Workers label by their pool index (``rhohammer_worker_rss_bytes
    {worker="3"}``); the parent exports unlabelled
    ``rhohammer_parent_*`` series.
    """
    latest: dict[tuple[str, int | None], dict[str, Any]] = {}
    for record in records:
        if record.get("ev") != "health":
            continue
        wall = record.get("wall") or {}
        if wall.get("kind") != "sample":
            continue
        role = str(wall.get("role") or "worker")
        worker = wall.get("worker")
        worker = int(worker) if worker is not None else None
        latest[(role, worker)] = wall
    lines: list[str] = []
    for field, suffix in _HEALTH_GAUGES:
        for role in ("parent", "worker"):
            name = _metric_name(f"rhohammer_{role}_{suffix}")
            rows = sorted(
                (
                    (worker, wall)
                    for (r, worker), wall in latest.items()
                    if r == role and wall.get(field) is not None
                ),
                key=lambda item: (item[0] is None, item[0] or 0),
            )
            if not rows:
                continue
            lines.append(f"# TYPE {name} gauge")
            for worker, wall in rows:
                labels = {} if worker is None else {"worker": str(worker)}
                lines.append(
                    f"{name}{_label_text(labels)} "
                    f"{_format_value(wall[field])}"
                )
    return lines


def openmetrics_text(
    metrics: Mapping[str, Any],
    health_records: list[dict[str, Any]] | None = None,
) -> str:
    """The OpenMetrics exposition of one final metrics snapshot.

    Counters keep (or gain) the mandated ``_total`` suffix, histograms
    emit cumulative ``_bucket{le=…}`` series plus ``_sum``/``_count``,
    and the exposition ends with the required ``# EOF`` marker.  When
    ``health_records`` (raw trace records) are supplied, the run's last
    per-process health samples append as ``rhohammer_worker_*`` /
    ``rhohammer_parent_*`` gauges.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in sorted((metrics.get("counters") or {}).items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        name, labels = _split_key(key)
        if not name.endswith("_total"):
            name += "_total"
        declare(name, "counter")
        lines.append(f"{name}{_label_text(labels)} {_format_value(value)}")

    for key, value in sorted((metrics.get("gauges") or {}).items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        name, labels = _split_key(key)
        declare(name, "gauge")
        lines.append(f"{name}{_label_text(labels)} {_format_value(value)}")

    for key, hist in sorted((metrics.get("histograms") or {}).items()):
        if not isinstance(hist, Mapping):
            continue
        name, labels = _split_key(key)
        declare(name, "histogram")
        cumulative = 0
        for entry in hist.get("buckets") or []:
            try:
                le, count = entry
            except (TypeError, ValueError):
                continue
            cumulative += int(count)
            le_text = "+Inf" if le == "+inf" else _format_value(le)
            bucket_labels = dict(labels)
            bucket_labels["le"] = le_text
            lines.append(
                f"{name}_bucket{_label_text(bucket_labels)} {cumulative}"
            )
        count = hist.get("count", 0)
        if cumulative != count:
            # Snapshots drop empty buckets; the +Inf bucket must still
            # reach the total count.
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append(f"{name}_bucket{_label_text(inf_labels)} {count}")
        lines.append(
            f"{name}_sum{_label_text(labels)} "
            f"{_format_value(hist.get('sum', 0.0))}"
        )
        lines.append(f"{name}_count{_label_text(labels)} {count}")

    if health_records:
        lines.extend(_health_gauge_lines(health_records))

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Run-level entry point
# ----------------------------------------------------------------------
def export_run(path: str | os.PathLike[str], fmt: str) -> str:
    """Export one recorded run (directory or artifact file) as text.

    ``chrome`` needs the run's trace stream; ``openmetrics`` needs its
    metrics snapshot.  Raises :class:`~repro.obs.analyze.RunLoadError`
    when the required artifact is missing.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown export format {fmt!r} (choose from {FORMATS})")
    artifacts = RunArtifacts.load(path)
    if fmt == "chrome":
        if artifacts.trace_path is None:
            raise RunLoadError(
                f"{path}: no trace stream to export — record one with "
                "--trace or --out"
            )
        records = list(read_trace(artifacts.trace_path, strict=False))
        if not records:
            raise RunLoadError(f"{artifacts.trace_path}: empty trace stream")
        payload = chrome_trace(records, metrics=artifacts.metrics)
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if artifacts.metrics is None:
        raise RunLoadError(
            f"{path}: no metrics snapshot to export — record one with "
            "--metrics-out or --out"
        )
    health_records: list[dict[str, Any]] | None = None
    if artifacts.trace_path is not None:
        try:
            health_records = list(
                read_trace(artifacts.trace_path, strict=False)
            )
        except OSError:
            health_records = None
    return openmetrics_text(artifacts.metrics, health_records=health_records)
