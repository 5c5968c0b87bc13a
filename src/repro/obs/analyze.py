"""Trace analytics: per-phase rollups, critical path, worker utilization.

Consumes the artifacts one instrumented run writes — the span JSONL
stream (``--trace`` / ``--out DIR`` → ``DIR/trace.jsonl``) and the run
manifest with its final metrics snapshot (``--metrics-out`` / ``--out
DIR`` → ``DIR/metrics.json``) — and answers the questions raw telemetry
cannot: where did the time go (wall *and* virtual, self vs. descendants),
what chain of phases bounds the run (critical path), and how evenly did
the pool's workers share the task load (utilization and skew).

The module is pure stdlib and read-only.  It powers ``rhohammer
analyze`` and ``rhohammer inspect``, its span tree is the one
``rhohammer export`` lays out as a Chrome trace, and it is the substrate
:mod:`repro.obs.compare` diffs two runs with.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.obs.health import format_bytes, summarize_health
from repro.obs.manifest import RUN_SCHEMA
from repro.obs.trace import read_trace

#: Conventional artifact names inside a run directory (see ``--out``).
TRACE_FILENAME = "trace.jsonl"
METRICS_FILENAME = "metrics.json"

#: ``metrics.json`` schema tags this loader understands.  Files written
#: before the tag existed carry none and are accepted as-is; a *present
#: but unknown* tag means the file comes from a newer (or foreign) writer
#: and refusing it beats silently misreading it.
KNOWN_RUN_SCHEMAS = frozenset({RUN_SCHEMA})


class RunLoadError(ValueError):
    """A run directory / artifact file could not be loaded."""


# ----------------------------------------------------------------------
# Loading run artifacts
# ----------------------------------------------------------------------
@dataclass
class RunArtifacts:
    """Everything on disk about one run, resolved from a path.

    ``path`` may be a run directory holding ``trace.jsonl`` and/or
    ``metrics.json``, or a direct path to either file.  At least one
    artifact must exist.  The manifest comes from ``metrics.json`` when
    present, else from the trace stream's header record.
    """

    path: str
    trace_path: str | None = None
    manifest: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "RunArtifacts":
        p = pathlib.Path(path)
        trace_path: pathlib.Path | None = None
        manifest_path: pathlib.Path | None = None
        if p.is_dir():
            if (p / TRACE_FILENAME).is_file():
                trace_path = p / TRACE_FILENAME
            if (p / METRICS_FILENAME).is_file():
                manifest_path = p / METRICS_FILENAME
            if trace_path is None and manifest_path is None:
                raise RunLoadError(
                    f"{p}: no {TRACE_FILENAME} or {METRICS_FILENAME} found"
                )
        elif p.is_file():
            if p.suffix == ".jsonl":
                trace_path = p
            else:
                manifest_path = p
        else:
            raise RunLoadError(f"{p}: no such file or directory")

        manifest: dict[str, Any] | None = None
        metrics: dict[str, Any] | None = None
        if manifest_path is not None:
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise RunLoadError(f"{manifest_path}: {exc}") from exc
            if not isinstance(manifest, dict):
                raise RunLoadError(f"{manifest_path}: not a JSON object")
            schema = manifest.get("schema")
            if schema is not None and schema not in KNOWN_RUN_SCHEMAS:
                raise RunLoadError(
                    f"{manifest_path}: unknown run manifest schema "
                    f"{schema!r} (supported: "
                    f"{', '.join(sorted(KNOWN_RUN_SCHEMAS))})"
                )
            metrics = manifest.get("metrics")
        return cls(
            path=str(p),
            trace_path=str(trace_path) if trace_path is not None else None,
            manifest=manifest,
            metrics=metrics,
        )


# ----------------------------------------------------------------------
# The span tree and its rollups
# ----------------------------------------------------------------------
@dataclass
class SpanNode:
    """One reconstructed span of the trace tree.

    ``begin_s`` is the wall time its begin record was written and
    ``points`` holds the raw point records parented to it; the Chrome
    export lays both out on a timeline.
    """

    span_id: int
    name: str
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)
    begin_s: float = 0.0
    wall_s: float = 0.0
    virtual_ns: float = 0.0
    error: str | None = None
    closed: bool = False
    worker: str | None = None
    children: list["SpanNode"] = field(default_factory=list)
    points: list[dict[str, Any]] = field(default_factory=list)

    @property
    def child_wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def self_wall_s(self) -> float:
        return max(0.0, self.wall_s - self.child_wall_s)

    @property
    def self_virtual_ns(self) -> float:
        return max(
            0.0, self.virtual_ns - sum(c.virtual_ns for c in self.children)
        )


@dataclass
class PhaseRollup:
    """Aggregate over every span sharing one phase name."""

    name: str
    count: int = 0
    errors: int = 0
    open_count: int = 0
    wall_s: float = 0.0
    self_wall_s: float = 0.0
    virtual_ns: float = 0.0
    self_virtual_ns: float = 0.0
    max_wall_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "errors": self.errors,
            "open": self.open_count,
            "wall_s": round(self.wall_s, 6),
            "self_wall_s": round(self.self_wall_s, 6),
            "max_wall_s": round(self.max_wall_s, 6),
            "virtual_s": round(self.virtual_ns * 1e-9, 9),
            "self_virtual_s": round(self.self_virtual_ns * 1e-9, 9),
        }


@dataclass
class WorkerStats:
    """Worker-pool accounting across every ``pool.batch`` of the run."""

    batches: int = 0
    batch_wall_s: float = 0.0
    configured_workers: int = 0
    tasks: int = 0
    failed: int = 0
    busy_s_by_worker: dict[str, float] = field(default_factory=dict)
    tasks_by_worker: dict[str, int] = field(default_factory=dict)

    @property
    def utilization(self) -> float | None:
        """Busy fraction of the pool's total worker-seconds, 0..1."""
        capacity = self.configured_workers * self.batch_wall_s
        if capacity <= 0:
            return None
        return min(1.0, sum(self.busy_s_by_worker.values()) / capacity)

    @property
    def skew(self) -> float | None:
        """Max over mean per-worker busy time (1.0 = perfectly even)."""
        busy = list(self.busy_s_by_worker.values())
        if not busy:
            return None
        mean = sum(busy) / len(busy)
        return (max(busy) / mean) if mean > 0 else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "batches": self.batches,
            "batch_wall_s": round(self.batch_wall_s, 6),
            "configured_workers": self.configured_workers,
            "tasks": self.tasks,
            "failed": self.failed,
            "utilization": (
                round(self.utilization, 4) if self.utilization is not None else None
            ),
            "skew": round(self.skew, 4) if self.skew is not None else None,
            "busy_s_by_worker": {
                w: round(s, 6)
                for w, s in sorted(self.busy_s_by_worker.items())
            },
            "tasks_by_worker": dict(sorted(self.tasks_by_worker.items())),
        }


@dataclass
class TraceAnalysis:
    """Everything ``rhohammer analyze`` reports about one run."""

    path: str
    manifest: dict[str, Any] | None
    events: int
    skipped_lines: int
    phases: dict[str, PhaseRollup]
    critical_path: list[dict[str, Any]]
    workers: WorkerStats
    top_spans: list[dict[str, Any]]
    points: dict[str, int]
    health: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "manifest": self.manifest,
            "events": self.events,
            "skipped_lines": self.skipped_lines,
            "phases": {
                name: self.phases[name].to_dict()
                for name in sorted(self.phases)
            },
            "critical_path": self.critical_path,
            "workers": self.workers.to_dict(),
            "top_spans": self.top_spans,
            "points": dict(sorted(self.points.items())),
            "health": self.health,
        }


def _virtual_ns(attrs: dict[str, Any]) -> float:
    if "virtual_ns" in attrs:
        return float(attrs["virtual_ns"])
    if "virtual_s" in attrs:
        return float(attrs["virtual_s"]) * 1e9
    if "virtual_minutes" in attrs:
        return float(attrs["virtual_minutes"]) * 60e9
    return 0.0


def build_span_tree(
    records: list[dict[str, Any]],
) -> tuple[list[SpanNode], dict[str, int], dict[str, Any] | None]:
    """Reconstruct the span forest from raw records.

    Returns ``(roots, point_counts, manifest_header)``.  Unclosed spans
    (run killed mid-flight) stay in the tree with ``closed=False`` and
    zero durations.  A point whose parent span is unknown is counted but
    attached nowhere.
    """
    nodes: dict[int, SpanNode] = {}
    roots: list[SpanNode] = []
    points: dict[str, int] = {}
    manifest: dict[str, Any] | None = None
    for record in records:
        kind = record.get("ev")
        if kind == "manifest":
            if manifest is None:
                manifest = record.get("data")
        elif kind == "span" and record.get("ph") == "B":
            node = SpanNode(
                span_id=record.get("id", -1),
                name=record.get("name", "?"),
                parent=record.get("parent"),
                attrs=dict(record.get("attrs") or {}),
                begin_s=float((record.get("wall") or {}).get("t", 0.0)),
            )
            nodes[node.span_id] = node
            parent = nodes.get(node.parent) if node.parent is not None else None
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
        elif kind == "span" and record.get("ph") == "E":
            node = nodes.get(record.get("id"))
            if node is None:
                continue  # end without begin: corrupt tail, ignore
            attrs = record.get("attrs") or {}
            wall = record.get("wall") or {}
            node.attrs.update(attrs)
            node.wall_s = float(wall.get("dur_s", 0.0))
            node.virtual_ns = _virtual_ns(attrs)
            node.error = attrs.get("error")
            node.closed = True
            if "worker" in wall:
                node.worker = str(wall["worker"])
        elif kind == "point":
            name = record.get("name", "?")
            points[name] = points.get(name, 0) + 1
            parent = nodes.get(record.get("parent"))
            if parent is not None:
                parent.points.append(record)
    return roots, points, manifest


def _rollup(roots: list[SpanNode]) -> dict[str, PhaseRollup]:
    phases: dict[str, PhaseRollup] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        rollup = phases.setdefault(node.name, PhaseRollup(name=node.name))
        rollup.count += 1
        if node.error:
            rollup.errors += 1
        if not node.closed:
            rollup.open_count += 1
        rollup.wall_s += node.wall_s
        rollup.self_wall_s += node.self_wall_s
        rollup.virtual_ns += node.virtual_ns
        rollup.self_virtual_ns += node.self_virtual_ns
        rollup.max_wall_s = max(rollup.max_wall_s, node.wall_s)
    return phases


def _critical_path(roots: list[SpanNode]) -> list[dict[str, Any]]:
    """The heaviest root-to-leaf chain by wall time.

    At each level, descend into the child with the largest wall duration;
    each step reports how much of its parent it covers, so a step at
    ~100% means the parent is pure dispatch and the real cost is deeper.
    """
    if not roots:
        return []
    node = max(roots, key=lambda n: n.wall_s)
    path: list[dict[str, Any]] = []
    parent_wall = node.wall_s
    total = node.wall_s
    while True:
        path.append(
            {
                "name": node.name,
                "wall_s": round(node.wall_s, 6),
                "self_wall_s": round(node.self_wall_s, 6),
                "virtual_s": round(node.virtual_ns * 1e-9, 9),
                "of_parent": (
                    round(node.wall_s / parent_wall, 4)
                    if parent_wall > 0
                    else None
                ),
                "of_total": (
                    round(node.wall_s / total, 4) if total > 0 else None
                ),
            }
        )
        if not node.children:
            return path
        parent_wall = node.wall_s
        node = max(node.children, key=lambda n: n.wall_s)


def _worker_stats(roots: list[SpanNode]) -> WorkerStats:
    """Pool accounting; a task still open (killed run) has not finished."""
    stats = WorkerStats()
    stack = list(roots)
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.name == "pool.batch":
            stats.batches += 1
            stats.batch_wall_s += node.wall_s
            stats.configured_workers = max(
                stats.configured_workers, int(node.attrs.get("workers", 0))
            )
        elif node.name == "pool.task" and node.closed:
            stats.tasks += 1
            if node.attrs.get("status") == "failed":
                stats.failed += 1
            worker = node.worker or "?"
            stats.busy_s_by_worker[worker] = (
                stats.busy_s_by_worker.get(worker, 0.0) + node.wall_s
            )
            stats.tasks_by_worker[worker] = (
                stats.tasks_by_worker.get(worker, 0) + 1
            )
    return stats


def _top_spans(roots: list[SpanNode], top: int) -> list[dict[str, Any]]:
    """The ``top`` slowest closed spans (an open one has no duration)."""
    flat: list[SpanNode] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.closed:
            flat.append(node)
    flat.sort(key=lambda n: (-n.wall_s, n.span_id))
    return [
        {
            "id": n.span_id,
            "name": n.name,
            "wall_s": round(n.wall_s, 6),
            "self_wall_s": round(n.self_wall_s, 6),
            "virtual_s": round(n.virtual_ns * 1e-9, 9),
        }
        for n in flat[:top]
    ]


def analyze_trace(
    trace_path: str | os.PathLike[str],
    top: int = 10,
    manifest: dict[str, Any] | None = None,
) -> TraceAnalysis:
    """Analyze one trace stream; ``events`` is 0 when it holds no records.

    ``manifest`` (from ``metrics.json``) takes precedence over the
    stream's own header record.  Corrupt lines are skipped and counted;
    an unreadable file raises :class:`OSError`.
    """
    skipped = 0

    def _on_skip(lineno: int, line: str) -> None:
        nonlocal skipped
        skipped += 1

    records = list(read_trace(trace_path, strict=False, on_skip=_on_skip))
    roots, points, header = build_span_tree(records)
    return TraceAnalysis(
        path=str(trace_path),
        manifest=manifest or header,
        events=len(records),
        skipped_lines=skipped,
        phases=_rollup(roots),
        critical_path=_critical_path(roots),
        workers=_worker_stats(roots),
        top_spans=_top_spans(roots, top),
        points=points,
        health=summarize_health(records),
    )


def analyze_run(
    path: str | os.PathLike[str], top: int = 10
) -> TraceAnalysis:
    """Load one run's artifacts and compute the full analysis.

    Raises :class:`RunLoadError` when nothing loadable exists at ``path``
    or the run has no (or an empty) trace stream to analyze.
    """
    artifacts = RunArtifacts.load(path)
    if artifacts.trace_path is None:
        raise RunLoadError(
            f"{path}: no trace stream ({TRACE_FILENAME}) — "
            "record one with --trace or --out"
        )
    analysis = analyze_trace(artifacts.trace_path, top, artifacts.manifest)
    if not analysis.events:
        raise RunLoadError(f"{artifacts.trace_path}: empty trace stream")
    analysis.path = artifacts.path
    return analysis


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_analysis(analysis: TraceAnalysis, top: int = 10) -> str:
    """Human-readable report for ``rhohammer analyze``."""
    lines: list[str] = []
    man = analysis.manifest
    if man:
        lines.append(
            f"run          : {man.get('command')} on {man.get('platform')}"
            f"/{man.get('dimm')} seed={man.get('seed')} "
            f"scale={man.get('scale')}"
        )
        lines.append(f"code         : {man.get('git')}")
    lines.append(f"events       : {analysis.events}")
    if analysis.skipped_lines:
        lines.append(
            f"warning      : skipped {analysis.skipped_lines} "
            "corrupt trace line(s)"
        )

    if analysis.phases:
        lines.append("phases       :")
        width = max(len(n) for n in analysis.phases)
        header = (
            f"  {'phase':<{width}}  {'n':>5} {'wall_s':>10} {'self_s':>10}"
            f" {'virt_s':>12} {'self_virt_s':>12}"
        )
        lines.append(header)
        for name in sorted(
            analysis.phases, key=lambda n: -analysis.phases[n].wall_s
        ):
            r = analysis.phases[name]
            flags = ""
            if r.errors:
                flags += f"  errors={r.errors}"
            if r.open_count:
                flags += f"  open={r.open_count}"
            lines.append(
                f"  {name:<{width}}  {r.count:>5} {r.wall_s:>10.3f}"
                f" {r.self_wall_s:>10.3f} {r.virtual_ns * 1e-9:>12.6f}"
                f" {r.self_virtual_ns * 1e-9:>12.6f}{flags}"
            )

    if analysis.critical_path:
        lines.append("critical path:")
        for step in analysis.critical_path:
            pct = (
                f"{step['of_total'] * 100:5.1f}%"
                if step["of_total"] is not None
                else "    ?"
            )
            lines.append(
                f"  {pct}  {step['name']}  wall={step['wall_s']:.3f}s"
                f" self={step['self_wall_s']:.3f}s"
            )

    w = analysis.workers
    if w.batches:
        util = f"{w.utilization * 100:.1f}%" if w.utilization is not None else "?"
        skew = f"{w.skew:.2f}" if w.skew is not None else "?"
        lines.append(
            f"pool         : {w.tasks} task(s) over {w.batches} batch(es),"
            f" {w.configured_workers} worker slot(s);"
            f" utilization={util} skew={skew}"
        )
        for worker in sorted(w.busy_s_by_worker):
            lines.append(
                f"  worker {worker}: {w.tasks_by_worker.get(worker, 0)} task(s),"
                f" busy {w.busy_s_by_worker[worker]:.3f}s"
            )

    health = analysis.health
    if health:
        parts = [f"{health.get('samples', 0)} sample(s)"]
        if health.get("peak_rss_bytes"):
            parts.append(f"peak_rss={format_bytes(health['peak_rss_bytes'])}")
        if health.get("peak_worker_rss_bytes"):
            parts.append(
                "peak_worker_rss="
                f"{format_bytes(health['peak_worker_rss_bytes'])}"
            )
        if health.get("parent_cpu_s"):
            parts.append(f"parent_cpu={health['parent_cpu_s']:.1f}s")
        if health.get("throughput") is not None:
            parts.append(f"throughput={health['throughput']:.2f}/s")
        if health.get("alerts"):
            parts.append(f"alerts={health['alerts']}")
        lines.append("health       : " + " ".join(parts))
        events = health.get("events") or {}
        if events:
            lines.append(
                "  events: "
                + " ".join(f"{k}={v}" for k, v in sorted(events.items()))
            )

    if analysis.top_spans:
        lines.append(f"top spans    : (by wall, top {len(analysis.top_spans)})")
        for span in analysis.top_spans:
            lines.append(
                f"  #{span['id']:<5} {span['name']:<24}"
                f" wall={span['wall_s']:.3f}s self={span['self_wall_s']:.3f}s"
            )
    return "\n".join(lines)
