"""Summarise a trace stream: ``rhohammer inspect TRACE.jsonl``.

A formatter over :func:`repro.obs.analyze.analyze_trace`: span counts and
durations by name, pool task/worker skew, point-event counts and the
slowest spans, all read off the span tree ``analyze`` builds.  Open spans
(a run killed mid-write) count towards ``open=``, never towards task or
duration totals.
"""

from __future__ import annotations

from typing import Any

from repro.obs.analyze import TraceAnalysis


def _task_walls(analysis: TraceAnalysis) -> tuple[float, float]:
    """Mean and max wall time of the finished ``pool.task`` spans."""
    tasks = analysis.workers.tasks
    if not tasks:
        return 0.0, 0.0
    rollup = analysis.phases["pool.task"]
    return rollup.wall_s / tasks, rollup.max_wall_s


def summary_dict(analysis: TraceAnalysis, top: int = 0) -> dict[str, Any]:
    """The ``inspect --json`` payload (``slowest`` only when ``top``)."""
    workers = analysis.workers
    mean_wall_s, max_wall_s = _task_walls(analysis)
    payload: dict[str, Any] = {
        "manifest": analysis.manifest,
        "events": analysis.events,
        "skipped_lines": analysis.skipped_lines,
        "spans": {
            name: {
                "count": r.count,
                "open": r.open_count,
                "wall_s": round(r.wall_s, 6),
                "virtual_s": round(r.virtual_ns * 1e-9, 6),
                "errors": r.errors,
            }
            for name, r in sorted(analysis.phases.items())
        },
        "points": dict(sorted(analysis.points.items())),
        "tasks": {
            "total": workers.tasks,
            "failed": workers.failed,
            "mean_wall_s": round(mean_wall_s, 6),
            "max_wall_s": round(max_wall_s, 6),
            "by_worker": dict(sorted(workers.tasks_by_worker.items())),
        },
    }
    if top:
        payload["slowest"] = [
            {"name": s["name"], "id": s["id"], "wall_s": s["wall_s"]}
            for s in analysis.top_spans
        ]
    return payload


def format_summary(analysis: TraceAnalysis, top: int = 0) -> str:
    """Human-readable report for the CLI."""
    lines: list[str] = []
    man = analysis.manifest
    if man:
        budget = man.get("budget") or {}
        budget_txt = (
            " ".join(f"{k}={v}" for k, v in sorted(budget.items()))
            or "(default)"
        )
        lines.append(
            f"run      : {man.get('command')} on {man.get('platform')}"
            f"/{man.get('dimm')} seed={man.get('seed')} "
            f"scale={man.get('scale')}"
        )
        lines.append(f"budget   : {budget_txt}")
        lines.append(f"code     : {man.get('git')}")
    lines.append(f"events   : {analysis.events}")
    if analysis.skipped_lines:
        lines.append(
            f"warning  : skipped {analysis.skipped_lines} corrupt line(s)"
        )
    if analysis.phases:
        lines.append("spans    :")
        width = max(len(n) for n in analysis.phases)
        for name, r in sorted(analysis.phases.items()):
            extra = f"  open={r.open_count}" if r.open_count else ""
            err = f"  errors={r.errors}" if r.errors else ""
            lines.append(
                f"  {name:<{width}}  n={r.count:<6} wall={r.wall_s:9.3f}s"
                f"  virtual={r.virtual_ns * 1e-9:12.6f}s{extra}{err}"
            )
    if analysis.points:
        lines.append("points   :")
        width = max(len(n) for n in analysis.points)
        for name, count in sorted(analysis.points.items()):
            lines.append(f"  {name:<{width}}  n={count}")
    workers = analysis.workers
    if workers.tasks:
        mean_wall_s, max_wall_s = _task_walls(analysis)
        lines.append(
            f"tasks    : {workers.tasks} total, {workers.failed} failed, "
            f"wall mean={mean_wall_s:.3f}s max={max_wall_s:.3f}s"
        )
        for worker, count in sorted(workers.tasks_by_worker.items()):
            lines.append(f"  worker {worker}: {count} task(s)")
    if top > 0 and analysis.top_spans:
        lines.append(
            f"slowest  : (top {len(analysis.top_spans)} spans by wall)"
        )
        for row in analysis.top_spans:
            lines.append(
                f"  #{row['id']:<5} {row['name']:<24} {row['wall_s']:9.3f}s"
            )
    return "\n".join(lines)
