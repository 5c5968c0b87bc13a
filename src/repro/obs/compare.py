"""Run diffing: ``rhohammer compare A/ B/`` — did this change help or hurt?

Loads two runs' artifacts (manifests, final metric snapshots, and — when
traces are present — per-phase rollups from :mod:`repro.obs.analyze`) and
classifies every numeric delta as **improvement**, **regression**, or
**neutral** against configurable relative thresholds.

Two ideas keep the verdicts meaningful:

* **Direction rules.**  Each quantity has a goodness direction: flips and
  successes are higher-is-better, time and probe volume are
  lower-is-better, and everything unclassified is *informational* — it is
  reported when it moves but can never fail a gate.
* **Wall vs. virtual.**  Wall-clock times wobble with the host, so they
  get their own (laxer) threshold and are **not gated by default** —
  ``gate_wall=True`` opts them into the exit code.  Virtual simulated
  time and work counters are deterministic for a fixed seed, so any move
  beyond the threshold there is a real behavioural change.

The exit-code contract for the CLI: 0 when no gated regressions, 1 when
at least one, 2 when a run fails to load.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from repro.obs.analyze import (
    RunArtifacts,
    RunLoadError,
    TraceAnalysis,
    analyze_run,
)

#: Default relative threshold for deterministic quantities (virtual time,
#: work counters): a 5% move is a verdict, below is neutral.
DEFAULT_THRESHOLD = 0.05
#: Default relative threshold for wall-clock quantities.
DEFAULT_WALL_THRESHOLD = 0.30

#: Substring rules mapping metric/phase keys to a goodness direction.
#: First match wins; unmatched keys are informational ("none").
_HIGHER_IS_BETTER = (
    "flips",
    "successes",
    "patterns_effective",
    "exploitable",
    "utilization",
)
_LOWER_IS_BETTER = (
    "wall_s",
    "wall_seconds",
    "virtual_s",
    "virtual_ns",
    "sbdr_probes",
    "measurements",
    "pairs_measured",
    "tasks_failed",
    "degraded",
    "skew",
    "retry",
    "retries",
    "death",
    "rss_bytes",
)


def direction_for(key: str) -> str:
    """``"higher"`` / ``"lower"`` / ``"none"`` — which way is better."""
    lowered = key.lower()
    for needle in _HIGHER_IS_BETTER:
        if needle in lowered:
            return "higher"
    for needle in _LOWER_IS_BETTER:
        if needle in lowered:
            return "lower"
    return "none"


def is_wall_key(key: str) -> bool:
    """Wall-clock quantities get the laxer, optionally ungated threshold."""
    lowered = key.lower()
    if lowered.startswith("health.") and not lowered.startswith(
        "health.events."
    ):
        # Resource samples (RSS, CPU, throughput) wobble with the host;
        # only the structural health.events.* counts are deterministic.
        return True
    return "wall" in lowered or lowered.endswith("dur_s")


@dataclass
class Delta:
    """One compared quantity and its verdict."""

    section: str  # "counters" / "gauges" / "histograms" / "phases" / "pool"
    key: str
    a: float
    b: float
    rel: float | None  # (b - a) / a, None when a == 0
    direction: str  # "higher" / "lower" / "none"
    classification: str  # "improvement" / "regression" / "neutral" / "changed"
    gated: bool  # counts toward the exit code when it regresses

    def to_dict(self) -> dict[str, Any]:
        return {
            "section": self.section,
            "key": self.key,
            "a": self.a,
            "b": self.b,
            "rel": round(self.rel, 6) if self.rel is not None else None,
            "direction": self.direction,
            "classification": self.classification,
            "gated": self.gated,
        }


@dataclass
class RunComparison:
    """The full diff of run B against run A."""

    path_a: str
    path_b: str
    manifest_diff: dict[str, Any] = field(default_factory=dict)
    identity_warnings: list[str] = field(default_factory=list)
    deltas: list[Delta] = field(default_factory=list)

    @property
    def regressions(self) -> list[Delta]:
        return [
            d
            for d in self.deltas
            if d.classification == "regression" and d.gated
        ]

    @property
    def improvements(self) -> list[Delta]:
        return [d for d in self.deltas if d.classification == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        return {
            "a": self.path_a,
            "b": self.path_b,
            "manifest_diff": self.manifest_diff,
            "identity_warnings": list(self.identity_warnings),
            "regressions": [d.to_dict() for d in self.regressions],
            "improvements": [d.to_dict() for d in self.improvements],
            "deltas": [d.to_dict() for d in self.deltas],
            "ok": self.ok,
        }


# ----------------------------------------------------------------------
# Comparison engine
# ----------------------------------------------------------------------
#: Manifest fields that should match for a like-for-like comparison.
_IDENTITY_FIELDS = ("command", "seed", "platform", "dimm", "scale", "budget")


def classify_delta(
    section: str,
    key: str,
    a: float,
    b: float,
    threshold: float,
    wall_threshold: float,
    gate_wall: bool,
) -> Delta | None:
    """The verdict on one numeric pair; ``None`` when both are zero.

    The one verdict rule of :mod:`repro.obs`: ``compare`` applies it to
    every quantity of two runs, and ``trends`` to a metric's latest
    value against its rolling median.
    """
    if a == b == 0:
        return None
    wall = is_wall_key(key)
    limit = wall_threshold if wall else threshold
    rel = (b - a) / abs(a) if a != 0 else None
    moved = abs(rel) > limit if rel is not None else True
    direction = direction_for(key)
    if not moved:
        classification = "neutral"
    elif direction == "none":
        classification = "changed"
    else:
        worse = (b < a) if direction == "higher" else (b > a)
        classification = "regression" if worse else "improvement"
    return Delta(
        section=section,
        key=key,
        a=a,
        b=b,
        rel=rel,
        direction=direction,
        classification=classification,
        gated=not wall or gate_wall,
    )


def _numeric_items(section: dict[str, Any]) -> dict[str, float]:
    return {
        k: float(v)
        for k, v in section.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def _histogram_scalars(histograms: dict[str, Any]) -> dict[str, float]:
    """Flatten each histogram to its comparable summary scalars."""
    out: dict[str, float] = {}
    for name, h in histograms.items():
        for stat in ("count", "sum", "mean", "p50", "p90", "p99"):
            value = h.get(stat)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"{name}.{stat}"] = float(value)
    return out


def compare_runs(
    path_a: str | os.PathLike[str],
    path_b: str | os.PathLike[str],
    threshold: float = DEFAULT_THRESHOLD,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    gate_wall: bool = False,
) -> RunComparison:
    """Diff run B against baseline run A.

    Raises :class:`~repro.obs.analyze.RunLoadError` when either path
    holds no loadable artifacts.
    """
    art_a = RunArtifacts.load(path_a)
    art_b = RunArtifacts.load(path_b)
    comparison = RunComparison(path_a=str(path_a), path_b=str(path_b))

    # -- manifest identity --------------------------------------------
    man_a = art_a.manifest or {}
    man_b = art_b.manifest or {}
    for key in sorted(set(man_a) | set(man_b)):
        if key in ("metrics", "wall", "exit_code", "result"):
            continue
        if man_a.get(key) != man_b.get(key):
            comparison.manifest_diff[key] = {
                "a": man_a.get(key),
                "b": man_b.get(key),
            }
            if key in _IDENTITY_FIELDS:
                comparison.identity_warnings.append(
                    f"runs differ in {key}: "
                    f"{man_a.get(key)!r} vs {man_b.get(key)!r} — "
                    "deltas may reflect configuration, not code"
                )

    def classify(section: str, key: str, a: float, b: float) -> None:
        delta = classify_delta(
            section, key, a, b, threshold, wall_threshold, gate_wall
        )
        if delta is not None:
            comparison.deltas.append(delta)

    # -- final metric snapshots ---------------------------------------
    met_a = art_a.metrics or {}
    met_b = art_b.metrics or {}
    for section in ("counters", "gauges"):
        side_a = _numeric_items(met_a.get(section, {}))
        side_b = _numeric_items(met_b.get(section, {}))
        for key in sorted(set(side_a) | set(side_b)):
            classify(section, key, side_a.get(key, 0.0), side_b.get(key, 0.0))
    hist_a = _histogram_scalars(met_a.get("histograms", {}))
    hist_b = _histogram_scalars(met_b.get("histograms", {}))
    for key in sorted(set(hist_a) | set(hist_b)):
        classify("histograms", key, hist_a.get(key, 0.0), hist_b.get(key, 0.0))

    # -- per-phase rollups (when both runs carry traces) ---------------
    analysis_a = analysis_b = None
    if art_a.trace_path is not None and art_b.trace_path is not None:
        try:
            analysis_a = analyze_run(art_a.path)
            analysis_b = analyze_run(art_b.path)
        except RunLoadError:
            analysis_a = analysis_b = None
    if analysis_a is not None and analysis_b is not None:
        _compare_phases(comparison, analysis_a, analysis_b, classify)
    return comparison


def _compare_phases(
    comparison: RunComparison,
    analysis_a: TraceAnalysis,
    analysis_b: TraceAnalysis,
    classify,
) -> None:
    names = sorted(set(analysis_a.phases) | set(analysis_b.phases))
    for name in names:
        a = analysis_a.phases.get(name)
        b = analysis_b.phases.get(name)
        classify("phases", f"{name}.count", a.count if a else 0, b.count if b else 0)
        classify(
            "phases",
            f"{name}.wall_s",
            a.wall_s if a else 0.0,
            b.wall_s if b else 0.0,
        )
        classify(
            "phases",
            f"{name}.virtual_s",
            a.virtual_ns * 1e-9 if a else 0.0,
            b.virtual_ns * 1e-9 if b else 0.0,
        )
    wa, wb = analysis_a.workers, analysis_b.workers
    if wa.batches or wb.batches:
        if wa.utilization is not None and wb.utilization is not None:
            classify("pool", "utilization", wa.utilization, wb.utilization)
        if wa.skew is not None and wb.skew is not None:
            classify("pool", "skew", wa.skew, wb.skew)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_comparison(
    comparison: RunComparison, show_neutral: bool = False
) -> str:
    """Human-readable tables for ``rhohammer compare``."""
    lines: list[str] = []
    lines.append(f"A: {comparison.path_a}")
    lines.append(f"B: {comparison.path_b}")
    for warning in comparison.identity_warnings:
        lines.append(f"warning: {warning}")

    shown = [
        d
        for d in comparison.deltas
        if show_neutral or d.classification != "neutral"
    ]
    if not shown:
        lines.append("no deltas beyond thresholds — runs are equivalent")
    else:
        order = {"regression": 0, "improvement": 1, "changed": 2, "neutral": 3}
        shown.sort(
            key=lambda d: (
                order[d.classification],
                -(abs(d.rel) if d.rel is not None else float("inf")),
            )
        )
        width = max(len(d.key) for d in shown)
        for d in shown:
            rel = f"{d.rel:+8.1%}" if d.rel is not None else "     new"
            gate = "" if d.gated else "  (ungated wall)"
            lines.append(
                f"  {d.classification:<11} {d.key:<{width}} "
                f"{d.a:>14.6g} -> {d.b:>14.6g}  {rel}{gate}"
            )
    regressions = comparison.regressions
    lines.append(
        f"verdict: {len(regressions)} regression(s), "
        f"{len(comparison.improvements)} improvement(s)"
    )
    return "\n".join(lines)
