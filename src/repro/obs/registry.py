"""Persistent run registry: a fleet of runs in one SQLite database.

PRs 2–3 made a single run observable (``trace.jsonl``, ``metrics.json``,
``rhohammer analyze``/``compare``), but ρHammer's headline claims are
longitudinal — flip yields and attack times tracked across platforms,
DIMMs, and code revisions.  The registry is the layer that makes those
trajectories queryable: every instrumented CLI run (``--out`` /
``--registry``) and every ``rhohammer bench`` invocation records one row
— its manifest identity, the final metric snapshot, per-phase rollups,
and bench suite numbers — into a dependency-free SQLite database, and
``rhohammer history`` / ``rhohammer trends`` answer questions no single
run directory can: *what did this metric do over the last N runs, and is
the latest one a regression?*

Design constraints, mirroring the rest of :mod:`repro.obs`:

* **stdlib only** — ``sqlite3`` ships with CPython; no ORM, no client.
* **domain over storage** — this module is the *domain* layer
  (manifests, bench payloads, trend verdicts, key flattening).  All
  persistence lives in :class:`~repro.obs.store.SqliteRunStore`, which
  carries the WAL/immediate-transaction concurrency story and the
  ``PRAGMA user_version`` migration chain.
* **never take the run down** — CLI recording wraps every registry write
  in a guard; a broken/locked/read-only database degrades to a warning.

Every numeric fact of a run is flattened into one ``samples`` table of
``(run_id, key, value)`` rows under dotted keys::

    counters.fuzz.flips_total        gauges.dram.trr.last_occupancy
    histograms.hammer.cache_miss_rate.p90
    phases.fuzz.campaign.wall_s      phases.pool.batch.count
    bench.dram.timings.vectorised_s  bench.engine.checks.total_flips

so ``trends`` is a single indexed query regardless of where a number
came from.
"""

from __future__ import annotations

import fnmatch
import json
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any, Iterable, Mapping

from repro.obs.compare import (
    DEFAULT_THRESHOLD,
    DEFAULT_WALL_THRESHOLD,
    classify_delta,
    direction_for,
    is_wall_key,
)
from repro.obs.health import flatten_health
from repro.obs.store import (  # noqa: F401  (re-exported for callers)
    SCHEMA_VERSION,
    RegistryError,
    SqliteRunStore,
)

#: Conventional database filename next to a family of run directories.
REGISTRY_FILENAME = "registry.sqlite"

#: Environment variable naming the default registry database.
REGISTRY_ENV = "RHOHAMMER_REGISTRY"

#: Histogram summary stats worth tracking across runs.
_HISTOGRAM_STATS = ("count", "sum", "mean", "p50", "p90", "p99")

#: Phase rollup stats worth tracking across runs.
_PHASE_STATS = ("count", "wall_s", "self_wall_s", "virtual_s")


def default_registry_path(out_dir: str | os.PathLike[str] | None = None) -> str | None:
    """Resolve the registry database a run should record into.

    Resolution order: the :data:`REGISTRY_ENV` environment variable (the
    value ``none`` disables recording), else — when the run writes a
    ``--out`` directory — ``registry.sqlite`` next to that directory, so
    sibling runs under one parent (``runs/A``, ``runs/B``, …) naturally
    share one database.  ``None`` means "do not record".
    """
    env = os.environ.get(REGISTRY_ENV)
    if env is not None:
        env = env.strip()
        if not env or env.lower() == "none":
            return None
        return env
    if out_dir is not None:
        parent = os.path.dirname(os.path.abspath(os.fspath(out_dir)))
        return os.path.join(parent, REGISTRY_FILENAME)
    return None


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One registered run (without its samples; see ``samples_for``)."""

    run_id: int
    recorded_at: str
    kind: str
    command: str | None
    platform: str | None
    dimm: str | None
    seed: int | None
    scale: str | None
    git: str | None
    suite: str | None
    exit_code: int | None
    tag: str | None = None
    health: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "id": self.run_id,
            "recorded_at": self.recorded_at,
            "kind": self.kind,
            "command": self.command,
            "platform": self.platform,
            "dimm": self.dimm,
            "seed": self.seed,
            "scale": self.scale,
            "git": self.git,
            "suite": self.suite,
            "exit_code": self.exit_code,
            "tag": self.tag,
        }
        if self.health is not None:
            # Runs recorded without fleet-health sampling keep the
            # pre-v4 payload shape.
            payload["health"] = self.health
        return payload


@dataclass
class TrendPoint:
    """One run's value of one metric."""

    run_id: int
    recorded_at: str
    git: str | None
    value: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "run": self.run_id,
            "recorded_at": self.recorded_at,
            "git": self.git,
            "value": self.value,
        }


@dataclass
class MetricTrend:
    """One metric's cross-run series plus the regression verdict.

    The verdict is ``rhohammer compare``'s classifier: the latest
    value is judged against the **rolling median** of the ``window``
    preceding values; deterministic quantities gate at ±``threshold``
    (default 5%), wall-clock quantities use the laxer
    ``wall_threshold`` and are ungated unless ``gate_wall``.
    """

    metric: str
    points: list[TrendPoint] = field(default_factory=list)
    direction: str = "none"
    wall: bool = False
    baseline: float | None = None
    latest: float | None = None
    rel: float | None = None
    classification: str = "insufficient"
    gated: bool = False

    @property
    def regressed(self) -> bool:
        return self.classification == "regression" and self.gated

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "direction": self.direction,
            "wall": self.wall,
            "baseline": self.baseline,
            "latest": self.latest,
            "rel": round(self.rel, 6) if self.rel is not None else None,
            "classification": self.classification,
            "gated": self.gated,
            "points": [p.to_dict() for p in self.points],
        }


# ----------------------------------------------------------------------
# Flattening run artifacts into samples
# ----------------------------------------------------------------------
def _numeric(value: Any) -> float | None:
    """Booleans become 0/1; other numbers pass through; rest drop."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def flatten_metrics(metrics: Mapping[str, Any] | None) -> dict[str, float]:
    """A metrics snapshot as flat ``counters.* / gauges.* / histograms.*`` keys."""
    out: dict[str, float] = {}
    if not metrics:
        return out
    for section in ("counters", "gauges"):
        for key, value in (metrics.get(section) or {}).items():
            num = _numeric(value)
            if num is not None:
                out[f"{section}.{key}"] = num
    for key, hist in (metrics.get("histograms") or {}).items():
        if not isinstance(hist, Mapping):
            continue
        for stat in _HISTOGRAM_STATS:
            num = _numeric(hist.get(stat))
            if num is not None:
                out[f"histograms.{key}.{stat}"] = num
    return out


def flatten_phases(phases: Mapping[str, Any] | None) -> dict[str, float]:
    """Per-phase rollups (``TraceAnalysis.phases`` dicts) as flat keys."""
    out: dict[str, float] = {}
    for name, rollup in (phases or {}).items():
        payload = rollup.to_dict() if hasattr(rollup, "to_dict") else rollup
        if not isinstance(payload, Mapping):
            continue
        for stat in _PHASE_STATS:
            num = _numeric(payload.get(stat))
            if num is not None:
                out[f"phases.{name}.{stat}"] = num
    return out


def flatten_bench(payload: Mapping[str, Any]) -> dict[str, float]:
    """A ``BENCH_all.json`` payload as flat ``bench.*`` keys."""
    out: dict[str, float] = {}
    for name, bench in (payload.get("benches") or {}).items():
        if not isinstance(bench, Mapping):
            continue
        for section in ("checks", "timings"):
            for key, value in (bench.get(section) or {}).items():
                num = _numeric(value)
                if num is not None:
                    out[f"bench.{name}.{section}.{key}"] = num
    return out


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _parse_recorded_at(text: str | None) -> datetime | None:
    """Parse a ``recorded_at`` stamp back into an aware datetime.

    The registry writes ``%Y-%m-%dT%H:%M:%S%z``; older rows (or hand-
    edited databases) may lack the UTC offset, in which case the stamp is
    interpreted in the local timezone.  Unparseable stamps return
    ``None`` — gc treats those rows as un-aged and keeps them.
    """
    if not text:
        return None
    for fmt in ("%Y-%m-%dT%H:%M:%S%z", "%Y-%m-%dT%H:%M:%S"):
        try:
            parsed = datetime.strptime(text, fmt)
        except ValueError:
            continue
        return parsed.astimezone()
    return None


@dataclass
class GcReport:
    """What one :meth:`RunRegistry.gc` pass examined and removed."""

    examined: int
    pruned: int
    kept: int
    kept_tagged: int
    pruned_ids: list[int]
    dry_run: bool
    vacuumed: bool
    before: dict[str, Any]
    after: dict[str, Any]

    @property
    def freed_bytes(self) -> int:
        before = self.before.get("file_bytes") or 0
        after = self.after.get("file_bytes") or 0
        return max(0, int(before) - int(after))

    def to_dict(self) -> dict[str, Any]:
        return {
            "examined": self.examined,
            "pruned": self.pruned,
            "kept": self.kept,
            "kept_tagged": self.kept_tagged,
            "pruned_ids": list(self.pruned_ids),
            "dry_run": self.dry_run,
            "vacuumed": self.vacuumed,
            "freed_bytes": self.freed_bytes,
            "before": dict(self.before),
            "after": dict(self.after),
        }


# ----------------------------------------------------------------------
# The registry itself
# ----------------------------------------------------------------------
class RunRegistry:
    """The domain-level registry of runs; usable as a context manager.

    Backed by the :class:`~repro.obs.store.SqliteRunStore` at ``path``,
    exposed as :attr:`store`.
    """

    def __init__(
        self, path: str | os.PathLike[str], timeout: float = 30.0
    ) -> None:
        self.store = SqliteRunStore(path, timeout=timeout)
        self.path = self.store.path

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "RunRegistry":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        return self.store.schema_version

    # -- recording -----------------------------------------------------
    def _insert(
        self,
        *,
        kind: str,
        command: str | None,
        platform: str | None,
        dimm: str | None,
        seed: int | None,
        scale: str | None,
        git: str | None,
        suite: str | None,
        exit_code: int | None,
        samples: Mapping[str, float],
        recorded_at: str | None,
        health: Mapping[str, Any] | None = None,
    ) -> int:
        return self.store.insert_run(
            {
                "recorded_at": recorded_at or _timestamp(),
                "kind": kind,
                "command": command,
                "platform": platform,
                "dimm": dimm,
                "seed": seed,
                "scale": scale,
                "git": git,
                "suite": suite,
                "exit_code": exit_code,
                "health": (
                    json.dumps(dict(health), sort_keys=True)
                    if health
                    else None
                ),
            },
            samples,
        )

    def record_run(
        self,
        manifest: Mapping[str, Any],
        phases: Mapping[str, Any] | None = None,
        extra_samples: Mapping[str, float] | None = None,
        recorded_at: str | None = None,
        health: Mapping[str, Any] | None = None,
    ) -> int:
        """Register one instrumented run from its manifest dict.

        ``manifest`` is a :meth:`repro.obs.manifest.RunManifest.to_dict`
        payload (or the trace stream's header); ``phases`` is the
        ``phases`` mapping of a :class:`~repro.obs.analyze.TraceAnalysis`
        (rollup objects or their dicts); ``health`` is a
        :func:`repro.obs.health.summarize_health` summary, persisted as
        the run's JSON ``health`` column *and* flattened into ``health.*``
        samples for ``trends``.  Returns the new run's id.
        """
        budget = manifest.get("budget") or {}
        samples = flatten_metrics(manifest.get("metrics"))
        samples.update(flatten_phases(phases))
        for key, value in budget.items():
            num = _numeric(value)
            if num is not None:
                samples[f"budget.{key}"] = num
        if health:
            samples.update(flatten_health(health))
        if extra_samples:
            samples.update(extra_samples)
        return self._insert(
            kind="run",
            command=manifest.get("command"),
            platform=manifest.get("platform"),
            dimm=manifest.get("dimm"),
            seed=manifest.get("seed"),
            scale=manifest.get("scale"),
            git=manifest.get("git"),
            suite=None,
            exit_code=manifest.get("exit_code"),
            samples=samples,
            recorded_at=recorded_at,
            health=health,
        )

    def record_bench(
        self,
        payload: Mapping[str, Any],
        recorded_at: str | None = None,
    ) -> int:
        """Register one ``BENCH_all.json`` payload (``rhohammer bench``)."""
        return self._insert(
            kind="bench",
            command="bench",
            platform=None,
            dimm=None,
            seed=None,
            scale=payload.get("scale"),
            git=payload.get("git"),
            suite=payload.get("suite"),
            exit_code=None,
            samples=flatten_bench(payload),
            recorded_at=recorded_at,
        )

    # -- querying ------------------------------------------------------
    def runs(
        self,
        *,
        kind: str | None = None,
        command: str | None = None,
        platform: str | None = None,
        dimm: str | None = None,
        seed: int | None = None,
        scale: str | None = None,
        git: str | None = None,
        suite: str | None = None,
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Registered runs, oldest first, filtered by identity fields.

        ``git`` matches as a substring (describe outputs carry hashes);
        every other filter is exact.  ``limit`` keeps the *newest* N.
        """
        rows = self.store.query_runs(
            {
                "kind": kind,
                "command": command,
                "platform": platform,
                "dimm": dimm,
                "seed": seed,
                "scale": scale,
                "suite": suite,
            },
            git_substring=git,
            limit=limit,
        )
        return [self._record(row) for row in rows]

    @staticmethod
    def _record(row: Mapping[str, Any]) -> RunRecord:
        health_raw = row.get("health")
        health: dict[str, Any] | None = None
        if health_raw:
            try:
                parsed = json.loads(health_raw)
            except (TypeError, ValueError):
                parsed = None
            if isinstance(parsed, dict):
                health = parsed
        return RunRecord(
            run_id=row["id"],
            recorded_at=row["recorded_at"],
            kind=row["kind"],
            command=row["command"],
            platform=row["platform"],
            dimm=row["dimm"],
            seed=row["seed"],
            scale=row["scale"],
            git=row["git"],
            suite=row["suite"],
            exit_code=row["exit_code"],
            tag=row["tag"],
            health=health,
        )

    def samples_for(self, run_id: int) -> dict[str, float]:
        """Every flattened sample of one run, key-sorted."""
        return self.store.samples_for(run_id)

    def metric_keys(self, pattern: str | None = None) -> list[str]:
        """Distinct sample keys, optionally filtered by a glob pattern."""
        keys = self.store.sample_keys()
        if pattern is None:
            return keys
        return [k for k in keys if fnmatch.fnmatchcase(k, pattern)]

    def series(self, metric: str, **filters: Any) -> list[TrendPoint]:
        """One metric's value across matching runs, oldest first."""
        points: list[TrendPoint] = []
        for record in self.runs(**filters):
            value = self.store.sample_value(record.run_id, metric)
            if value is None:
                continue
            points.append(
                TrendPoint(
                    run_id=record.run_id,
                    recorded_at=record.recorded_at,
                    git=record.git,
                    value=value,
                )
            )
        return points

    # -- retention -----------------------------------------------------
    def tag(self, run_id: int, tag: str | None) -> bool:
        """Set (or clear, with ``None``) a run's retention tag.

        Tagged runs survive :meth:`gc` by default — tag the runs that
        anchor a trend baseline or document a milestone.  Returns whether
        the run existed.
        """
        return self.store.set_tag(run_id, tag)

    def stats(self) -> dict[str, Any]:
        """Registry-wide shape/size report (see ``SqliteRunStore.stats``)."""
        return self.store.stats()

    def gc(
        self,
        *,
        max_age_days: float | None = None,
        keep_last: int | None = None,
        keep_tagged: bool = True,
        dry_run: bool = False,
        vacuum: bool = True,
        now: datetime | None = None,
    ) -> GcReport:
        """Prune old runs by retention policy; returns a :class:`GcReport`.

        A run is *expired* when it violates **any** supplied policy:
        older than ``max_age_days``, or beyond the ``keep_last`` newest
        runs.  Expired runs with a tag are kept while ``keep_tagged``
        (the default) — tags exist precisely to pin milestones past
        retention.  At least one of ``max_age_days`` / ``keep_last`` is
        required, so a bare ``gc`` can never empty a registry.

        ``dry_run`` computes the same report without deleting (and
        without vacuuming).  ``vacuum`` compacts the database file after
        a deleting pass.  Rows whose ``recorded_at`` cannot be parsed
        never age out (they can still fall outside ``keep_last``).
        """
        if max_age_days is None and keep_last is None:
            raise RegistryError(
                "gc needs a retention policy: max_age_days and/or keep_last"
            )
        if max_age_days is not None and max_age_days < 0:
            raise RegistryError("max_age_days must be >= 0")
        if keep_last is not None and keep_last < 0:
            raise RegistryError("keep_last must be >= 0")
        before = self.store.stats()
        records = self.runs()  # oldest first
        cutoff: datetime | None = None
        if max_age_days is not None:
            reference = now if now is not None else datetime.now().astimezone()
            cutoff = reference - timedelta(days=max_age_days)
        newest_ids: set[int] = set()
        if keep_last is not None and keep_last > 0:
            newest_ids = {rec.run_id for rec in records[-keep_last:]}
        pruned_ids: list[int] = []
        kept_tagged = 0
        for rec in records:
            expired = False
            if cutoff is not None:
                stamp = _parse_recorded_at(rec.recorded_at)
                if stamp is not None and stamp < cutoff:
                    expired = True
            if keep_last is not None and rec.run_id not in newest_ids:
                expired = True
            if not expired:
                continue
            if keep_tagged and rec.tag:
                kept_tagged += 1
                continue
            pruned_ids.append(rec.run_id)
        vacuumed = False
        if not dry_run and pruned_ids:
            self.store.delete_runs(pruned_ids)
            if vacuum:
                self.store.vacuum()
                vacuumed = True
        after = self.store.stats() if not dry_run else dict(before)
        return GcReport(
            examined=len(records),
            pruned=len(pruned_ids),
            kept=len(records) - len(pruned_ids),
            kept_tagged=kept_tagged,
            pruned_ids=pruned_ids,
            dry_run=dry_run,
            vacuumed=vacuumed,
            before=before,
            after=after,
        )


# ----------------------------------------------------------------------
# Trends: cross-run series + rolling-median regression detection
# ----------------------------------------------------------------------
def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def compute_trend(
    metric: str,
    points: list[TrendPoint],
    window: int = 5,
    threshold: float = DEFAULT_THRESHOLD,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    gate_wall: bool = False,
) -> MetricTrend:
    """Judge the latest point of one series against its rolling median.

    The verdict is :func:`~repro.obs.compare.classify_delta`'s, with the
    rolling median of up to ``window`` preceding values as "run A".  A
    series with fewer than two points classifies as ``insufficient``
    (never gated); a metric with no goodness direction classifies as
    ``changed`` when it moves (reported, never gated).
    """
    trend = MetricTrend(
        metric=metric,
        points=points,
        direction=direction_for(metric),
        wall=is_wall_key(metric),
    )
    trend.gated = not trend.wall or gate_wall
    if not points:
        return trend
    trend.latest = points[-1].value
    history = [p.value for p in points[:-1]]
    if not history:
        return trend
    trend.baseline = _median(history[-window:])
    delta = classify_delta(
        "trend", metric, trend.baseline, trend.latest,
        threshold, wall_threshold, gate_wall,
    )
    if delta is None:  # both zero
        trend.classification = "neutral"
    else:
        trend.rel = delta.rel
        trend.classification = delta.classification
    return trend


def compute_trends(
    registry: RunRegistry,
    metrics: Iterable[str],
    window: int = 5,
    threshold: float = DEFAULT_THRESHOLD,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    gate_wall: bool = False,
    **filters: Any,
) -> list[MetricTrend]:
    """Resolve metric names/globs and compute each one's trend.

    A ``metric`` containing glob characters (``*?[``) expands against the
    registry's distinct sample keys; an exact name that matches no data
    still yields an (empty, ``insufficient``) trend so callers can see
    the miss.
    """
    resolved: list[str] = []
    seen: set[str] = set()
    for metric in metrics:
        if any(ch in metric for ch in "*?["):
            names = registry.metric_keys(metric)
        else:
            names = [metric]
        for name in names:
            if name not in seen:
                seen.add(name)
                resolved.append(name)
    return [
        compute_trend(
            metric,
            registry.series(metric, **filters),
            window=window,
            threshold=threshold,
            wall_threshold=wall_threshold,
            gate_wall=gate_wall,
        )
        for metric in resolved
    ]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_history(records: list[RunRecord], registry: RunRegistry) -> str:
    """Human-readable table for ``rhohammer history``."""
    if not records:
        return "registry is empty (no matching runs)"
    lines = [
        f"  {'id':>4} {'kind':<6} {'command':<10} {'target':<22} "
        f"{'scale':<6} {'git':<18} {'exit':>4}  recorded"
    ]
    for rec in records:
        if rec.kind == "bench":
            target = f"suite={rec.suite or '?'}"
        else:
            target = f"{rec.platform}/{rec.dimm} seed={rec.seed}"
        exit_txt = "-" if rec.exit_code is None else str(rec.exit_code)
        tag_txt = f"  [{rec.tag}]" if rec.tag else ""
        lines.append(
            f"  {rec.run_id:>4} {rec.kind:<6} {rec.command or '?':<10} "
            f"{target:<22} {rec.scale or '?':<6} "
            f"{(rec.git or '?')[:18]:<18} {exit_txt:>4}  "
            f"{rec.recorded_at}{tag_txt}"
        )
    lines.append(f"{len(records)} run(s)")
    return "\n".join(lines)


def format_stats(stats: Mapping[str, Any]) -> str:
    """Human-readable report for ``rhohammer registry stats``."""
    kinds = stats.get("kinds") or {}
    kind_txt = (
        ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())) or "none"
    )
    file_kb = (stats.get("file_bytes") or 0) / 1024.0
    free_kb = (stats.get("freelist_bytes") or 0) / 1024.0
    lines = [
        f"  runs:      {stats.get('runs', 0)} ({kind_txt})",
        f"  samples:   {stats.get('samples', 0)}",
        f"  tagged:    {stats.get('tagged', 0)}",
        f"  oldest:    {stats.get('oldest') or '-'}",
        f"  newest:    {stats.get('newest') or '-'}",
        f"  file size: {file_kb:.1f} KiB ({free_kb:.1f} KiB reclaimable)",
    ]
    return "\n".join(lines)


def format_gc(report: GcReport) -> str:
    """Human-readable report for ``rhohammer registry gc``."""
    verb = "would prune" if report.dry_run else "pruned"
    lines = [
        f"  examined {report.examined} run(s): {verb} {report.pruned}, "
        f"kept {report.kept} ({report.kept_tagged} pinned by tag)"
    ]
    if report.pruned_ids:
        ids = ", ".join(str(i) for i in report.pruned_ids[:20])
        more = (
            f" … +{len(report.pruned_ids) - 20} more"
            if len(report.pruned_ids) > 20
            else ""
        )
        lines.append(f"  {verb}: {ids}{more}")
    if report.vacuumed:
        lines.append(
            f"  vacuumed: freed {report.freed_bytes / 1024.0:.1f} KiB"
        )
    after = report.after
    lines.append(
        f"  now: {after.get('runs', 0)} run(s), "
        f"{after.get('samples', 0)} sample(s), "
        f"{(after.get('file_bytes') or 0) / 1024.0:.1f} KiB"
    )
    return "\n".join(lines)


def format_trends(trends: list[MetricTrend]) -> str:
    """Human-readable report for ``rhohammer trends``."""
    if not trends:
        return "no metrics matched"
    lines: list[str] = []
    for trend in trends:
        n = len(trend.points)
        if trend.latest is None:
            lines.append(f"  {trend.metric}: no data")
            continue
        rel = f"{trend.rel:+.1%}" if trend.rel is not None else "n/a"
        base = (
            f"{trend.baseline:.6g}" if trend.baseline is not None else "n/a"
        )
        gate = " (ungated wall)" if trend.wall and not trend.gated else ""
        lines.append(
            f"  {trend.classification:<12} {trend.metric}  "
            f"median={base} latest={trend.latest:.6g}  "
            f"{rel} over {n} run(s){gate}"
        )
        spark = " ".join(f"{p.value:.6g}" for p in trend.points[-8:])
        lines.append(f"      series: {spark}")
    regressions = sum(1 for t in trends if t.regressed)
    lines.append(f"verdict: {regressions} gated regression(s) across "
                 f"{len(trends)} metric(s)")
    return "\n".join(lines)
