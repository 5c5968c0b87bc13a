"""repro.obs — the dependency-free telemetry layer.

Three pieces (see ``docs/OBSERVABILITY.md`` for the full catalogue):

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms keyed by dotted names with labels, JSON snapshots, and a
  delta/merge protocol that keeps ``workers=N`` snapshots identical to
  serial ones;
* :class:`~repro.obs.trace.SpanTracer` — nested phase spans carrying both
  wall-clock and virtual simulated time as a JSONL stream, deterministic
  modulo each record's ``wall`` section;
* :class:`~repro.obs.manifest.RunManifest` — every run stamped with seed,
  platform, DIMM, budget, ``git describe`` and the final metric snapshot.

Instrumented library code reaches telemetry through the process-wide
:data:`OBS` holder::

    from repro.obs import OBS

    if OBS.enabled:                       # one attribute check when off
        OBS.metrics.counter("dram.flips_total").inc(n)
    with OBS.tracer.span("fuzz.campaign", patterns=n) as sp:
        ...
        sp.set(virtual_s=elapsed, flips=total)

Telemetry is **off by default** — every instrument degrades to a shared
no-op and the only disabled-path cost is the guard check (bounded by
``scripts/bench_all.py --only obs``).  Enable it for a block with
:func:`telemetry_session`, or for a whole process with
:meth:`Telemetry.configure`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    AlertRuleError,
    evaluate_records,
    load_rules,
)
from repro.obs.analyze import (
    PhaseRollup,
    RunArtifacts,
    RunLoadError,
    TraceAnalysis,
    analyze_run,
    format_analysis,
)
from repro.obs.compare import (
    RunComparison,
    compare_runs,
    format_comparison,
)
from repro.obs.export import chrome_trace, export_run, openmetrics_text
from repro.obs.health import (
    ALERT_EV,
    EVENT_KINDS,
    FleetState,
    HEALTH_EV,
    ResourceSampler,
    emit_health_event,
    sample_process,
    summarize_health,
)
from repro.obs.live import TraceFollower, follow
from repro.obs.manifest import RUN_SCHEMA, RunManifest, git_describe
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsBatch,
    MetricsRegistry,
    metric_key,
)
from repro.obs.registry import (
    MetricTrend,
    RegistryError,
    RunRecord,
    RunRegistry,
    compute_trends,
    default_registry_path,
)
from repro.obs.trace import (
    DETAIL_LEVELS,
    WALL_KEY,
    Span,
    SpanTracer,
    read_trace,
    strip_wall,
)


class Telemetry:
    """The pair of registries a process exposes to instrumented code.

    ``enabled`` is a plain attribute (not a property) so hot loops pay a
    single attribute load to skip telemetry entirely.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer()
        self.enabled = False

    def configure(
        self,
        trace_path: str | None = None,
        trace_memory: bool = False,
        trace_detail: str = "phase",
        metrics: bool = False,
        heartbeat_s: float | None = None,
        health_s: float | None = None,
        alert_rules: Any = None,
    ) -> None:
        """Turn telemetry on: a trace sink and/or live metrics.

        ``health_s`` opts into fleet resource sampling (see
        :mod:`repro.obs.health`); ``alert_rules`` — a rules-file path or
        a sequence of :class:`~repro.obs.alerts.AlertRule` — arms live
        alert evaluation on the trace stream.
        """
        if (health_s is not None or alert_rules is not None) and (
            trace_path is None and not trace_memory
        ):
            # Health samples and alert records only exist as trace
            # records, so sampling without a sink falls back to memory.
            trace_memory = True
        if trace_path is not None or trace_memory:
            self.tracer.configure(
                path=trace_path,
                memory=trace_memory,
                detail=trace_detail,
                heartbeat_s=heartbeat_s,
                health_s=health_s,
            )
            if alert_rules is not None:
                from repro.obs.alerts import AlertEngine, load_rules

                if isinstance(alert_rules, (str, bytes)) or hasattr(
                    alert_rules, "__fspath__"
                ):
                    alert_rules = load_rules(alert_rules)
                self.tracer.alerts = AlertEngine(alert_rules)
        if metrics:
            self.metrics.reset()
            self.metrics.enabled = True
        self.enabled = self.tracer.enabled or self.metrics.enabled

    def shutdown(self) -> None:
        """Close sinks, drop state, return to the free disabled mode."""
        self.tracer.shutdown()
        self.metrics.enabled = False
        self.metrics.reset()
        self.enabled = False


#: The process-wide telemetry holder all instrumented modules import.
OBS = Telemetry()


@contextmanager
def telemetry_session(
    trace_path: str | None = None,
    trace_memory: bool = False,
    trace_detail: str = "phase",
    metrics: bool = False,
    heartbeat_s: float | None = None,
    health_s: float | None = None,
    alert_rules: Any = None,
) -> Iterator[Telemetry]:
    """Enable :data:`OBS` for a block, restoring the disabled state after.

    The final metrics snapshot is read *inside* the block (or grab it
    in a ``finally`` of your own) — ``shutdown()`` clears it.
    """
    OBS.configure(
        trace_path=trace_path,
        trace_memory=trace_memory,
        trace_detail=trace_detail,
        metrics=metrics,
        heartbeat_s=heartbeat_s,
        health_s=health_s,
        alert_rules=alert_rules,
    )
    try:
        yield OBS
    finally:
        OBS.shutdown()


__all__ = [
    "ALERT_EV",
    "AlertEngine",
    "AlertRule",
    "AlertRuleError",
    "Counter",
    "DEFAULT_BUCKETS",
    "DETAIL_LEVELS",
    "EVENT_KINDS",
    "FleetState",
    "Gauge",
    "HEALTH_EV",
    "Histogram",
    "MetricTrend",
    "MetricsBatch",
    "MetricsRegistry",
    "OBS",
    "ResourceSampler",
    "PhaseRollup",
    "RUN_SCHEMA",
    "RegistryError",
    "RunArtifacts",
    "RunComparison",
    "RunLoadError",
    "RunManifest",
    "RunRecord",
    "RunRegistry",
    "Span",
    "SpanTracer",
    "Telemetry",
    "TraceAnalysis",
    "TraceFollower",
    "WALL_KEY",
    "analyze_run",
    "chrome_trace",
    "compare_runs",
    "compute_trends",
    "default_registry_path",
    "emit_health_event",
    "evaluate_records",
    "export_run",
    "follow",
    "format_analysis",
    "format_comparison",
    "git_describe",
    "load_rules",
    "metric_key",
    "openmetrics_text",
    "read_trace",
    "sample_process",
    "strip_wall",
    "summarize_health",
    "telemetry_session",
]
