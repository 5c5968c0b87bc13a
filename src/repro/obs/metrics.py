"""Dependency-free metrics registry: counters, gauges, histograms.

Instruments are keyed by dotted names plus optional labels
(``pool.tasks_total{status=ok}``) and live in a :class:`MetricsRegistry`.
The registry is designed around two constraints the simulator imposes:

* **near-zero cost when disabled** — a disabled registry hands every call
  site the same shared no-op instrument, so hot loops pay one attribute
  check and one dict-free method call;
* **deterministic parallel merging** — :meth:`MetricsRegistry.mark` /
  :meth:`MetricsRegistry.delta_since` / :meth:`MetricsRegistry.merge`
  let pool workers ship their metric contributions back to the parent,
  which merges them in task order; counters and histograms are additive,
  gauges are last-write-wins in task order, so ``workers=N`` snapshots
  equal ``workers=1`` snapshots.  Persistent workers batch many tasks
  per dispatch and flush one delta per chunk through a
  :class:`DeltaBuffer`; the parent merges chunk deltas in ascending
  task-index order, which preserves the same equalities.

Snapshots are plain sorted dicts, so ``json.dumps`` of a snapshot is the
export format — no client library, no wire protocol.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Mapping

#: Default histogram bucket upper bounds: a 1-2-5 geometric ladder that
#: covers counts (flips per window) through rates (ACTs per second).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    m * 10**e for e in range(0, 10) for m in (1, 2, 5)
)


def metric_key(name: str, labels: Mapping[str, Any] | None = None) -> str:
    """Canonical instrument key: ``name`` or ``name{k=v,...}``, k sorted."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins).

    ``writes`` counts the writes, so a worker's delta ships a gauge it
    wrote since the mark even when the value did not change.
    """

    __slots__ = ("value", "writes")

    def __init__(self) -> None:
        self.value = 0
        self.writes = 0

    def set(self, value: int | float) -> None:
        self.value = value
        self.writes += 1


class Histogram:
    """Distribution summary: count/sum/min/max plus fixed buckets.

    ``bucket_counts[i]`` counts observations ``v <= buckets[i]`` (and
    ``> buckets[i-1]``); the trailing slot counts overflows.
    """

    __slots__ = (
        "buckets", "bucket_counts", "count", "total", "vmin", "vmax",
        "journal",
    )

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: float | None = None
        self.vmax: float | None = None
        #: Raw observations since the last delta flush; ``None`` unless a
        #: :class:`DeltaBuffer` enabled journaling (pool workers only).
        #: Shipping raw values lets the parent replay the exact same
        #: ``total += value`` fold a serial run performs, keeping float
        #: histogram sums bit-identical under chunked merging (plain
        #: delta subtraction regroups the additions, which float
        #: arithmetic does not forgive).
        self.journal: list[float] | None = None

    def observe(self, value: int | float) -> None:
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        if self.journal is not None:
            self.journal.append(value)

    def observe_many(self, values: list[int | float]) -> None:
        """Fold a batch of observations in order, in one fused pass.

        The float ``total`` fold and the journal (when a
        :class:`DeltaBuffer` is active) must see the exact same per-value
        sequence a serial, unbatched run would produce, so that
        phase-batched call sites stay bit-identical to per-event ones —
        hence the sequential ``total += value`` loop rather than a
        vectorised sum (float addition does not regroup).  Count,
        min/max, and the journal are order-insensitive aggregates, so
        those fold once per batch instead of once per value.
        """
        if not values:
            return
        total = self.total
        for value in values:
            total += value
        self.total = total
        self.count += len(values)
        # Bucket counts are order-insensitive, so fill them from one
        # sort (C timsort) plus one bisect per *edge* instead of one
        # bisect per value: slot i gains #{v <= edge_i} - #{v <= edge_{i-1}},
        # which matches the per-value ``bisect_left(buckets, v)`` rule
        # (ties land in the slot of their exact edge).
        ordered = sorted(values)
        bucket_counts = self.bucket_counts
        prev = 0
        for i, edge in enumerate(self.buckets):
            pos = bisect_right(ordered, edge)
            bucket_counts[i] += pos - prev
            prev = pos
        bucket_counts[-1] += len(ordered) - prev
        lo, hi = ordered[0], ordered[-1]
        if self.vmin is None or lo < self.vmin:
            self.vmin = lo
        if self.vmax is None or hi > self.vmax:
            self.vmax = hi
        if self.journal is not None:
            self.journal.extend(values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """The ``q``-quantile (``0 <= q <= 1``) by bucket interpolation.

        Semantics (documented in ``docs/OBSERVABILITY.md``): the target
        rank ``q * count`` is located in the cumulative bucket counts and
        the value is **linearly interpolated** inside the containing
        bucket, assuming observations are uniformly spread across it —
        not snapped to the nearest bucket boundary.  The open-ended first
        and overflow buckets borrow the observed ``min``/``max`` as their
        missing edge, and the result is clamped to ``[min, max]``, so the
        error of any reported quantile is bounded by the width of its
        bucket.  Computed purely from the merged bucket counts, the value
        is identical for ``workers=N`` and serial runs.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0 or self.vmin is None or self.vmax is None:
            return None
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lo = self.vmin if i == 0 else float(self.buckets[i - 1])
                hi = self.vmax if i >= len(self.buckets) else float(self.buckets[i])
                fraction = (rank - cumulative) / n
                value = lo + fraction * (hi - lo)
                return min(max(value, self.vmin), self.vmax)
            cumulative += n
        return self.vmax

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "buckets": [
                [le, n]
                for le, n in zip(
                    list(self.buckets) + ["+inf"], self.bucket_counts
                )
                if n
            ],
        }


class _NoopInstrument:
    """The shared instrument handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass


_NOOP = _NoopInstrument()


class MetricsRegistry:
    """All live instruments of one run, keyed by dotted name + labels."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._journaling = False

    # -- instrument access ---------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter | _NoopInstrument:
        if not self.enabled:
            return _NOOP
        key = metric_key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge | _NoopInstrument:
        if not self.enabled:
            return _NOOP
        key = metric_key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram | _NoopInstrument:
        if not self.enabled:
            return _NOOP
        key = metric_key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(buckets)
            if self._journaling:
                inst.journal = []
        return inst

    def counter_value(self, name: str, **labels: Any) -> float | None:
        """Read a counter without creating it; ``None`` when absent.

        Read-only observers (the health sampler's memo-cache hit rate)
        use this so peeking never materialises instruments that the
        instrumented code itself has not touched — snapshots stay
        identical whether or not anyone looked.
        """
        if not self.enabled:
            return None
        inst = self._counters.get(metric_key(name, labels))
        return None if inst is None else inst.value

    # -- snapshot / export ---------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready snapshot of every instrument, keys sorted."""
        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].as_dict()
                for k in sorted(self._histograms)
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- fork-worker delta protocol ------------------------------------
    def mark(self) -> dict[str, Any]:
        """A snapshot to later diff against (see :meth:`delta_since`)."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.writes for k, g in self._gauges.items()},
            "histograms": {
                k: (h.count, h.total, tuple(h.bucket_counts))
                for k, h in self._histograms.items()
            },
        }

    def delta_since(self, mark: dict[str, Any]) -> dict[str, Any]:
        """What changed since ``mark``, as a mergeable payload.

        Histogram min/max cannot be windowed to the delta period, so the
        delta carries the instrument's lifetime min/max; merging with
        ``min()``/``max()`` keeps the merged result exact because any
        pre-mark extremum is already present on the merging side: fork
        workers inherit the parent registry's history at fork time, and a
        persistent worker's pre-mark history consists of its own earlier
        chunks, whose deltas the parent has already folded in (or will
        fold in at batch end) — re-merging an extremum is idempotent.
        """
        old_c = mark["counters"]
        old_g = mark["gauges"]
        old_h = mark["histograms"]
        # Instruments new since the mark ship even at zero, so a merged
        # snapshot holds every instrument a serial run creates.
        counters = {
            k: c.value - old_c.get(k, 0)
            for k, c in self._counters.items()
            if k not in old_c or c.value != old_c[k]
        }
        # A gauge written since the mark ships even if it was rewritten
        # to its old value: an earlier task on another worker may have
        # moved the merged gauge in between.
        gauges = {
            k: g.value
            for k, g in self._gauges.items()
            if k not in old_g or g.writes != old_g[k]
        }
        histograms = {}
        for k, h in self._histograms.items():
            prev = old_h.get(k, (0, 0.0, ()))
            if k in old_h and h.count == prev[0]:
                continue
            prev_buckets = prev[2]
            histograms[k] = {
                "buckets": list(h.buckets),
                "count": h.count - prev[0],
                "sum": h.total - prev[1],
                "min": h.vmin,
                "max": h.vmax,
                "bucket_counts": [
                    n - (prev_buckets[i] if i < len(prev_buckets) else 0)
                    for i, n in enumerate(h.bucket_counts)
                ],
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def delta_buffer(self) -> "DeltaBuffer":
        """A buffered delta accumulator for chunked worker dispatch."""
        return DeltaBuffer(self)

    def batch(self) -> "MetricsBatch":
        """A phase-local accumulation buffer (see :class:`MetricsBatch`)."""
        return MetricsBatch(self)

    def merge(self, delta: dict[str, Any]) -> None:
        """Fold one worker's :meth:`delta_since` payload into this registry."""
        if not self.enabled:
            return
        for key, amount in delta.get("counters", {}).items():
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter()
            inst.value += amount
        for key, value in delta.get("gauges", {}).items():
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge()
            inst.set(value)
        for key, payload in delta.get("histograms", {}).items():
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(
                    tuple(payload["buckets"])
                )
            hist.count += payload["count"]
            values = payload.get("values")
            if values is not None:
                # Journaled delta: replay the raw observations so the
                # float fold matches a serial run bit-for-bit.
                for value in values:
                    hist.total += value
            else:
                hist.total += payload["sum"]
            if payload["min"] is not None:
                hist.vmin = (
                    payload["min"]
                    if hist.vmin is None
                    else min(hist.vmin, payload["min"])
                )
            if payload["max"] is not None:
                hist.vmax = (
                    payload["max"]
                    if hist.vmax is None
                    else max(hist.vmax, payload["max"])
                )
            for i, n in enumerate(payload["bucket_counts"]):
                hist.bucket_counts[i] += n


class MetricsBatch:
    """Phase-local metric accumulation, flushed at phase boundaries.

    Hot loops (the DRAM hammer window loop, the TRR sampler, the pool
    task loop) emit thousands of metric events per second; paying a
    registry key lookup plus an instrument method call per event is the
    bulk of the metrics-enabled overhead.  A ``MetricsBatch`` instead
    accumulates locally — counters as plain int sums, gauges as
    last-write-wins values, histograms as append-only observation
    journals — and :meth:`flush` applies everything to the registry once,
    at the phase/span boundary the owner chooses.

    Exactness contract (what keeps batched call sites bit-identical to
    per-event ones):

    * counter increments are integer sums — addition order never matters;
    * gauge writes are last-write-wins — only the final value of the
      phase survives, same as per-event emission;
    * histogram observations are replayed **per value, in order** through
      :meth:`Histogram.observe_many`, reproducing the exact float
      ``total`` fold and feeding the :class:`DeltaBuffer` journal, so
      persistent-pool chunk deltas still replay serially in the parent.

    Keys are canonical instrument keys (:func:`metric_key`); callers with
    label-less instruments pass the dotted name directly.  A batch built
    against a disabled registry accumulates nothing visible: callers are
    expected to gate batch *use* on one ``enabled`` check per phase, and
    :meth:`flush` double-checks before touching the registry.
    """

    __slots__ = ("_registry", "_counters", "_gauges", "_observations")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, int | float] = {}
        self._observations: dict[
            str, tuple[tuple[float, ...], list[int | float]]
        ] = {}

    def inc(self, key: str, amount: int | float = 1) -> None:
        counters = self._counters
        counters[key] = counters.get(key, 0) + amount

    def set(self, key: str, value: int | float) -> None:
        self._gauges[key] = value

    def observe(
        self,
        key: str,
        value: int | float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        entry = self._observations.get(key)
        if entry is None:
            entry = self._observations[key] = (buckets, [])
        entry[1].append(value)

    def observe_many(
        self,
        key: str,
        values: list[int | float],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        entry = self._observations.get(key)
        if entry is None:
            entry = self._observations[key] = (buckets, [])
        entry[1].extend(values)

    def flush(self) -> None:
        """Apply the accumulated events to the registry and clear."""
        registry = self._registry
        if registry.enabled:
            reg_counters = registry._counters
            for key, amount in self._counters.items():
                inst = reg_counters.get(key)
                if inst is None:
                    inst = reg_counters[key] = Counter()
                inst.value += amount
            reg_gauges = registry._gauges
            for key, value in self._gauges.items():
                inst = reg_gauges.get(key)
                if inst is None:
                    inst = reg_gauges[key] = Gauge()
                inst.set(value)
            reg_hists = registry._histograms
            for key, (buckets, values) in self._observations.items():
                hist = reg_hists.get(key)
                if hist is None:
                    hist = reg_hists[key] = Histogram(buckets)
                    if registry._journaling:
                        hist.journal = []
                hist.observe_many(values)
        self._counters.clear()
        self._gauges.clear()
        self._observations.clear()


class DeltaBuffer:
    """Per-worker buffered metric deltas, flushed at chunk boundaries.

    A persistent pool worker processes many tasks per dispatch; shipping
    one delta per task would pay the :meth:`MetricsRegistry.mark` /
    :meth:`MetricsRegistry.delta_since` cost on every task and bloat the
    result pipe.  A ``DeltaBuffer`` marks the registry once when the
    chunk starts and :meth:`flush` produces a single mergeable payload
    covering every task in the chunk (re-marking for the next one).

    Exactness: counters and histogram counts/buckets are integers, so
    one chunk-sized delta merged in ascending task-index order is
    trivially bit-identical to per-task merging.  Float histogram sums
    are *not* addition-order invariant, so the buffer additionally turns
    on per-histogram journaling: the flushed delta carries the chunk's
    raw observations and :meth:`MetricsRegistry.merge` replays them one
    by one, reproducing the exact accumulation sequence of a serial run.
    On a disabled registry, :meth:`flush` always returns ``None``.
    """

    __slots__ = ("_registry", "_mark")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._mark = None
        if registry.enabled:
            self._mark = registry.mark()
            registry._journaling = True
            for hist in registry._histograms.values():
                if hist.journal is None:
                    hist.journal = []

    def flush(self) -> dict[str, Any] | None:
        """The accumulated delta since the last flush, or ``None`` if empty."""
        if self._mark is None:
            return None
        delta = self._registry.delta_since(self._mark)
        for key, payload in delta["histograms"].items():
            hist = self._registry._histograms[key]
            values = hist.journal
            if values is None:
                continue
            payload["values"] = list(values)
            if values:  # windowed extrema: exact under ordered merging
                payload["min"] = min(values)
                payload["max"] = max(values)
        for hist in self._registry._histograms.values():
            if hist.journal:
                hist.journal = []
        self._mark = self._registry.mark()
        if not (
            delta["counters"] or delta["gauges"] or delta["histograms"]
        ):
            return None
        return delta
