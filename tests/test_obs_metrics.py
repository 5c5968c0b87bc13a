"""Unit tests for the metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    metric_key,
)


def test_metric_key_plain_and_labelled():
    assert metric_key("dram.flips_total") == "dram.flips_total"
    assert (
        metric_key("dram.flips_by_window", {"window": 3, "bank": 1})
        == "dram.flips_by_window{bank=1,window=3}"
    )


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry(enabled=True)
    reg.counter("c").inc()
    reg.counter("c").inc(4)
    reg.gauge("g").set(7)
    reg.gauge("g").set(2)
    for v in (1, 10, 10, 1000):
        reg.histogram("h").observe(v)
    snap = reg.snapshot()
    assert snap["counters"]["c"] == 5
    assert snap["gauges"]["g"] == 2
    hist = snap["histograms"]["h"]
    assert hist["count"] == 4
    assert hist["min"] == 1 and hist["max"] == 1000
    assert hist["mean"] == (1 + 10 + 10 + 1000) / 4


def test_labelled_instruments_are_distinct():
    reg = MetricsRegistry(enabled=True)
    reg.counter("flips", window=1).inc(3)
    reg.counter("flips", window=2).inc(5)
    snap = reg.snapshot()["counters"]
    assert snap == {"flips{window=1}": 3, "flips{window=2}": 5}


def test_disabled_registry_is_noop_and_shared():
    reg = MetricsRegistry(enabled=False)
    a = reg.counter("x")
    b = reg.histogram("y")
    assert a is b  # the one shared no-op instrument
    a.inc(100)
    b.observe(1.0)
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_snapshot_is_json_serialisable_and_sorted():
    reg = MetricsRegistry(enabled=True)
    reg.counter("z.last").inc()
    reg.counter("a.first").inc()
    snap = reg.snapshot()
    json.dumps(snap)  # must not raise
    assert list(snap["counters"]) == ["a.first", "z.last"]


def test_histogram_buckets_only_report_nonzero():
    h = Histogram(buckets=(1, 10, 100))
    h.observe(5)
    h.observe(7)
    h.observe(5000)  # overflow slot
    d = h.as_dict()
    assert d["buckets"] == [[10, 2], ["+inf", 1]]


def test_default_buckets_cover_flip_counts_and_rates():
    # 1-2-5 ladder over ten decades: per-window flips (~tens) through
    # effective ACT rates (~millions/s) all land inside, not overflow.
    assert DEFAULT_BUCKETS[0] == 1
    assert DEFAULT_BUCKETS[-1] == 5e9
    h = Histogram()
    h.observe(37)
    h.observe(2.4e6)
    assert h.bucket_counts[-1] == 0


def test_delta_merge_reproduces_serial_snapshot():
    """The fork-worker protocol: parent + merged deltas == serial run."""
    serial = MetricsRegistry(enabled=True)
    parent = MetricsRegistry(enabled=True)
    for reg in (serial, parent):  # shared pre-fork history
        reg.counter("acts").inc(10)
        reg.histogram("flips").observe(3)

    # Two simulated workers, each inheriting the parent state via fork.
    deltas = []
    for contribution in ((5, 8), (7, 2)):
        child = MetricsRegistry(enabled=True)
        child.counter("acts").inc(10)  # inherited history
        child.histogram("flips").observe(3)
        mark = child.mark()
        child.counter("acts").inc(contribution[0])
        child.histogram("flips").observe(contribution[1])
        child.gauge("occupancy").set(contribution[1])
        # Instruments a worker creates but never moves still ship.
        child.counter("escaped").inc(0)
        child.histogram("empty").observe_many([])
        deltas.append(child.delta_since(mark))

    # The serial run does the same work in task order.
    for contribution in ((5, 8), (7, 2)):
        serial.counter("acts").inc(contribution[0])
        serial.histogram("flips").observe(contribution[1])
        serial.gauge("occupancy").set(contribution[1])
        serial.counter("escaped").inc(0)
        serial.histogram("empty").observe_many([])

    for delta in deltas:  # parent merges in task order
        parent.merge(delta)
    assert parent.snapshot() == serial.snapshot()


def test_delta_ships_gauge_rewritten_to_its_marked_value():
    """Worker A runs tasks 1 and 3, worker B task 2: task 3 writes the
    value A's gauge already held, and the merge must still end on it."""
    serial = MetricsRegistry(enabled=True)
    parent = MetricsRegistry(enabled=True)
    worker_a = MetricsRegistry(enabled=True)
    worker_b = MetricsRegistry(enabled=True)
    deltas = []
    for worker, value in ((worker_a, 2), (worker_b, 6), (worker_a, 2)):
        mark = worker.mark()
        batch = worker.batch()
        batch.set("dram.trr.last_occupancy", value)
        batch.flush()
        deltas.append(worker.delta_since(mark))
        serial.gauge("dram.trr.last_occupancy").set(value)
    for delta in deltas:
        parent.merge(delta)
    assert parent.snapshot() == serial.snapshot()
    assert parent.snapshot()["gauges"] == {"dram.trr.last_occupancy": 2}


def test_batch_flush_reproduces_direct_updates():
    """A phase batch flushed once == the same events applied per-event."""
    direct = MetricsRegistry(enabled=True)
    batched = MetricsRegistry(enabled=True)
    direct.counter("acts").inc(3)
    direct.counter("acts").inc(4)
    direct.gauge("occ").set(5)
    direct.gauge("occ").set(2)
    for v in (1.5, 2.5, 40.0):
        direct.histogram("lat").observe(v)

    batch = batched.batch()
    batch.inc("acts", 3)
    batch.inc("acts", 4)
    batch.set("occ", 5)
    batch.set("occ", 2)
    batch.observe("lat", 1.5)
    batch.observe_many("lat", [2.5, 40.0])
    batch.flush()
    assert batched.snapshot() == direct.snapshot()


def test_batch_flush_feeds_the_delta_journal():
    """Batched observations inside a worker chunk still journal raw
    values in order, so persistent-pool merges keep replaying the exact
    serial float fold."""
    reg = MetricsRegistry(enabled=True)
    buffer = reg.delta_buffer()
    batch = reg.batch()
    batch.observe("lat", 0.1)
    batch.observe("lat", 0.2)
    batch.flush()
    delta = buffer.flush()
    assert delta["histograms"]["lat"]["values"] == [0.1, 0.2]


def test_batch_on_disabled_registry_is_invisible():
    reg = MetricsRegistry(enabled=False)
    batch = reg.batch()
    batch.inc("c", 5)
    batch.set("g", 1)
    batch.observe("h", 1.0)
    batch.flush()
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_batch_flush_clears_and_is_reusable():
    reg = MetricsRegistry(enabled=True)
    batch = reg.batch()
    batch.inc("c", 2)
    batch.flush()
    batch.flush()  # a drained batch flushes to nothing
    batch.inc("c", 1)
    batch.flush()
    assert reg.snapshot()["counters"]["c"] == 3


def test_delta_only_contains_changes():
    reg = MetricsRegistry(enabled=True)
    reg.counter("before").inc()
    mark = reg.mark()
    reg.counter("after").inc(2)
    delta = reg.delta_since(mark)
    assert delta["counters"] == {"after": 2}
    assert delta["histograms"] == {}


def test_reset_clears_instruments():
    reg = MetricsRegistry(enabled=True)
    reg.counter("c").inc()
    reg.reset()
    assert reg.snapshot()["counters"] == {}


def test_percentile_interpolates_within_a_bucket():
    # All mass in the first (open-ended) bucket: lo borrows the observed
    # min, hi is the bucket edge, and the rank interpolates linearly.
    h = Histogram(buckets=(10,))
    for v in (2, 4, 6, 8):
        h.observe(v)
    assert h.percentile(0.50) == 6.0  # rank 2 of 4 -> halfway from 2 to 10
    assert h.percentile(0.0) == 2.0  # the observed min
    assert h.percentile(1.0) == 8.0  # clamped to the observed max


def test_percentile_spans_buckets_and_clamps():
    h = Histogram(buckets=(10, 20, 30))
    for _ in range(5):
        h.observe(5)  # first bucket
    for _ in range(5):
        h.observe(25)  # (20, 30] bucket
    # Rank 5 lands exactly at the first bucket's upper edge.
    assert h.percentile(0.50) == 10.0
    # Rank 9 interpolates to 28 inside (20, 30], then clamps to max=25.
    assert h.percentile(0.90) == 25.0


def test_percentile_overflow_bucket_borrows_max():
    h = Histogram(buckets=(10,))
    h.observe(5)
    h.observe(1000)  # overflow slot: upper edge becomes the observed max
    p99 = h.percentile(0.99)
    assert p99 == pytest.approx(10 + 0.98 * (1000 - 10))


def test_percentile_edge_cases():
    h = Histogram()
    assert h.percentile(0.5) is None  # empty histogram has no quantiles
    with pytest.raises(ValueError):
        h.percentile(1.5)
    h.observe(42)
    assert h.percentile(0.5) == 42.0  # single observation: every quantile


def test_percentiles_in_as_dict_and_merge_identical():
    """p50/p90/p99 come from merged bucket counts: parallel == serial."""
    serial = MetricsRegistry(enabled=True)
    parent = MetricsRegistry(enabled=True)

    values = [1, 3, 9, 27, 81, 243, 729]
    for v in values:
        serial.histogram("lat").observe(v)

    # Two workers observe disjoint halves; the parent merges the deltas.
    for half in (values[:4], values[4:]):
        child = MetricsRegistry(enabled=True)
        m = child.mark()
        for v in half:
            child.histogram("lat").observe(v)
        parent.merge(child.delta_since(m))

    snap_serial = serial.snapshot()["histograms"]["lat"]
    snap_parent = parent.snapshot()["histograms"]["lat"]
    assert {"p50", "p90", "p99"} <= set(snap_serial)
    for stat in ("p50", "p90", "p99"):
        assert snap_serial[stat] == snap_parent[stat]
    assert snap_serial == snap_parent
