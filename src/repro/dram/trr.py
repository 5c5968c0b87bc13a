"""Target Row Refresh (TRR) sampler model, plus Intel's pTRR.

Vendors keep TRR designs secret; what TRRespass / Blacksmith established is
that DDR4 in-DRAM TRR (1) observes only a bounded number of aggressor
candidates per refresh interval, and (2) issues a small number of targeted
neighbour refreshes piggybacked on REF commands.  Our model captures
exactly those two bounds:

* a counter table of ``capacity`` entries; an activation of a row already in
  the table bumps its counter, an activation of a new row is inserted only
  while the table has free slots (each ACT is *observed* at all with
  probability ``sample_prob``).  This "fill-and-shield" behaviour is what
  non-uniform patterns exploit: high-frequency decoys claim the slots early
  in each interval so that the true aggressors are never tracked.
* at each REF, the neighbours of the ``refreshes_per_ref`` highest-count
  entries are refreshed and those entries are cleared; the whole table is
  flushed every ``flush_every_refs`` REFs (modelling the periodic sampler
  reset prior work observed).

pTRR (:class:`PtrrShield`) is the Section 6 mitigation: the memory
controller itself probabilistically refreshes neighbours of *every*
activation, which collapses all our attack configurations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import RngStream
from repro.obs import MetricsBatch

#: Bucket ladder for the ``dram.trr.occupancy`` histogram (table sizes).
OCCUPANCY_BUCKETS: tuple[int, ...] = tuple(range(1, 33))


@dataclass(frozen=True)
class TrrConfig:
    """Strength knobs for the in-DRAM TRR sampler."""

    capacity: int = 6
    sample_prob: float = 0.85
    refreshes_per_ref: int = 2
    flush_every_refs: int = 2

    def scaled(self, strength: float) -> "TrrConfig":
        """A proportionally stronger (>1) or weaker (<1) sampler."""
        return TrrConfig(
            capacity=max(1, int(round(self.capacity * strength))),
            sample_prob=min(1.0, self.sample_prob * strength),
            refreshes_per_ref=max(1, int(round(self.refreshes_per_ref * strength))),
            flush_every_refs=self.flush_every_refs,
        )


#: Per-vendor sampler profiles, after TRRespass/Blacksmith's observation
#: that implementations differ widely across manufacturers.  The default
#: machine build uses the S-vendor profile; the others are opt-in
#: (`build_machine(trr_config=VENDOR_TRR_PROFILES[...])`) for studying how
#: pattern effectiveness shifts with sampler design.
VENDOR_TRR_PROFILES: dict[str, TrrConfig] = {
    # Counting sampler, moderate capacity (the calibrated default).
    "S": TrrConfig(capacity=6, sample_prob=0.85, refreshes_per_ref=2,
                   flush_every_refs=2),
    # Small table, aggressive per-REF mitigation: strong against few
    # aggressors, overflowed by many-sided patterns.
    "H": TrrConfig(capacity=4, sample_prob=0.95, refreshes_per_ref=3,
                   flush_every_refs=1),
    # Large table, sparse sampling: hard to overflow, easier to outpace.
    "M": TrrConfig(capacity=12, sample_prob=0.5, refreshes_per_ref=2,
                   flush_every_refs=4),
}


@dataclass(slots=True)
class TrrSampler:
    """One bank's TRR sampler state.

    Telemetry is phase-batched: the owner (the hammer loop) attaches a
    :class:`~repro.obs.metrics.MetricsBatch` to ``metrics`` and calls
    :meth:`flush_metrics` at the bank/phase boundary before flushing the
    batch itself; with ``metrics`` left ``None`` the sampler emits
    nothing.  Hot methods only bump plain instance ints and append to a
    plain list — no method call, no key hashing — so per-interval
    telemetry cost is a handful of attribute adds, and the per-REF
    occupancy journal keeps its issue order for the bit-identical
    parallel merge.
    """

    config: TrrConfig
    rng: RngStream
    metrics: MetricsBatch | None = None
    _counts: dict[int, int] = field(default_factory=dict)
    _refs_since_flush: int = 0
    # Plain-int telemetry tallies, pushed into ``metrics`` only by
    # flush_metrics().  Guarded by ``metrics is not None`` so the
    # disabled path never pays for them; the derived counters
    # (tracked_hits, acts_escaped, refs) are linear combinations of
    # these, reconstructed at flush time.
    _acts_unsampled: int = 0
    _acts_observed: int = 0
    _rows_inserted: int = 0
    _tracked_acts: int = 0
    _neighbour_refreshes: int = 0
    _flushes: int = 0
    _occupancies: list[int] = field(default_factory=list)
    # plan()'s observed-ACT histogram, reused across calls and all-zero
    # between them, so planning a stream block by block does not
    # allocate (and fault in) a window-sized array per block.
    _hist: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )

    def observe(self, rows: np.ndarray) -> None:
        """Feed the activations of one refresh interval, in issue order.

        The one-interval form of :meth:`plan` (one ``random(n)`` sampling
        draw, then the shared fill-and-shield step).
        """
        if rows.size == 0:
            return
        observed = rows
        if self.config.sample_prob < 1.0:
            mask = self.rng.random(rows.size) < self.config.sample_prob
            observed = rows[mask]
            if self.metrics is not None:
                self._acts_unsampled += int(rows.size - observed.size)
            if observed.size == 0:
                return
        scan = observed.tolist()
        count_at = Counter(scan).__getitem__
        self._fill(count_at, 0, scan.__getitem__, 0, len(scan))

    def on_ref(self) -> list[int]:
        """REF arrived: return aggressor rows whose neighbours get refreshed."""
        return self._ref()

    def plan(
        self, rows: np.ndarray, bounds: np.ndarray, base: int, span: int
    ) -> list[list[int]]:
        """Observe consecutive refresh intervals and take each one's REF.

        Interval ``t`` holds the ACTs ``rows[bounds[t]:bounds[t + 1]]``;
        the result lists every interval's REF targets, exactly what
        alternating :meth:`observe` and :meth:`on_ref` over the intervals
        returns, with the same table and telemetry tallies afterwards.
        The per-interval sampling draws ``random(n_t)`` are hoisted into
        one ``random(sum(n_t))``: the generator emits one double per
        value, so the concatenation of the former is the latter.  The
        fill step reads each row's observed count off one
        ``(intervals x span)`` histogram, so every row, including those
        already in the table, must lie in ``[base, base + span)``.
        """
        if any(not base <= row < base + span for row in self._counts):
            raise ValueError("sampler table holds rows outside the window")
        n = len(bounds) - 1
        acts = np.diff(bounds)
        interval_of = np.repeat(np.arange(n, dtype=np.int64), acts)
        observed = rows
        sampling = self.config.sample_prob < 1.0
        if sampling:
            mask = self.rng.random(rows.size) < self.config.sample_prob
            observed = rows[mask]
            interval_of = interval_of[mask]
        keys = interval_of * span + (observed - base)
        if self._hist is None or self._hist.size < n * span:
            self._hist = np.zeros(n * span, dtype=np.int64)
        hist = self._hist
        np.add.at(hist, keys, 1)
        obs_bounds = np.searchsorted(
            interval_of, np.arange(n + 1, dtype=np.int64)
        ).tolist()
        unsampled = sampling and self.metrics is not None
        acts_list = acts.tolist() if unsampled else None
        count_at = hist.item
        row_at = observed.item
        fill = self._fill
        ref = self._ref
        targets: list[list[int]] = []
        try:
            for t in range(n):
                start = obs_bounds[t]
                stop = obs_bounds[t + 1]
                if unsampled:
                    self._acts_unsampled += acts_list[t] - (stop - start)
                if stop > start:
                    fill(count_at, t * span - base, row_at, start, stop)
                targets.append(ref())
        finally:
            hist[keys] = 0
        return targets

    def _fill(self, count_at, offset: int, row_at, start: int, stop: int):
        """Fill-and-shield over one interval's observed ACTs.

        ``row_at(k)`` for ``start <= k < stop`` are the interval's
        observed rows in issue order and ``count_at(offset + row)`` is a
        row's number of them.  The table only grows within an interval
        (entries are cleared at REFs), so the sequential per-ACT loop
        reduces to: tracked rows bump by their count, the first
        ``capacity - len(table)`` new rows in first-occurrence order
        insert with their whole count (in that order, which is the
        :meth:`_ref` ranking tiebreak), and every later new row escapes.
        The insert scan stops once the table is full or every observed
        ACT belongs to a tracked row.
        """
        counts = self._counts
        n_obs = stop - start
        tracked_acts = 0
        for row in counts:
            n = count_at(offset + row)
            if n:
                counts[row] += n
                tracked_acts += n
        inserted = 0
        free = self.config.capacity - len(counts)
        if free > 0 and tracked_acts < n_obs:
            for k in range(start, stop):
                row = row_at(k)
                if row in counts:
                    continue
                n = count_at(offset + row)
                counts[row] = n
                tracked_acts += n
                inserted += 1
                free -= 1
                if free == 0 or tracked_acts == n_obs:
                    break
        # Every other activation escapes the sampler entirely.
        if self.metrics is not None:
            self._acts_observed += n_obs
            self._rows_inserted += inserted
            self._tracked_acts += tracked_acts

    def _ref(self) -> list[int]:
        """One REF: refresh the top-count rows, flush on schedule."""
        counts = self._counts
        tally = self.metrics is not None
        if tally:
            self._occupancies.append(len(counts))
        targets: list[int] = []
        if counts:
            ranked = sorted(counts, key=counts.get, reverse=True)
            targets = ranked[: self.config.refreshes_per_ref]
            for row in targets:
                del counts[row]
        self._refs_since_flush += 1
        flushed = self._refs_since_flush >= self.config.flush_every_refs
        if flushed:
            counts.clear()
            self._refs_since_flush = 0
        if tally:
            self._neighbour_refreshes += len(targets)
            if flushed:
                self._flushes += 1
        return targets

    def flush_metrics(self) -> None:
        """Push the accumulated tallies into ``metrics`` and zero them.

        Owners call this once at the bank/phase boundary, before
        flushing the batch.  Keys mirror the per-event emission they
        replace: the observation counters appear once any interval was
        observed, the REF counters once any REF arrived, and the
        occupancy histogram/gauge carry the per-REF journal (order
        preserved) with the gauge holding the last REF's table size.
        """
        batch = self.metrics
        if batch is None:
            return
        if self._acts_unsampled or self.config.sample_prob < 1.0:
            batch.inc("dram.trr.acts_unsampled", self._acts_unsampled)
        if self._acts_observed:
            batch.inc("dram.trr.acts_observed", self._acts_observed)
            batch.inc("dram.trr.rows_inserted", self._rows_inserted)
            batch.inc(
                "dram.trr.tracked_hits",
                self._tracked_acts - self._rows_inserted,
            )
            batch.inc(
                "dram.trr.acts_escaped",
                self._acts_observed - self._tracked_acts,
            )
        # One occupancy journal entry per REF, so refs == len(journal).
        occupancies = self._occupancies
        if occupancies:
            batch.observe_many(
                "dram.trr.occupancy", occupancies, OCCUPANCY_BUCKETS
            )
            batch.set("dram.trr.last_occupancy", occupancies[-1])
            batch.inc("dram.trr.refs", len(occupancies))
            batch.inc("dram.trr.neighbour_refreshes",
                      self._neighbour_refreshes)
            if self._flushes:
                batch.inc("dram.trr.flushes", self._flushes)
        self._acts_unsampled = 0
        self._acts_observed = 0
        self._rows_inserted = 0
        self._tracked_acts = 0
        self._neighbour_refreshes = 0
        self._flushes = 0
        self._occupancies = []

    def capture_tallies(self) -> tuple:
        """Snapshot the pending telemetry tallies for per-location replay.

        Every hammer call, for one location or many, runs *one* sampler
        per bank for all its locations (its decisions are invariant under
        a uniform row shift) but must emit each location's metrics as if
        the sampler had run for that location alone.  The owner captures
        the tallies once when it has planned the stream, then
        :meth:`restore_tallies` + :meth:`flush_metrics` per location.
        """
        return (
            self._acts_unsampled,
            self._acts_observed,
            self._rows_inserted,
            self._tracked_acts,
            self._neighbour_refreshes,
            self._flushes,
            tuple(self._occupancies),
        )

    def restore_tallies(self, tallies: tuple) -> None:
        """Reinstate a :meth:`capture_tallies` snapshot (flush zeroed it)."""
        (
            self._acts_unsampled,
            self._acts_observed,
            self._rows_inserted,
            self._tracked_acts,
            self._neighbour_refreshes,
            self._flushes,
            occupancies,
        ) = tallies
        self._occupancies = list(occupancies)

    def reset(self) -> None:
        self._counts.clear()
        self._refs_since_flush = 0


@dataclass(frozen=True)
class PtrrShield:
    """Intel pTRR / BIOS "Rowhammer Prevention" (Section 6 mitigation).

    Models a controller-side probabilistic neighbour refresh: each ACT
    triggers a neighbour refresh with probability ``para_prob``.  At the
    activation counts Rowhammer needs (tens of thousands per window) even a
    small probability statistically guarantees victim refreshes long before
    any threshold is reached, which is why enabling the BIOS option
    eliminated nearly all flips in the paper.
    """

    enabled: bool = False
    para_prob: float = 0.01

    def refresh_mask(self, n_acts: int, rng: RngStream) -> np.ndarray:
        """Boolean mask of ACTs that trigger a pTRR neighbour refresh."""
        if not self.enabled or n_acts == 0:
            return np.zeros(n_acts, dtype=bool)
        return rng.random(n_acts) < self.para_prob
