"""The DIMM device: executes activation streams and reports bit flips.

The hammer pipeline hands each bank a *timestamped activation stream*
(issue-order row indices plus times).  The device walks the stream one
refresh interval (tREFI) at a time:

1. disturbance from each ACT is added to the +/-1 and +/-2 neighbour rows,
2. the TRR sampler observes the interval's ACTs and, at the REF, refreshes
   the neighbours of the aggressors it tracked (resetting their victims'
   disturbance),
3. rows whose periodic-refresh slot falls in this interval are reset,
4. before any reset, the running peak unrefreshed disturbance per victim is
   recorded; at the end the cell population converts peaks into flips.

This is the simulated gate every fuzz/sweep/exploit trial funnels through,
so the inner loop is array code.  Per-bank state lives in NumPy arrays
over the compact victim window (:class:`_BankWindow`).  Everything but the
disturbance recurrence is decided before the loop by an
:class:`_IntervalPlan`: per-interval ACT histograms and scaled neighbour
contributions, TRR sampler REF targets (:meth:`TrrSampler.plan
<repro.dram.trr.TrrSampler.plan>`), pTRR and RAA targets and the periodic
refresh ranges, merged into one zero-index per interval.  The loop then
runs four ordered slice adds, a masked peak update and one zeroing store
per interval, and flips are counted in one vectorised pass
(:meth:`~repro.dram.cells.CellPopulation.flip_counts_for`).  The original
per-row sequential loop survives in :mod:`repro.dram.reference` and
:mod:`repro.dram.equivalence` proves the two paths bit-identical (flips,
TRR refreshes and OBS metrics) across patterns, TRR vendor profiles, pTRR
and RFM.

Vectorisation invariants the array code relies on (documented in
``docs/PERFORMANCE.md``):

* all disturbance couplings are positive, so within one interval a
  victim's level is monotone and its peak is the end-of-interval value;
* per victim, contributions arrive in ascending-aggressor order
  (a = v-2, v-1, v+1, v+2), which the ordered slice adds reproduce so
  float accumulation order matches the reference exactly;
* refreshes only zero disturbance (idempotent) and all of an interval's
  refreshes follow its deposit, so merging its TRR / pTRR / RFM target
  and periodic refreshes into one store cannot change the final state;
* every TRR/pTRR/RFM/refresh decision depends only on the stream and
  name-derived RNG streams, never on disturbance, so all of them can be
  made before the disturbance loop runs;
* every disturbed row lies within +/-2 of some aggressor, so the compact
  window [min(rows)-2, max(rows)+2] covers all state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.common.errors import SimulationError
from repro.common.rng import RngStream
from repro.dram.cells import CellPopulation, FlipEvent
from repro.dram.ddr5 import RaaCounter, RfmConfig
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DdrTiming
from repro.dram.trr import PtrrShield, TrrConfig, TrrSampler
from repro.obs import OBS, metric_key

#: Disturbance coupling per activation, by |victim - aggressor| distance.
#: +/-2 coupling reflects the Half-Double style far-aggressor effect.
NEIGHBOUR_WEIGHTS = {1: 1.0, 2: 0.18}

#: The ordered slice adds of one interval's deposit, as (distance,
#: aggressor below the victim).  Per victim v the reference loop applies
#: contributions in ascending-aggressor order (v-2, v-1, v+1, v+2); the
#: slice adds take below-victim aggressors by descending distance, then
#: above-victim ones by ascending distance, to reproduce that float
#: accumulation order bit-for-bit.
_SLICE_ADDS = tuple(
    (distance, True) for distance in sorted(NEIGHBOUR_WEIGHTS, reverse=True)
) + tuple((distance, False) for distance in sorted(NEIGHBOUR_WEIGHTS))

#: Victim offsets of a refreshed aggressor.
_NEIGHBOUR_OFFSETS = np.array(
    sorted(o for d in NEIGHBOUR_WEIGHTS for o in (-d, d)), dtype=np.int64
)

#: Cells (intervals x window rows) per plan block.  A block's ACT
#: histogram, its scaled contributions and the sampler's observed-ACT
#: histogram each hold this many values, which keeps them in cache; a
#: window wider than this gets one interval per block.
PLAN_BLOCK_CELLS = 1 << 15

#: ACTs per plan block (unless one interval alone holds more), which
#: bounds the block's per-ACT temporaries: draws, masks, histogram keys.
PLAN_BLOCK_ACTS = 1 << 14


@dataclass(frozen=True)
class DimmSpec:
    """One DIMM from Table 2 plus its vulnerability calibration.

    ``median_flip_threshold`` and ``weak_cell_density`` parameterise the
    :class:`CellPopulation`; they are the substitution for the physical
    per-DIMM Rowhammer tolerance the paper characterises empirically.
    """

    dimm_id: str
    vendor: str
    production_week: str
    freq_mhz: int
    size_gib: int
    geometry: DramGeometry
    median_flip_threshold: float
    weak_cell_density: float

    @property
    def flippable(self) -> bool:
        return self.weak_cell_density > 0.0


@dataclass(frozen=True)
class HammerResult:
    """Outcome of executing one activation stream on one or more banks.

    ``flips`` carries the individual events only when the caller asked for
    them (templating needs locations; fuzzing only needs counts), while
    ``flip_count`` is always populated.  Events are ordered by ascending
    (bank-iteration, row).
    """

    flips: tuple[FlipEvent, ...]
    flip_count: int
    acts_executed: int
    duration_ns: float
    trr_refreshes: int


#: Ceiling on one bank's batched state matrices — disturbance, peak and
#: (with telemetry) peak-window, each ``locations x span x 8`` bytes.
#: Above this :meth:`Dimm.batch_supported` refuses and the batch runs as
#: the per-trial loop instead.
BATCH_MATRIX_BYTES_MAX = 128 * 1024 * 1024


@dataclass
class _PlanBlock:
    """The planned work of consecutive refresh intervals of one bank."""

    first: int  # stream index of the block's first interval
    acts: list[int]  # ACTs per interval
    #: Per :data:`_SLICE_ADDS` entry an ``(intervals, span - distance)``
    #: array: row ``t`` is what interval ``t``'s slice add deposits.
    deposits: list[np.ndarray]
    #: Flat state indices (``location * span + column``) to zero, grouped
    #: by interval: ``zero[zero_bounds[t]:zero_bounds[t + 1]]``.
    zero: np.ndarray
    zero_bounds: list[int]


class _IntervalPlan:
    """Every decision of one bank stream's interval loop, made up front.

    TRR sampling and REF ranking, pTRR draws, RAA trips and the periodic
    refresh slots depend only on the ACT stream and name-derived RNG
    streams, never on disturbance, so :meth:`blocks` computes them for a
    block of intervals at a time and :meth:`_BankWindow.run` is left with
    the sequential disturbance recurrence.  Each interval's deposit is
    precomputed as ``(weight * acts) * gain``, element for element the
    value the slice adds used to compute in the loop, and its refreshes
    are merged into one zero-index: they all follow the deposit and
    zeroing is idempotent.  Window coordinates are shared by every
    location (the stream is shifted uniformly); only the periodic-refresh
    ranges differ, so they are planned per location from ``los``.
    """

    def __init__(
        self,
        dimm: "Dimm",
        bank: int,
        times: np.ndarray,
        rows: np.ndarray,
        lo: int,
        span: int,
        los: np.ndarray,
        gain: float,
        metrics,
        trace_windows: bool,
    ) -> None:
        timing = dimm.timing
        self.bank = bank
        self.rows = rows
        self.lo = lo
        self.span = span
        self.los = los
        self.gain = gain
        self.trace_windows = trace_windows
        self.sampler = TrrSampler(dimm.trr_config, dimm.rng.child("trr", bank))
        self.sampler.metrics = metrics
        self.ptrr = dimm.ptrr
        self.ptrr_rng = dimm.rng.child("ptrr", bank)
        self.raa: RaaCounter | None = None
        if dimm.rfm is not None:
            self.raa = RaaCounter(
                threshold=dimm._rfm_threshold
                or dimm.rfm.raa_initial_threshold,
                rows_refreshed_per_rfm=dimm.rfm.rows_refreshed_per_rfm,
            )
        self.t_refi = timing.t_refi
        self.refs_per_window = timing.refs_per_window
        self.rows_per_ref = max(
            1, dimm.spec.geometry.rows // self.refs_per_window
        )
        self.n_intervals = int(times[-1] // self.t_refi) + 1
        self.bounds = np.zeros(self.n_intervals + 1, dtype=np.int64)
        self.bounds[1:] = np.searchsorted(
            times, np.arange(1, self.n_intervals + 1) * self.t_refi
        )
        self.trr_refreshes = 0
        # Block buffers, reused by every block: a fresh bank-wide array
        # per interval would be handed back to the OS and faulted in
        # again each time.  The histogram is kept all-zero between blocks.
        self.per_block = max(1, PLAN_BLOCK_CELLS // span)
        cells = min(self.per_block, self.n_intervals) * span
        self._hist = np.zeros(cells, dtype=np.int64)
        self._scaled = {
            distance: np.empty(cells, dtype=np.float64)
            for distance in NEIGHBOUR_WEIGHTS
        }

    def blocks(self):
        """Yield the plan one :class:`_PlanBlock` at a time.

        A block holds at most :data:`PLAN_BLOCK_CELLS` window cells and
        :data:`PLAN_BLOCK_ACTS` ACTs (at least one interval), so plan
        memory does not grow with stream length.  A block's deposits live
        in buffers the next block overwrites: consume each block before
        asking for the next.
        """
        bounds = self.bounds
        n = self.n_intervals
        per_block = self.per_block
        first = 0
        while first < n:
            end = min(n, first + per_block)
            cap = int(bounds[first]) + PLAN_BLOCK_ACTS
            if int(bounds[end]) > cap:
                end = max(
                    first + 1,
                    int(np.searchsorted(bounds, cap, side="right")) - 1,
                )
            yield self._block(first, end)
            first = end

    def _block(self, first: int, end: int) -> _PlanBlock:
        span = self.span
        lo = self.lo
        n = end - first
        bounds = self.bounds[first:end + 1] - self.bounds[first]
        rows = self.rows[int(self.bounds[first]):int(self.bounds[end])]
        cols = rows - lo
        acts = np.diff(bounds)
        interval_of = np.repeat(np.arange(n, dtype=np.int64), acts)
        keys = interval_of * span + cols
        hist = self._hist[:n * span]
        np.add.at(hist, keys, 1)
        # (weight * acts) * gain, as the slice adds always computed it.
        scaled: dict[int, np.ndarray] = {}
        for distance, weight in NEIGHBOUR_WEIGHTS.items():
            contribution = self._scaled[distance][:n * span]
            np.multiply(hist, weight, out=contribution)
            np.multiply(contribution, self.gain, out=contribution)
            scaled[distance] = contribution.reshape(n, span)
        hist[keys] = 0
        deposits = [
            scaled[distance][:, :-distance]
            if below
            else scaled[distance][:, distance:]
            for distance, below in _SLICE_ADDS
            if span > distance
        ]

        # Aggressors whose neighbours are refreshed, by interval.
        agg_interval: list[np.ndarray] = []
        agg_col: list[np.ndarray] = []
        if self.ptrr.enabled:
            hit = self.ptrr.refresh_mask(rows.size, self.ptrr_rng)
            agg_interval.append(interval_of[hit])
            agg_col.append(cols[hit])
        if self.raa is not None:
            targets, trips = self.raa.observe_chunk(rows)
            self.trr_refreshes += int(targets.size)
            agg_interval.append(interval_of[trips])
            agg_col.append(targets - lo)
        refs = self.sampler.plan(rows, bounds, lo, span)
        ref_counts = [len(targets) for targets in refs]
        n_refs = sum(ref_counts)
        if n_refs:
            self.trr_refreshes += n_refs
            agg_interval.append(
                np.repeat(np.arange(n, dtype=np.int64), ref_counts)
            )
            agg_col.append(
                np.fromiter(
                    chain.from_iterable(refs), dtype=np.int64, count=n_refs
                )
                - lo
            )
        if self.trace_windows:
            for t, count in enumerate(acts.tolist()):
                OBS.tracer.point(
                    "dram.window",
                    bank=self.bank,
                    window=first + t,
                    acts=count,
                    trr_refreshes=ref_counts[t],
                    virtual_ns=self.t_refi,
                )

        n_loc = self.los.size
        loc_base = np.arange(n_loc, dtype=np.int64) * span
        zero_interval: list[np.ndarray] = []
        zero: list[np.ndarray] = []
        if agg_interval:
            victims = (
                np.concatenate(agg_col)[:, None] + _NEIGHBOUR_OFFSETS
            ).ravel()
            victim_interval = np.repeat(
                np.concatenate(agg_interval), _NEIGHBOUR_OFFSETS.size
            )
            # Out-of-window victims are out of the device by construction.
            inside = (victims >= 0) & (victims < span)
            zero.append((victims[inside][:, None] + loc_base).ravel())
            zero_interval.append(np.repeat(victim_interval[inside], n_loc))
        # Periodic refresh: device rows [slot, slot + rows_per_ref) of the
        # interval's slot, intersected with each location's window.
        slot_row = (
            (first + np.arange(n, dtype=np.int64)) % self.refs_per_window
        ) * self.rows_per_ref
        start = slot_row[:, None] - self.los
        stop = np.clip(start + self.rows_per_ref, 0, span).ravel()
        start = np.clip(start, 0, span).ravel()
        lengths = stop - start
        total = int(lengths.sum())
        if total:
            offsets = np.cumsum(lengths) - lengths
            zero.append(
                np.arange(total, dtype=np.int64)
                + np.repeat(np.tile(loc_base, n) + start - offsets, lengths)
            )
            zero_interval.append(
                np.repeat(np.arange(n, dtype=np.int64), n_loc).repeat(lengths)
            )
        if zero:
            # Each source is already in interval order, so the stable
            # (merge) sort only interleaves a few sorted runs.
            interval = np.concatenate(zero_interval)
            order = np.argsort(interval, kind="stable")
            flat = np.concatenate(zero)[order]
            zero_bounds = np.searchsorted(
                interval[order], np.arange(n + 1, dtype=np.int64)
            ).tolist()
        else:
            flat = np.zeros(0, dtype=np.int64)
            zero_bounds = [0] * (n + 1)
        return _PlanBlock(
            first=first,
            acts=acts.tolist(),
            deposits=deposits,
            zero=flat,
            zero_bounds=zero_bounds,
        )


class _BankWindow:
    """Per-bank hammer state for one or more base-row-shifted locations.

    Row ``i`` of each ``(locations, span)`` array is location ``i``'s
    state over its compact victim window; column ``c`` is device row
    ``los[i] + c``.  The per-trial loop is the one-location case.  The
    locations' streams differ only by a uniform row shift, so one
    :class:`_IntervalPlan` drives all of them and every location's
    per-victim float accumulation order (hence every bit of its state)
    matches a per-trial run exactly.  ``peak_window`` (the interval where
    each victim's running peak was attained) is materialised only when
    telemetry is enabled.
    """

    __slots__ = ("los", "disturbance", "peak", "peak_window")

    def __init__(
        self, los: np.ndarray, span: int, track_windows: bool
    ) -> None:
        self.los = los  # per-location device row of window column 0
        n = int(los.size)
        self.disturbance = np.zeros((n, span), dtype=np.float64)
        self.peak = np.zeros((n, span), dtype=np.float64)
        self.peak_window = (
            np.zeros((n, span), dtype=np.int64) if track_windows else None
        )

    def run(self, blocks) -> None:
        """Play a plan: deposit, record peaks, zero, interval by interval.

        Adding ``(weight * 0) * gain == 0.0`` for absent aggressors is a
        bitwise no-op on non-negative disturbance, and an interval
        without ACTs cannot raise a peak, so only its zeroing runs.
        """
        d = self.disturbance
        peak = self.peak
        peak_window = self.peak_window
        flat = d.reshape(-1)
        span = d.shape[1]
        improved = np.empty(d.shape, dtype=bool)
        targets = [
            d[:, distance:] if below else d[:, :-distance]
            for distance, below in _SLICE_ADDS
            if span > distance
        ]
        for block in blocks:
            adds = list(zip(targets, block.deposits))
            zero = block.zero
            zero_bounds = block.zero_bounds
            window = block.first
            for t, acts in enumerate(block.acts):
                if acts:
                    for target, deposit in adds:
                        target += deposit[t]
                    np.greater(d, peak, out=improved)
                    np.copyto(peak, d, where=improved)
                    if peak_window is not None:
                        np.copyto(peak_window, window + t, where=improved)
                z0 = zero_bounds[t]
                z1 = zero_bounds[t + 1]
                if z1 > z0:
                    flat[zero[z0:z1]] = 0.0


@dataclass
class _BankBatchRecord:
    """One bank's computed batch state, awaiting location-major emission."""

    bank: int
    base_lo: int  # location 0's window origin (device row)
    deltas: np.ndarray
    peak: np.ndarray  # (locations, span)
    peak_window: np.ndarray | None
    trr_refreshes: int  # shared: TRR/RFM decisions are shift-invariant
    windows_total: int
    acts_per_window: np.ndarray | None
    sampler: "TrrSampler | None"
    tallies: tuple | None


class Dimm:
    """A DDR4 DIMM with per-bank TRR samplers and a weak-cell population."""

    def __init__(
        self,
        spec: DimmSpec,
        timing: DdrTiming | None = None,
        trr_config: TrrConfig | None = None,
        ptrr: PtrrShield | None = None,
        rng: RngStream | None = None,
        rfm: RfmConfig | None = None,
        rfm_threshold_acts: int | None = None,
    ) -> None:
        self.spec = spec
        self.timing = timing or DdrTiming()
        self.trr_config = trr_config or TrrConfig()
        self.ptrr = ptrr or PtrrShield(enabled=False)
        self.rng = rng or RngStream(0xD1, f"dimm/{spec.dimm_id}")
        #: DDR5 refresh management; None on DDR4 devices.  The simulated
        #: RAA threshold must already account for time compression
        #: (see :meth:`RfmConfig.scaled_threshold`).
        self.rfm = rfm if rfm is not None and rfm.enabled else None
        self._rfm_threshold = rfm_threshold_acts
        self.cells = CellPopulation(
            dimm_uid=spec.dimm_id,
            median_threshold=spec.median_flip_threshold,
            weak_cell_density=spec.weak_cell_density,
        )

    # -- weak-cell cache export/adoption (persistent-pool sharing) -----
    def export_shared_cells(self, limit: int | None = None):
        """Flattened weak-cell profiles for shared-memory publication.

        Delegates to :meth:`CellPopulation.export_profiles`; the DIMM is
        the ownership boundary the engine talks to, so worker adoption
        never reaches into the population directly.
        """
        return self.cells.export_profiles(limit=limit)

    def adopt_shared_cells(self, index, thresholds, bit_indices, directions):
        """Seed the weak-cell cache from another process's export."""
        return self.cells.seed_profiles(
            index, thresholds, bit_indices, directions
        )

    # ------------------------------------------------------------------
    def hammer(
        self,
        bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
        collect_events: bool = True,
        disturbance_gain: float = 1.0,
    ) -> HammerResult:
        """Execute activation streams and return the induced flips.

        ``bank_streams`` maps bank index -> (times_ns, rows), both 1-D
        arrays sorted by time.  Streams on different banks are independent
        (each bank has its own row buffer, sampler and refresh phase).

        ``disturbance_gain`` implements the simulation scale: when a
        campaign runs 1/N of the paper's per-pattern activations, each
        simulated ACT stands for N paper ACTs and deposits N units of
        disturbance.  TRR and refresh dynamics are unaffected — only the
        accumulation speed changes.
        """
        flips: list[FlipEvent] = []
        flip_total = 0
        acts = 0
        trr_refreshes = 0
        end_time = 0.0
        for bank, (times, rows) in bank_streams.items():
            if times.shape != rows.shape:
                raise SimulationError("times and rows must align")
            if times.size == 0:
                continue
            acts += int(times.size)
            end_time = max(end_time, float(times[-1]))
            bank_flips, bank_trr = self._hammer_bank(
                bank, times, rows, collect_events, disturbance_gain
            )
            trr_refreshes += bank_trr
            if collect_events:
                flips.extend(bank_flips)
            else:
                flip_total += bank_flips
        if collect_events:
            flip_total = len(flips)
        if OBS.enabled:
            metrics = OBS.metrics
            metrics.counter("dram.hammer_calls").inc()
            metrics.counter("dram.acts_total").inc(acts)
            metrics.counter("dram.trr_refreshes_total").inc(trr_refreshes)
            metrics.histogram("dram.flips_per_hammer").observe(flip_total)
        return HammerResult(
            flips=tuple(flips),
            flip_count=flip_total,
            acts_executed=acts,
            duration_ns=end_time,
            trr_refreshes=trr_refreshes,
        )

    # ------------------------------------------------------------------
    # Batched multi-location execution
    # ------------------------------------------------------------------
    def batch_supported(
        self,
        bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
        row_deltas: np.ndarray,
    ) -> tuple[bool, str]:
        """Whether :meth:`hammer_batch` may vectorise this workload.

        The batched pass needs every location's compact victim window to
        be an exact shift of location 0's: a window clamped at a device
        edge changes its span and breaks the shared window coordinates.
        Per-window trace points would need per-location interleaving a
        single pass cannot provide, and the ``(locations x span)`` state
        matrices must stay within :data:`BATCH_MATRIX_BYTES_MAX`.
        """
        if OBS.tracer.enabled and OBS.tracer.detail == "window":
            return False, "window-detail tracing needs per-trial interleaving"
        deltas = np.asarray(row_deltas, dtype=np.int64)
        if deltas.size == 0:
            return False, "empty location batch"
        rows_total = self.spec.geometry.rows
        n_loc = int(deltas.size)
        d_min = int(deltas.min())
        d_max = int(deltas.max())
        for bank, (times, rows) in bank_streams.items():
            if times.size == 0:
                continue
            r_lo = int(rows.min())
            r_hi = int(rows.max())
            if r_lo + d_min - 2 < 0 or r_hi + d_max + 2 > rows_total - 1:
                return False, f"bank {bank} window clamps at a device edge"
            span = r_hi - r_lo + 5
            if 3 * n_loc * span * 8 > BATCH_MATRIX_BYTES_MAX:
                return False, f"bank {bank} batch matrices exceed memory cap"
        return True, ""

    def hammer_batch(
        self,
        bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
        row_deltas: np.ndarray,
        collect_events: bool = False,
        disturbance_gain: float = 1.0,
    ) -> list[HammerResult]:
        """Execute one stream at many base-row-shifted locations at once.

        ``bank_streams`` is location 0's stream exactly as :meth:`hammer`
        takes it; location ``i`` replays the same stream with every row
        shifted by ``row_deltas[i]``.  The result list is bit-identical —
        outcomes, flip-event order and every OBS metric — to the
        per-trial loop::

            [self.hammer({b: (t, r + d) for b, (t, r) in bank_streams
                          .items()}, ...) for d in row_deltas]

        because every per-interval decision is invariant under a uniform
        row shift: the per-interval window-coordinate ACT histograms, the
        :class:`TrrSampler` draws (its RNG child is purely name-derived,
        so every ``hammer()`` call replays the same stream), the pTRR
        mask and the RAA targets are all base-row-independent in window
        coordinates.  Only the periodic-refresh range intersection and
        the final :class:`CellPopulation` weak-cell lookups differ per
        location, and both are applied per location.  Workloads
        :meth:`batch_supported` rejects transparently run the per-trial
        loop above instead.
        """
        deltas = np.ascontiguousarray(np.asarray(row_deltas, dtype=np.int64))
        supported, _reason = self.batch_supported(bank_streams, deltas)
        if not supported or deltas.size == 1:
            results = []
            for delta in deltas.tolist():
                shifted = {
                    bank: (times, rows + delta)
                    for bank, (times, rows) in bank_streams.items()
                }
                results.append(
                    self.hammer(
                        shifted,
                        collect_events=collect_events,
                        disturbance_gain=disturbance_gain,
                    )
                )
            return results

        telemetry = OBS.enabled
        n_loc = int(deltas.size)
        acts = 0
        end_time = 0.0
        records: list[_BankBatchRecord] = []
        for bank, (times, rows) in bank_streams.items():
            if times.shape != rows.shape:
                raise SimulationError("times and rows must align")
            if times.size == 0:
                continue
            acts += int(times.size)
            end_time = max(end_time, float(times[-1]))
            records.append(
                self._hammer_bank_batch(
                    bank, times, rows, deltas, disturbance_gain, telemetry
                )
            )
        # Emission: flip accounting and telemetry replayed location-major,
        # in exactly the order the per-trial loop would have produced.
        results = []
        metrics = OBS.metrics if telemetry else None
        for i in range(n_loc):
            flips: list[FlipEvent] = []
            flip_total = 0
            trr_refreshes = 0
            for rec in records:
                bank_flips, counted = self._emit_bank_location(
                    rec, i, collect_events, telemetry
                )
                trr_refreshes += rec.trr_refreshes
                if collect_events:
                    flips.extend(bank_flips)
                else:
                    flip_total += counted
            if collect_events:
                flip_total = len(flips)
            if metrics is not None:
                metrics.counter("dram.hammer_calls").inc()
                metrics.counter("dram.acts_total").inc(acts)
                metrics.counter("dram.trr_refreshes_total").inc(trr_refreshes)
                metrics.histogram("dram.flips_per_hammer").observe(flip_total)
            results.append(
                HammerResult(
                    flips=tuple(flips),
                    flip_count=flip_total,
                    acts_executed=acts,
                    duration_ns=end_time,
                    trr_refreshes=trr_refreshes,
                )
            )
        return results

    def _hammer_bank_batch(
        self,
        bank: int,
        times: np.ndarray,
        rows: np.ndarray,
        deltas: np.ndarray,
        disturbance_gain: float,
        telemetry: bool,
    ) -> _BankBatchRecord:
        """One bank's interval loop, run once for a whole location batch.

        Plans and plays location 0's stream exactly as :meth:`_hammer_bank`
        does, over ``(locations, span)`` state; telemetry is *captured*
        (sampler tallies, window tallies) rather than emitted —
        :meth:`_emit_bank_location` replays it per location afterwards.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        # batch_supported guarantees no location's window clamps, so the
        # shared window origin needs no edge clamping.
        lo = int(rows.min()) - 2
        span = int(rows.max()) + 2 - lo + 1
        # Any non-None batch makes the sampler accumulate its plain-int
        # tallies; this sentinel batch itself is never flushed.
        plan, state = self._play_bank(
            bank, times, rows, lo, span, lo + deltas, disturbance_gain,
            OBS.metrics.batch() if telemetry else None, False,
        )
        return _BankBatchRecord(
            bank=bank,
            base_lo=lo,
            deltas=deltas,
            peak=state.peak,
            peak_window=state.peak_window,
            trr_refreshes=plan.trr_refreshes,
            windows_total=plan.n_intervals if telemetry else 0,
            acts_per_window=np.diff(plan.bounds) if telemetry else None,
            sampler=plan.sampler if telemetry else None,
            tallies=plan.sampler.capture_tallies() if telemetry else None,
        )

    def _play_bank(
        self,
        bank: int,
        times: np.ndarray,
        rows: np.ndarray,
        lo: int,
        span: int,
        los: np.ndarray,
        disturbance_gain: float,
        metrics,
        trace_windows: bool,
    ) -> tuple[_IntervalPlan, _BankWindow]:
        """Plan one bank stream and play it over ``len(los)`` locations."""
        plan = _IntervalPlan(
            self, bank, times, rows, lo, span, los, disturbance_gain,
            metrics, trace_windows,
        )
        state = _BankWindow(los, span, track_windows=metrics is not None)
        state.run(plan.blocks())
        return plan, state

    def _emit_bank_location(
        self,
        rec: _BankBatchRecord,
        i: int,
        collect_events: bool,
        telemetry: bool,
    ):
        """Flip accounting + metrics for one (bank, location) pair.

        Reproduces the tail of :meth:`_hammer_bank` — flip metrics in
        ascending-victim order, sampler tally flush (restored from the
        shared capture), window counters, then event materialisation —
        so the per-key emission sequence matches a per-trial run.
        """
        lo_i = rec.base_lo + int(rec.deltas[i])
        peak_row = rec.peak[i]
        touched = np.nonzero(peak_row > 0.0)[0]
        victims = touched + lo_i
        peaks = peak_row[touched]
        counts = self.cells.flip_counts_for(rec.bank, victims, peaks)
        if telemetry:
            batch = OBS.metrics.batch()
            flipped = np.nonzero(counts)[0]
            windows = (
                rec.peak_window[i][touched]
                if rec.peak_window is not None
                else np.zeros(touched.size, dtype=np.int64)
            )
            for j in flipped.tolist():
                self._flip_metrics(batch, int(counts[j]), int(windows[j]))
            sampler = rec.sampler
            sampler.metrics = batch
            sampler.restore_tallies(rec.tallies)
            sampler.flush_metrics()
            batch.inc("dram.windows_total", rec.windows_total)
            batch.observe_many(
                "dram.acts_per_window", rec.acts_per_window.tolist()
            )
            batch.flush()
        if not collect_events:
            return None, int(counts.sum())
        flips: list[FlipEvent] = []
        for j in np.nonzero(counts)[0].tolist():
            victim = int(victims[j])
            prof = self.cells.profile(rec.bank, victim)
            flips.extend(
                FlipEvent(
                    bank=rec.bank,
                    row=victim,
                    bit_index=int(prof.bit_indices[k]),
                    direction=int(prof.directions[k]),
                )
                for k in range(int(counts[j]))
            )
        return flips, len(flips)

    # ------------------------------------------------------------------
    def _hammer_bank(
        self,
        bank: int,
        times: np.ndarray,
        rows: np.ndarray,
        collect_events: bool,
        disturbance_gain: float,
    ):
        telemetry = OBS.enabled
        trace_windows = (
            telemetry and OBS.tracer.enabled and OBS.tracer.detail == "window"
        )
        # Phase-batched metrics: the window loop and the TRR sampler
        # accumulate into one batch, applied to the registry exactly once
        # per bank (see MetricsBatch for the exactness argument).
        batch = OBS.metrics.batch() if telemetry else None
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        # Compact victim window: every disturbed row is within +/-2 of an
        # aggressor, so state arrays only span [min-2, max+2] (clamped).
        geometry = self.spec.geometry
        lo = max(0, int(rows.min()) - 2)
        hi = min(geometry.rows - 1, int(rows.max()) + 2)
        plan, state = self._play_bank(
            bank, times, rows, lo, hi - lo + 1, np.array([lo]),
            disturbance_gain, batch, trace_windows,
        )
        sampler = plan.sampler
        trr_refreshes = plan.trr_refreshes

        # Peak disturbance -> flips, in one vectorised pass over victims.
        peak = state.peak[0]
        touched = np.nonzero(peak > 0.0)[0]
        victims = touched + lo
        peaks = peak[touched]
        counts = self.cells.flip_counts_for(bank, victims, peaks)
        if batch is not None:
            flipped = np.nonzero(counts)[0]
            windows = state.peak_window[0][touched]
            for i in flipped.tolist():
                self._flip_metrics(batch, int(counts[i]), int(windows[i]))
            sampler.flush_metrics()
            batch.inc("dram.windows_total", plan.n_intervals)
            batch.observe_many(
                "dram.acts_per_window", np.diff(plan.bounds).tolist()
            )
            batch.flush()
        if not collect_events:
            return int(counts.sum()), trr_refreshes
        flips: list[FlipEvent] = []
        for i in np.nonzero(counts)[0].tolist():
            victim = int(victims[i])
            prof = self.cells.profile(bank, victim)
            flips.extend(
                FlipEvent(
                    bank=bank,
                    row=victim,
                    bit_index=int(prof.bit_indices[j]),
                    direction=int(prof.directions[j]),
                )
                for j in range(int(counts[i]))
            )
        return flips, trr_refreshes

    @staticmethod
    def _flip_metrics(batch, count: int, window: int) -> None:
        """Attribute flips to the refresh window where the peak was hit."""
        batch.inc("dram.flips_total", count)
        batch.inc(metric_key("dram.flips_by_window", {"window": window}), count)
