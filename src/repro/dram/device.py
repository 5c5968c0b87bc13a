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
over the compact victim window (:class:`_BankWindow`).  Every TRR sampler
REF target (:meth:`TrrSampler.plan <repro.dram.trr.TrrSampler.plan>`),
pTRR and RAA target is decided before the loop by a :class:`_BankPlan`,
in window coordinates, where it holds for every row shift of the stream;
each call then scales the plan's ACT histograms into deposits and adds
its locations' periodic-refresh ranges.  The loop runs four ordered slice
adds, a masked peak update and the interval's zeroing stores, and flips
are counted in one vectorised pass
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
  refreshes follow its deposit, so the order of its TRR / pTRR / RFM
  target and periodic refreshes cannot change the final state;
* every TRR/pTRR/RFM/refresh decision depends only on the stream and
  name-derived RNG streams, never on disturbance, so all of them can be
  made before the disturbance loop runs;
* every disturbed row lies within +/-2 of some aggressor, so the compact
  window [min(rows)-2, max(rows)+2] covers all state.  The window is never
  clamped: at a device edge it reaches up to two rows past it, and those
  columns take deposits and refreshes like any other but are never
  counted at flip accounting.

Every call, for one location or many, runs one driver
(:meth:`Dimm._hammer_locations`): each bank's stream is planned and
played once for all locations, then flips and telemetry are emitted
location by location.  :meth:`Dimm.hammer` is its one-location case.  A
caller that replays one stream across calls hands each of them the same
:class:`StreamPlan`, and the stream is planned once for all of them.
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


#: Ceiling on one bank's state matrices in one pass — disturbance, peak
#: and (with telemetry) peak-window, each ``locations x span x 8`` bytes.
#: :meth:`Dimm.hammer_batch` runs a larger batch as several passes, each
#: with as many locations as fit (at least one).
BATCH_MATRIX_BYTES_MAX = 128 * 1024 * 1024

#: The row shifts of a one-location call.
_NO_SHIFT = np.zeros(1, dtype=np.int64)
_NO_SHIFT.setflags(write=False)


class StreamPlan:
    """The shift-invariant plan of one activation stream, bank by bank.

    Hand one instance to every :meth:`Dimm.hammer` or
    :meth:`Dimm.hammer_batch` call that replays the same stream: the first
    call fills it and later calls reuse it instead of planning again.
    Every such call must play the same per-bank streams up to a uniform
    row shift; its gain, row shifts and event collection may differ.  A
    bank planned while telemetry was off is planned again the first time
    a call needs its sampler tallies.
    """

    __slots__ = ("banks",)

    def __init__(self) -> None:
        self.banks: dict[int, _BankPlan] = {}


class _BankPlan:
    """Every decision of one bank stream's interval loop, made up front.

    TRR sampling and REF ranking, pTRR draws and RAA trips depend only on
    the ACT stream and name-derived RNG streams, never on disturbance, so
    they are all made before :meth:`_BankWindow.run` plays the sequential
    disturbance recurrence.  Everything here is in window coordinates
    (column ``c`` is device row ``lo + c``, with ``lo`` two rows below the
    stream's lowest row), where it is invariant under a uniform row shift
    and independent of the gain: one plan serves every location of a call
    and every later replay of the stream (:class:`StreamPlan`).  It holds
    O(ACTs) values, per block of intervals (at most
    :data:`PLAN_BLOCK_CELLS` window cells and :data:`PLAN_BLOCK_ACTS`
    ACTs, at least one interval):

    * the block's ACT histogram, as its non-zero ``interval * span +
      column`` cells and their counts;
    * per interval, the window columns whose disturbance its REF, pTRR
      and RFM refreshes reset (all follow the deposit, and zeroing is
      idempotent, so their order does not matter);
    * per interval, its ACTs and TRR REF targets, and the stream's
      refresh count and sampler tallies, for telemetry.
    """

    def __init__(
        self,
        dimm: "Dimm",
        bank: int,
        times: np.ndarray,
        rows: np.ndarray,
        lo: int,
        span: int,
        telemetry: bool,
    ) -> None:
        timing = dimm.timing
        self.span = span
        self.n_acts = int(rows.size)
        self.t_refi = timing.t_refi
        self.refs_per_window = timing.refs_per_window
        self.rows_per_ref = max(
            1, dimm.spec.geometry.rows // self.refs_per_window
        )
        n = int(times[-1] // self.t_refi) + 1
        bounds = np.zeros(n + 1, dtype=np.int64)
        bounds[1:] = np.searchsorted(
            times, np.arange(1, n + 1) * self.t_refi
        )
        self.acts: list[int] = np.diff(bounds).tolist()
        sampler = TrrSampler(dimm.trr_config, dimm.rng.child("trr", bank))
        # Any non-None batch makes the sampler tally its telemetry; this
        # one is never flushed: each location replays the tallies.
        sampler.metrics = OBS.metrics.batch() if telemetry else None
        ptrr_rng = dimm.rng.child("ptrr", bank)
        raa: RaaCounter | None = None
        if dimm.rfm is not None:
            raa = RaaCounter(
                threshold=dimm._rfm_threshold
                or dimm.rfm.raa_initial_threshold,
                rows_refreshed_per_rfm=dimm.rfm.rows_refreshed_per_rfm,
            )
        self.trr_refreshes = 0
        self.ref_counts: list[int] = []
        #: ``(first interval, end interval, first cell, end cell)``.
        self.blocks: list[tuple[int, int, int, int]] = []
        cells: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        # Aggressors whose neighbours are refreshed, by interval.
        agg_interval: list[np.ndarray] = []
        agg_col: list[np.ndarray] = []
        # Reused by every block, all-zero between blocks: a fresh
        # bank-wide array per interval would be handed back to the OS
        # and faulted in again each time.
        per_block = max(1, PLAN_BLOCK_CELLS // span)
        hist = np.zeros(min(per_block, n) * span, dtype=np.int64)
        n_cells = 0
        first = 0
        while first < n:
            end = min(n, first + per_block)
            cap = int(bounds[first]) + PLAN_BLOCK_ACTS
            if int(bounds[end]) > cap:
                end = max(
                    first + 1,
                    int(np.searchsorted(bounds, cap, side="right")) - 1,
                )
            block_bounds = bounds[first:end + 1] - bounds[first]
            block_rows = rows[int(bounds[first]):int(bounds[end])]
            cols = block_rows - lo
            interval_of = np.repeat(
                np.arange(first, end, dtype=np.int64), np.diff(block_bounds)
            )
            keys = (interval_of - first) * span + cols
            np.add.at(hist, keys, 1)
            # Scanning a boolean mask beats scanning the int64 counts
            # several times over when many cells are non-zero.
            nonzero = np.flatnonzero(hist != 0)
            cells.append(nonzero)
            counts.append(hist[nonzero])
            hist[nonzero] = 0
            self.blocks.append((first, end, n_cells, n_cells + nonzero.size))
            n_cells += nonzero.size
            if dimm.ptrr.enabled:
                hit = dimm.ptrr.refresh_mask(block_rows.size, ptrr_rng)
                agg_interval.append(interval_of[hit])
                agg_col.append(cols[hit])
            if raa is not None:
                targets, trips = raa.observe_chunk(block_rows)
                self.trr_refreshes += int(targets.size)
                agg_interval.append(interval_of[trips])
                agg_col.append(targets - lo)
            refs = sampler.plan(block_rows, block_bounds, lo, span)
            ref_counts = [len(targets) for targets in refs]
            self.ref_counts += ref_counts
            n_refs = sum(ref_counts)
            if n_refs:
                self.trr_refreshes += n_refs
                agg_interval.append(
                    np.repeat(np.arange(first, end, dtype=np.int64), ref_counts)
                )
                agg_col.append(
                    np.fromiter(
                        chain.from_iterable(refs), dtype=np.int64, count=n_refs
                    )
                    - lo
                )
            first = end
        self.cells = np.concatenate(cells)
        self.counts = np.concatenate(counts)
        # The window reaches two rows past every aggressor, so every
        # refreshed victim is a window column.
        if agg_col:
            interval = np.repeat(
                np.concatenate(agg_interval), _NEIGHBOUR_OFFSETS.size
            )
            victims = (
                np.concatenate(agg_col)[:, None] + _NEIGHBOUR_OFFSETS
            ).ravel()
            # Each source is already in interval order, so the stable
            # (merge) sort only interleaves a few sorted runs.
            order = np.argsort(interval, kind="stable")
            self.victims = victims[order]
            interval = interval[order]
        else:
            self.victims = interval = np.zeros(0, dtype=np.int64)
        #: ``victims[victim_bounds[t]:victim_bounds[t + 1]]`` are interval
        #: ``t``'s refreshed columns.
        self.victim_bounds: list[int] = np.searchsorted(
            interval, np.arange(n + 1, dtype=np.int64)
        ).tolist()
        self.sampler = sampler if telemetry else None
        self.tallies = sampler.capture_tallies() if telemetry else None


class _BankWindow:
    """Per-bank hammer state for one or more base-row-shifted locations.

    Row ``i`` of each ``(locations, span)`` array is location ``i``'s
    state over its compact victim window; column ``c`` is device row
    ``los[i] + c``.  The per-trial loop is the one-location case.  The
    locations' streams differ only by a uniform row shift, so one
    :class:`_BankPlan` drives all of them and every location's
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

    def run(self, plan: _BankPlan, gain: float, trace_bank=None) -> None:
        """Play a plan: deposit, record peaks, zero, interval by interval.

        Adding ``(weight * 0) * gain == 0.0`` for absent aggressors is a
        bitwise no-op on non-negative disturbance, and an interval
        without ACTs cannot raise a peak, so only its zeroing runs.  With
        ``trace_bank`` set, each interval emits its ``dram.window`` point
        as its block is played.
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
        # Block buffers, reused by every block; the histogram is kept
        # all-zero between blocks.
        cells = max(end - first for first, end, _, _ in plan.blocks) * span
        hist = np.zeros(cells, dtype=np.int64)
        scaled = {
            distance: np.empty(cells, dtype=np.float64)
            for distance in NEIGHBOUR_WEIGHTS
        }
        for block in plan.blocks:
            first, end = block[0], block[1]
            adds = list(zip(targets, _deposits(plan, block, gain, hist, scaled)))
            victims, victim_bounds = self._victims(plan, first, end)
            periodic, periodic_bounds = self._periodic(plan, first, end)
            acts_of = plan.acts[first:end]
            if trace_bank is not None:
                for t, acts in enumerate(acts_of, first):
                    OBS.tracer.point(
                        "dram.window",
                        bank=trace_bank,
                        window=t,
                        acts=acts,
                        trr_refreshes=plan.ref_counts[t],
                        virtual_ns=plan.t_refi,
                    )
            for t, acts in enumerate(acts_of):
                if acts:
                    for target, deposit in adds:
                        target += deposit[t]
                    np.greater(d, peak, out=improved)
                    np.copyto(peak, d, where=improved)
                    if peak_window is not None:
                        np.copyto(peak_window, first + t, where=improved)
                z0 = victim_bounds[t]
                z1 = victim_bounds[t + 1]
                if z1 > z0:
                    flat[victims[z0:z1]] = 0.0
                z0 = periodic_bounds[t]
                z1 = periodic_bounds[t + 1]
                if z1 > z0:
                    flat[periodic[z0:z1]] = 0.0

    def _victims(self, plan: _BankPlan, first: int, end: int):
        """The plan's refreshed columns of intervals ``[first, end)``, for
        every location, as flat state indices (``location * span +
        column``) grouped by interval: ``flat[bounds[t]:bounds[t + 1]]``
        (``t`` relative to ``first``)."""
        n_loc, span = self.disturbance.shape
        v0 = plan.victim_bounds[first]
        flat = (
            plan.victims[v0:plan.victim_bounds[end], None]
            + np.arange(n_loc, dtype=np.int64) * span
        ).ravel()
        bounds = [(b - v0) * n_loc for b in plan.victim_bounds[first:end + 1]]
        return flat, bounds

    def _periodic(self, plan: _BankPlan, first: int, end: int):
        """Each location's periodic refresh of intervals ``[first, end)``.

        Interval ``t`` refreshes device rows ``[slot, slot +
        rows_per_ref)`` of its slot, intersected with each location's
        window; indexed like :meth:`_victims`.
        """
        n = end - first
        n_loc, span = self.disturbance.shape
        slot_row = (
            (first + np.arange(n, dtype=np.int64)) % plan.refs_per_window
        ) * plan.rows_per_ref
        start = slot_row[:, None] - self.los
        stop = np.clip(start + plan.rows_per_ref, 0, span).ravel()
        start = np.clip(start, 0, span).ravel()
        lengths = stop - start
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths.reshape(n, n_loc).sum(axis=1), out=bounds[1:])
        total = int(bounds[-1])
        if not total:
            return _NO_ROWS, bounds.tolist()
        loc_base = np.arange(n_loc, dtype=np.int64) * span
        offsets = np.cumsum(lengths) - lengths
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            np.tile(loc_base, n) + start - offsets, lengths
        )
        return flat, bounds.tolist()


def _deposits(plan: _BankPlan, block, gain: float, hist, scaled):
    """One block's deposits, one ``(intervals, span - distance)`` array
    per :data:`_SLICE_ADDS` entry: row ``t`` is what interval ``t``'s
    slice add deposits.

    The plan's ACT histogram is scaled as ``(weight * acts) * gain``,
    element for element the values the slice adds always computed, into
    the ``scaled`` buffers; ``hist`` is left all-zero.
    """
    first, end, c0, c1 = block
    n = end - first
    span = plan.span
    block_hist = hist[:n * span]
    nonzero = plan.cells[c0:c1]
    block_hist[nonzero] = plan.counts[c0:c1]
    by_distance: dict[int, np.ndarray] = {}
    for distance, weight in NEIGHBOUR_WEIGHTS.items():
        contribution = scaled[distance][:n * span]
        np.multiply(block_hist, weight, out=contribution)
        np.multiply(contribution, gain, out=contribution)
        by_distance[distance] = contribution.reshape(n, span)
    block_hist[nonzero] = 0
    return [
        by_distance[distance][:, :-distance]
        if below
        else by_distance[distance][:, distance:]
        for distance, below in _SLICE_ADDS
        if span > distance
    ]


#: An empty index: no periodic refresh in a block.
_NO_ROWS = np.zeros(0, dtype=np.int64)


@dataclass
class _BankPass:
    """One bank's played stream, holding only what emission reads.

    The disturbance matrix is dropped once the stream is played; the
    peaks stay until every location is emitted.
    """

    bank: int
    lo: int  # location 0's window origin (device row)
    peak: np.ndarray  # (locations, span)
    peak_window: np.ndarray | None  # with telemetry
    plan: _BankPlan


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

    # ------------------------------------------------------------------
    def hammer(
        self,
        bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
        collect_events: bool = True,
        disturbance_gain: float = 1.0,
        plan: StreamPlan | None = None,
    ) -> HammerResult:
        """Execute activation streams and return the induced flips.

        ``bank_streams`` maps bank index -> (times_ns, rows), both 1-D
        arrays sorted by time, with every row on the device.  Streams on
        different banks are independent (each bank has its own row
        buffer, sampler and refresh phase).

        ``disturbance_gain`` implements the simulation scale: when a
        campaign runs 1/N of the paper's per-pattern activations, each
        simulated ACT stands for N paper ACTs and deposits N units of
        disturbance.  TRR and refresh dynamics are unaffected — only the
        accumulation speed changes.

        ``plan``, if given, is the :class:`StreamPlan` of a stream these
        streams replay up to a uniform row shift (filled by this call if
        it is new).
        """
        banks = self._bank_list(bank_streams, _NO_SHIFT)
        return self._hammer_locations(
            banks, _NO_SHIFT, collect_events, disturbance_gain, plan
        )[0]

    def batch_supported(
        self,
        bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
        row_deltas: np.ndarray,
    ) -> tuple[bool, str]:
        """Whether :meth:`hammer_batch` runs its locations in one driver.

        Per-window trace points need per-trial interleaving that a shared
        pass cannot provide.  Windows past a device edge are padded, and a
        batch over :data:`BATCH_MATRIX_BYTES_MAX` runs as several passes,
        so neither needs the per-trial loop.
        """
        if OBS.tracer.enabled and OBS.tracer.detail == "window":
            return False, "window-detail tracing needs per-trial interleaving"
        if np.size(row_deltas) == 0:
            return False, "empty location batch"
        return True, ""

    def hammer_batch(
        self,
        bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
        row_deltas: np.ndarray,
        collect_events: bool = False,
        disturbance_gain: float = 1.0,
        plan: StreamPlan | None = None,
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
        so every call replays the same stream), the pTRR mask and the RAA
        targets are all base-row-independent in window coordinates.  Only
        the periodic-refresh range intersection, the device-edge padding
        and the final :class:`CellPopulation` weak-cell lookups differ per
        location, and all are applied per location.  This method only
        decides how the locations are split into driver passes; one
        location, or a batch :meth:`batch_supported` refuses, runs as
        :meth:`hammer` calls.  Every pass and every such call plays one
        :class:`StreamPlan`: ``plan`` if given (filled by this call if it
        is new, see :meth:`hammer`), else a plan of this call's own.
        """
        deltas = np.ascontiguousarray(np.asarray(row_deltas, dtype=np.int64))
        supported, _reason = self.batch_supported(bank_streams, deltas)
        if plan is None:
            plan = StreamPlan()
        if not supported or deltas.size == 1:
            return [
                self.hammer(
                    {
                        bank: (times, rows + delta)
                        for bank, (times, rows) in bank_streams.items()
                    },
                    collect_events=collect_events,
                    disturbance_gain=disturbance_gain,
                    plan=plan,
                )
                for delta in deltas.tolist()
            ]
        banks = self._bank_list(bank_streams, deltas)
        span = max(
            (int(rows.max()) - int(rows.min()) + 5 for _, _, rows in banks),
            default=1,
        )
        per_pass = max(1, BATCH_MATRIX_BYTES_MAX // (3 * span * 8))
        results: list[HammerResult] = []
        for first in range(0, deltas.size, per_pass):
            results += self._hammer_locations(
                banks,
                deltas[first:first + per_pass],
                collect_events,
                disturbance_gain,
                plan,
            )
        return results

    def _bank_list(
        self,
        bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
        deltas: np.ndarray,
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """The non-empty ``(bank, times, rows)`` streams, validated."""
        self.check_rows(bank_streams, deltas)
        return [
            (bank, times, np.ascontiguousarray(rows, dtype=np.int64))
            for bank, (times, rows) in bank_streams.items()
            if times.size
        ]

    def check_rows(
        self,
        bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
        deltas: np.ndarray,
    ) -> None:
        """Raise :class:`SimulationError` unless every stream is playable.

        Times and rows must align, and every location's rows (each stream
        shifted by each of ``deltas``) must lie on the device: the padded
        window would turn an off-device ACT into silently wrong flips.
        """
        rows_total = self.spec.geometry.rows
        d_lo = int(deltas.min())
        d_hi = int(deltas.max())
        for bank, (times, rows) in bank_streams.items():
            if times.shape != rows.shape:
                raise SimulationError("times and rows must align")
            if times.size and (
                int(rows.min()) + d_lo < 0
                or int(rows.max()) + d_hi >= rows_total
            ):
                raise SimulationError(
                    f"bank {bank} activates rows outside the device's "
                    f"{rows_total} rows"
                )

    def _hammer_locations(
        self,
        banks: list[tuple[int, np.ndarray, np.ndarray]],
        deltas: np.ndarray,
        collect_events: bool,
        disturbance_gain: float,
        plan: StreamPlan | None,
    ) -> list[HammerResult]:
        """The driver: play each bank once for all locations, then emit.

        Location ``i`` is every bank stream shifted by ``deltas[i]``.
        Flip accounting and telemetry are emitted location-major, in
        exactly the order separate one-location calls would produce.
        """
        telemetry = OBS.enabled
        passes = [
            self._play_bank(bank, times, rows, deltas, disturbance_gain, plan)
            for bank, times, rows in banks
        ]
        return [
            self._result(
                banks,
                [
                    self._emit_bank_location(
                        p, i, delta, collect_events, telemetry
                    )
                    for p in passes
                ],
                collect_events,
            )
            for i, delta in enumerate(deltas.tolist())
        ]

    def _play_bank(
        self,
        bank: int,
        times: np.ndarray,
        rows: np.ndarray,
        deltas: np.ndarray,
        disturbance_gain: float,
        plan: StreamPlan | None,
    ) -> _BankPass:
        """Play one bank stream over every location, planned once.

        The bank's plan is taken from ``plan`` if it holds one and is
        stored there if it is new.
        """
        telemetry = OBS.enabled
        trace_windows = (
            telemetry and OBS.tracer.enabled and OBS.tracer.detail == "window"
        )
        lo = int(rows.min()) - 2
        span = int(rows.max()) + 2 - lo + 1
        bank_plan = plan.banks.get(bank) if plan is not None else None
        if bank_plan is None or (telemetry and bank_plan.tallies is None):
            bank_plan = _BankPlan(self, bank, times, rows, lo, span, telemetry)
            if plan is not None:
                plan.banks[bank] = bank_plan
        elif bank_plan.span != span or bank_plan.n_acts != rows.size:
            raise SimulationError(
                f"bank {bank}'s stream is not the one its plan was made for"
            )
        state = _BankWindow(lo + deltas, span, track_windows=telemetry)
        state.run(bank_plan, disturbance_gain, bank if trace_windows else None)
        return _BankPass(
            bank=bank,
            lo=lo,
            peak=state.peak,
            peak_window=state.peak_window,
            plan=bank_plan,
        )

    def _emit_bank_location(
        self,
        p: _BankPass,
        i: int,
        delta: int,
        collect_events: bool,
        telemetry: bool,
    ):
        """Flip accounting + metrics for one (bank, location) pair.

        Flip metrics in ascending-victim order, the sampler tally flush
        (replayed from the shared capture), window counters, then event
        materialisation.  Returns ``(flips, trr_refreshes)``, with flips
        as events or, without ``collect_events``, as a count.
        """
        lo = p.lo + delta
        # Padding columns past a device edge are never counted.
        first = max(0, -lo)
        last = self.spec.geometry.rows - lo
        peak = p.peak[i, first:last]
        touched = np.nonzero(peak > 0.0)[0]
        victims = touched + (lo + first)
        counts = self.cells.flip_counts_for(p.bank, victims, peak[touched])
        plan = p.plan
        if telemetry:
            batch = OBS.metrics.batch()
            windows = p.peak_window[i, first:last][touched]
            for j in np.nonzero(counts)[0].tolist():
                self._flip_metrics(batch, int(counts[j]), int(windows[j]))
            sampler = plan.sampler
            sampler.metrics = batch
            sampler.restore_tallies(plan.tallies)
            sampler.flush_metrics()
            batch.inc("dram.windows_total", len(plan.acts))
            batch.observe_many("dram.acts_per_window", plan.acts)
            batch.flush()
        if not collect_events:
            return int(counts.sum()), plan.trr_refreshes
        flips: list[FlipEvent] = []
        for j in np.nonzero(counts)[0].tolist():
            victim = int(victims[j])
            prof = self.cells.profile(p.bank, victim)
            flips.extend(
                FlipEvent(
                    bank=p.bank,
                    row=victim,
                    bit_index=int(prof.bit_indices[k]),
                    direction=int(prof.directions[k]),
                )
                for k in range(int(counts[j]))
            )
        return flips, plan.trr_refreshes

    @staticmethod
    def _result(
        banks: list[tuple[int, np.ndarray, np.ndarray]],
        bank_outcomes: list[tuple],
        collect_events: bool,
    ) -> HammerResult:
        """One location's result from its per-bank ``(flips, trr)`` pairs."""
        flips: list[FlipEvent] = []
        flip_total = 0
        trr_refreshes = 0
        for bank_flips, bank_trr in bank_outcomes:
            trr_refreshes += bank_trr
            if collect_events:
                flips.extend(bank_flips)
            else:
                flip_total += bank_flips
        if collect_events:
            flip_total = len(flips)
        acts = sum(int(times.size) for _, times, _ in banks)
        end_time = max(
            (float(times[-1]) for _, times, _ in banks), default=0.0
        )
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

    @staticmethod
    def _flip_metrics(batch, count: int, window: int) -> None:
        """Attribute flips to the refresh window where the peak was hit."""
        batch.inc("dram.flips_total", count)
        batch.inc(metric_key("dram.flips_by_window", {"window": window}), count)
