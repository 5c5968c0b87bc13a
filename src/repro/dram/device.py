"""The DIMM device: executes activation streams and reports bit flips.

The hammer pipeline hands each bank a *timestamped activation stream*
(issue-order row indices plus times).  Its meaning is a walk over the
stream one refresh interval (tREFI) at a time:

1. disturbance from each ACT is added to the +/-1 and +/-2 neighbour rows,
2. the TRR sampler observes the interval's ACTs and, at the REF, refreshes
   the neighbours of the aggressors it tracked (resetting their victims'
   disturbance),
3. rows whose periodic-refresh slot falls in this interval are reset,
4. before any reset, the running peak unrefreshed disturbance per victim is
   recorded; at the end the cell population converts peaks into flips.

:class:`~repro.dram.reference.ReferenceDimm` keeps that walk, row by row
and ACT by ACT.  This module computes its outcome without walking the
intervals, because this is the simulated gate every fuzz/sweep/exploit
trial funnels through.  Every TRR sampler REF target
(:meth:`TrrSampler.plan <repro.dram.trr.TrrSampler.plan>`), pTRR and RAA
target is decided up front by a :class:`_BankPlan`, in the coordinates of
the compact victim window, where it holds for every row shift of the
stream.  The plan sorts the stream's disturbance contributions by victim
column, interval and aggressor, and cuts each column's run at its TRR,
pTRR and RFM resets into *segments*.  A victim's level only grows between
two resets, so its peak is its largest segment sum.  A call splits the
segments its locations' periodic refreshes cut, takes every location's
peaks at once (:meth:`_BankPlan.play`), and counts flips in one vectorised
pass (:meth:`~repro.dram.cells.CellPopulation.flip_counts_for`).
:mod:`repro.dram.equivalence` proves the two paths bit-identical (flips,
TRR refreshes and OBS metrics) across patterns, TRR vendor profiles, pTRR
and RFM.

Invariants the array code relies on (documented in
``docs/PERFORMANCE.md``):

* all disturbance couplings are positive, so between two resets a
  victim's level only grows: its peak is a segment's sum, and float
  addition being monotone, no piece of a segment sums above the whole;
* per victim, contributions arrive by interval and, within an interval,
  in ascending-aggressor order (a = v-2, v-1, v+1, v+2); every segment is
  summed left to right in that order with ``np.add.accumulate``, so float
  accumulation matches the reference exactly (``np.add.reduce`` would
  not: over a 1-D or one-column array NumPy sums pairwise);
* the walk's strict ``level > peak`` keeps the first of tied peaks, so a
  victim's peak window lies in the earliest piece that attains its peak;
* refreshes only zero disturbance (idempotent) and all of an interval's
  refreshes follow its deposit, so the order of its TRR / pTRR / RFM
  target and periodic refreshes cannot change the final state;
* every TRR/pTRR/RFM/refresh decision depends only on the stream and
  name-derived RNG streams, never on disturbance, so all of them can be
  made before any disturbance is summed;
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

#: One interval's contributions to a victim v, as (distance, aggressor
#: below the victim), in the reference loop's ascending-aggressor order
#: (v-2, v-1, v+1, v+2): below-victim aggressors by descending distance,
#: then above-victim ones by ascending distance.  Summing them in this
#: order reproduces the reference's float accumulation bit-for-bit.
_CONTRIBUTION_ORDER = tuple(
    (distance, True) for distance in sorted(NEIGHBOUR_WEIGHTS, reverse=True)
) + tuple((distance, False) for distance in sorted(NEIGHBOUR_WEIGHTS))

#: Per :data:`_CONTRIBUTION_ORDER` entry, the victim's offset from its
#: aggressor and the coupling weight.
_VICTIM_OFFSETS = np.array(
    [distance if below else -distance
     for distance, below in _CONTRIBUTION_ORDER],
    dtype=np.int64,
)
_WEIGHTS = np.array(
    [NEIGHBOUR_WEIGHTS[distance] for distance, _ in _CONTRIBUTION_ORDER]
)

#: Victim offsets of a refreshed aggressor.
_NEIGHBOUR_OFFSETS = np.array(
    sorted(o for d in NEIGHBOUR_WEIGHTS for o in (-d, d)), dtype=np.int64
)

#: Cells (intervals x window rows) per plan block.  A block's ACT
#: histogram and the sampler's observed-ACT histogram each hold this many
#: values, which keeps them in cache; a window wider than this gets one
#: interval per block.
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


#: Ceiling on one bank's per-location play arrays in one pass
#: (:func:`_location_bytes` per location).  :meth:`Dimm.hammer_batch`
#: runs a larger batch as several passes, each with as many locations as
#: fit (at least one).
BATCH_MATRIX_BYTES_MAX = 128 * 1024 * 1024


def _location_bytes(span: int, intervals: int, refs_per_window: int) -> int:
    """What one location adds to a bank's play (:meth:`_BankPlan.play`).

    Per window column it holds about eight 8-byte values (the column's
    row, refresh slot and count, its peak and peak piece, temporaries),
    and as many per column and periodic refresh in the stream (the split
    search).  Whatever depends on the stream alone is the plan's, held
    once for every location.
    """
    refreshes = -(-intervals // refs_per_window)
    return 8 * 8 * span * (1 + refreshes)


#: The row shifts of a one-location call.
_NO_SHIFT = np.zeros(1, dtype=np.int64)
_NO_SHIFT.setflags(write=False)


class StreamPlan:
    """The shift-invariant plan of one activation stream, bank by bank.

    Hand one instance to every :meth:`Dimm.hammer` or
    :meth:`Dimm.hammer_batch` call that replays the same stream: the first
    call fills it and later calls reuse it instead of planning again.
    Every such call must play the same per-bank streams up to a uniform
    row shift; its gain, row shifts and event collection may differ.
    Each bank's plan keeps its segment sums for the last gain played, so
    a replay at that gain only splits segments for its own locations,
    and a replay at another gain sums the segments again.  A bank
    planned while telemetry was off is planned again the first time a
    call needs its sampler tallies.
    """

    __slots__ = ("banks",)

    def __init__(self) -> None:
        self.banks: dict[int, _BankPlan] = {}


class _BankPlan:
    """Every decision of one bank stream's play, made up front.

    TRR sampling and REF ranking, pTRR draws and RAA trips depend only on
    the ACT stream and name-derived RNG streams, never on disturbance, so
    they are all made before :meth:`play` computes the peaks.  Everything
    here is in window coordinates (column ``c`` is device row ``lo + c``,
    with ``lo`` two rows below the stream's lowest row), where it is
    invariant under a uniform row shift: one plan serves every location of
    a call and every later replay of the stream (:class:`StreamPlan`).

    The stream's ACT histogram is built block by block (at most
    :data:`PLAN_BLOCK_CELLS` window cells and :data:`PLAN_BLOCK_ACTS`
    ACTs per block, at least one interval), then turned into the
    disturbance *contributions* it deposits, one per (victim column,
    interval, :data:`_CONTRIBUTION_ORDER` entry) with an ACT behind it,
    sorted in that order: the order in which each victim's level
    accumulates.  The plan keeps

    * ``keys``, each contribution's ``column * intervals + interval``;
    * ``scaled``, its ``weight * acts`` (the play multiplies by the gain);
    * ``seg_start``, where each *segment* starts: a column's first
      contribution, and the first one after each of its TRR, pTRR and RFM
      resets (a reset follows its interval's deposit), plus the end;
    * for the last gain played, each segment's running sums and each
      column's peak segment;
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
        self.intervals = n
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
        # The histogram's non-zero ``interval * span + column`` cells.
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
            cells.append(nonzero + first * span)
            counts.append(hist[nonzero])
            hist[nonzero] = 0
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
        del hist  # freed before the contributions are built
        # The window reaches two rows past every aggressor, so every
        # refreshed victim is a window column.
        resets = np.zeros(0, dtype=np.int64)
        if agg_col:
            resets = (
                np.concatenate(agg_col)[:, None] + _NEIGHBOUR_OFFSETS
            ) * n + np.concatenate(agg_interval)[:, None]
        self._segment(np.concatenate(cells), np.concatenate(counts), resets)
        self.gain: float | None = None
        self.running: np.ndarray | None = None
        self.sampler = sampler if telemetry else None
        self.tallies = sampler.capture_tallies() if telemetry else None

    def _segment(
        self, cells: np.ndarray, counts: np.ndarray, resets: np.ndarray
    ) -> None:
        """Sort the histogram's contributions and cut them into segments.

        ``resets`` holds a ``column * intervals + interval`` key per TRR,
        pTRR and RFM victim reset.  The window reaches two rows past every
        aggressor, so every contribution's victim is a window column.
        """
        n = self.intervals
        interval = cells // self.span
        victim = cells - interval * self.span + _VICTIM_OFFSETS[:, None]
        entries = len(_CONTRIBUTION_ORDER)
        # Unique per contribution: the victim and the entry fix the
        # aggressor, so the sort needs no tiebreak.
        keys = (
            (victim * n + interval) * entries
            + np.arange(entries, dtype=np.int64)[:, None]
        ).ravel()
        del interval, victim
        order = np.argsort(keys)
        self.keys = keys[order] // entries
        del keys
        self.scaled = (_WEIGHTS[:, None] * counts).ravel()[order]
        del order
        column = self.keys // n
        col_start = np.flatnonzero(column[1:] != column[:-1]) + 1
        col_start = np.concatenate(([0], col_start))
        #: The window columns that take deposits, ascending.
        self.cols = column[col_start]
        del column
        total = self.keys.size
        edge = np.zeros(total + 1, dtype=bool)
        edge[col_start] = True
        edge[np.searchsorted(self.keys, resets.ravel(), side="right")] = True
        edge[total] = True
        self.seg_start = np.flatnonzero(edge)
        #: ``seg_start`` indices of each column's first segment, and the end.
        self.col_seg = np.searchsorted(
            self.seg_start, np.append(col_start, total)
        )

    def _fold(self, gain: float) -> None:
        """Every segment's running sums at ``gain``, and each column's
        peak segment: kept for the last gain played."""
        if gain == self.gain:
            return
        self.running = None  # freed before its successor is built
        starts = self.seg_start
        self.running = _running_sums(
            self.scaled, gain, starts[:-1], np.diff(starts)
        )
        self.best, self.best_seg = _first_max(
            self.running[starts[1:] - 1], self.col_seg[:-1]
        )
        self.gain = gain

    def play(
        self, los: np.ndarray, gain: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every location's peak per :attr:`cols` entry, at ``gain``.

        Location ``i``'s window starts at device row ``los[i]``.  Returns
        ``(locations, columns)`` arrays: the peak, and the ``[start,
        stop)`` contributions of the earliest piece that attains it (see
        :meth:`windows`).  A piece is a segment, or part of one that a
        periodic refresh splits: interval ``t`` refreshes the device rows
        of slot ``t % refs_per_window``, after its deposit.  Deposits are
        non-negative, so a piece's level only grows, and a column's peak
        is its largest piece sum.  A location whose refreshes leave a
        column's peak segment whole shares the plan's peak; only the
        others fold their column's pieces (:meth:`_resolve`).
        """
        self._fold(gain)
        n = self.intervals
        cols = self.cols
        seg_start = self.seg_start
        n_col = cols.size
        rows = (los[:, None] + cols).ravel()
        slot = rows // self.rows_per_ref
        refreshes = np.where(
            (rows >= 0) & (slot < min(self.refs_per_window, n)),
            (n - 1 - slot) // self.refs_per_window + 1,
            0,
        )
        pair = np.repeat(np.arange(rows.size, dtype=np.int64), refreshes)
        interval = slot[pair] + _counting(refreshes) * self.refs_per_window
        # The first contribution after each refresh; it splits its
        # segment unless it starts one.
        split = np.searchsorted(
            self.keys, cols[pair % n_col] * n + interval, side="right"
        )
        seg = np.searchsorted(seg_start, split, side="right") - 1
        inside = seg_start[seg] < split
        pair, split, seg = pair[inside], split[inside], seg[inside]
        peaks = np.tile(self.best, los.size)
        start = np.tile(seg_start[self.best_seg], los.size)
        stop = np.tile(seg_start[self.best_seg + 1], los.size)
        hard = np.unique(pair[seg == self.best_seg[pair % n_col]])
        if hard.size:
            keep = np.isin(pair, hard)
            self._resolve(
                hard, np.searchsorted(hard, pair[keep]), split[keep],
                peaks, start, stop,
            )
        shape = (los.size, n_col)
        return peaks.reshape(shape), start.reshape(shape), stop.reshape(shape)

    def _resolve(self, hard, split_owner, split, peaks, start, stop) -> None:
        """Peaks of the (location, column) pairs whose peak segment a
        periodic refresh splits: every piece of the column competes.

        ``hard`` are flat ``location * columns + column`` pair indices;
        ``split[k]`` is a refresh split of pair ``hard[split_owner[k]]``.
        A piece that starts a segment reads the plan's running sums; the
        others are folded here.  Writes into the flat ``play`` arrays.
        """
        col = hard % self.cols.size
        first = self.col_seg[col]
        n_seg = self.col_seg[col + 1] - first
        seg_owner = np.repeat(np.arange(hard.size, dtype=np.int64), n_seg)
        seg = np.repeat(first, n_seg) + _counting(n_seg)
        bound = self.keys.size + 1
        piece = np.unique(
            np.concatenate(
                (
                    seg_owner * bound + self.seg_start[seg],
                    split_owner * bound + split,
                )
            )
        )
        owner, begin = np.divmod(piece, bound)
        heads = np.flatnonzero(np.diff(owner, prepend=-1))
        end = np.empty_like(begin)
        end[:-1] = begin[1:]
        end[np.append(heads[1:], begin.size) - 1] = self.seg_start[
            self.col_seg[col + 1]
        ]
        sums = self.running[end - 1]
        inner = np.flatnonzero(~np.isin(begin, self.seg_start))
        sums[inner] = _fold_ends(
            self.scaled, self.gain, begin[inner], end[inner] - begin[inner]
        )
        best, win = _first_max(sums, heads)
        peaks[hard] = best
        start[hard] = begin[win]
        stop[hard] = end[win]

    def windows(
        self,
        cols: np.ndarray,
        start: np.ndarray,
        stop: np.ndarray,
        peaks: np.ndarray,
    ) -> np.ndarray:
        """The interval at which each piece's level first reaches its
        peak: where the walk's strict ``level > peak`` last held."""
        reach = _first_reach(
            self.scaled, self.gain, start, stop - start, peaks
        )
        return self.keys[start + reach] - cols * self.intervals


def _counting(counts: np.ndarray) -> np.ndarray:
    """``0, 1, ..., counts[i] - 1`` for every ``i``, concatenated."""
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )


def _first_max(values: np.ndarray, heads: np.ndarray):
    """Per group ``values[heads[g]:heads[g + 1]]`` (the last one runs to
    the end): its maximum, and the index of the maximum's first
    occurrence.  The walk's strict ``level > peak`` keeps the first of
    tied peaks."""
    best = np.maximum.reduceat(values, heads)
    sizes = np.diff(np.append(heads, values.size))
    hit = np.flatnonzero(values == np.repeat(best, sizes))
    return best, hit[np.searchsorted(hit, heads)]


def _folds(values, gain, starts, lengths):
    """Left folds of ``values[s:s + n] * gain`` for every ``(s, n)``.

    Yields ``(sel, steps, block)`` per bucket of ranges, where
    ``block[k, i]`` is range ``sel[i]``'s running sum after its first
    ``k + 1`` terms; rows past a range's length run on into the values
    after it.  ``np.add.accumulate`` along axis 0 adds one row at a time,
    so every running sum is the plain left-to-right fold of the
    reference's walk.  ``np.add.reduce`` would not be: over a 1-D or
    one-column array NumPy sums pairwise.  Ranges are bucketed by bit
    length, so padding is under half of each block.
    """
    if not lengths.size:
        return
    exponent = np.frexp(lengths)[1]
    order = np.argsort(exponent, kind="stable")
    for sel in np.split(order, np.flatnonzero(np.diff(exponent[order])) + 1):
        steps = np.arange(int(lengths[sel].max()), dtype=np.int64)[:, None]
        block = np.take(values, starts[sel] + steps, mode="clip")
        block *= gain
        np.add.accumulate(block, axis=0, out=block)
        yield sel, steps, block


def _running_sums(values, gain, starts, lengths) -> np.ndarray:
    """Every running sum of the ranges, concatenated in range order."""
    out = np.empty(int(lengths.sum()))
    offsets = np.cumsum(lengths) - lengths
    for sel, steps, block in _folds(values, gain, starts, lengths):
        inside = steps < lengths[sel]
        out[(offsets[sel] + steps)[inside]] = block[inside]
    return out


def _fold_ends(values, gain, starts, lengths) -> np.ndarray:
    """Each range's fold."""
    out = np.empty(lengths.size)
    for sel, _, block in _folds(values, gain, starts, lengths):
        out[sel] = block[lengths[sel] - 1, np.arange(sel.size)]
    return out


def _first_reach(values, gain, starts, lengths, targets) -> np.ndarray:
    """Per range, the first term after which its running sum equals its
    target (the range's fold)."""
    out = np.empty(lengths.size, dtype=np.int64)
    for sel, _, block in _folds(values, gain, starts, lengths):
        out[sel] = np.argmax(block == targets[sel], axis=0)
    return out


@dataclass
class _BankPass:
    """One bank's played stream: per location and :attr:`_BankPlan.cols`
    entry, the peak and the piece of contributions that attains it."""

    bank: int
    lo: int  # location 0's window origin (device row)
    peaks: np.ndarray  # (locations, columns)
    start: np.ndarray
    stop: np.ndarray
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
        t_refi = self.timing.t_refi
        per_location = max(
            (
                _location_bytes(
                    int(rows.max()) - int(rows.min()) + 5,
                    int(times[-1] // t_refi) + 1,
                    self.timing.refs_per_window,
                )
                for _, times, rows in banks
            ),
            default=1,
        )
        per_pass = max(1, BATCH_MATRIX_BYTES_MAX // per_location)
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
        if trace_windows:
            for t, (acts, refs) in enumerate(
                zip(bank_plan.acts, bank_plan.ref_counts)
            ):
                OBS.tracer.point(
                    "dram.window",
                    bank=bank,
                    window=t,
                    acts=acts,
                    trr_refreshes=refs,
                    virtual_ns=bank_plan.t_refi,
                )
        peaks, start, stop = bank_plan.play(lo + deltas, disturbance_gain)
        return _BankPass(
            bank=bank,
            lo=lo,
            peaks=peaks,
            start=start,
            stop=stop,
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
        plan = p.plan
        rows = plan.cols + (p.lo + delta)
        peaks = p.peaks[i]
        # Padding columns past a device edge are never counted.
        touched = np.flatnonzero(
            (rows >= 0) & (rows < self.spec.geometry.rows) & (peaks > 0.0)
        )
        victims = rows[touched]
        counts = self.cells.flip_counts_for(p.bank, victims, peaks[touched])
        if telemetry:
            batch = OBS.metrics.batch()
            flipped = np.flatnonzero(counts)
            at = touched[flipped]
            windows = plan.windows(
                plan.cols[at], p.start[i, at], p.stop[i, at], peaks[at]
            )
            for count, window in zip(
                counts[flipped].tolist(), windows.tolist()
            ):
                self._flip_metrics(batch, count, window)
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
