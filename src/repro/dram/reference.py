"""The sequential DRAM hammer loop, kept as the semantic reference.

:class:`~repro.dram.device.Dimm` executes hammer streams through a fully
vectorised inner loop (flat per-bank arrays, ``np.unique``-based TRR
observation, batched flip counting).  This module preserves the original
per-row / per-ACT Python implementation as :class:`ReferenceDimm`, for two
jobs:

* **equivalence proofs** — :mod:`repro.dram.equivalence` cross-checks that
  the vectorised path produces bit-identical flips, TRR refresh counts and
  telemetry across patterns, TRR vendor profiles, pTRR and RFM; and
* **speedup accounting** — the ``dram`` microbench in
  :mod:`repro.obs.bench` times the two paths on the same workload and
  gates the recorded speedup against the committed baseline.

The only intended observable difference is the *ordering* of
:class:`~repro.dram.cells.FlipEvent` tuples: the reference emits events in
victim first-touch order, the vectorised path in ascending row order.
Event multisets (and every count/metric) are identical; comparisons sort.

Nothing here is exported through ``repro.dram`` — the reference is a
verification artifact, not an API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import RngStream
from repro.dram.cells import FlipEvent
from repro.dram.ddr5 import RaaCounter
from repro.dram.device import NEIGHBOUR_WEIGHTS, Dimm
from repro.dram.geometry import DramGeometry
from repro.dram.trr import TrrSampler
from repro.obs import OBS


@dataclass
class _SequentialBankState:
    """Dict-based per-bank bookkeeping (the pre-vectorisation layout)."""

    disturbance: dict[int, float] = field(default_factory=dict)
    peak: dict[int, float] = field(default_factory=dict)
    peak_window: dict[int, int] = field(default_factory=dict)
    track_windows: bool = False

    def add(self, victim: int, amount: float, window: int = 0) -> None:
        level = self.disturbance.get(victim, 0.0) + amount
        self.disturbance[victim] = level
        if level > self.peak.get(victim, 0.0):
            self.peak[victim] = level
            if self.track_windows:
                self.peak_window[victim] = window

    def refresh_row(self, row: int) -> None:
        self.disturbance.pop(row, None)


def sequential_observe(sampler: TrrSampler, rows: np.ndarray) -> None:
    """The original per-ACT TRR sampler loop, on a live sampler's state.

    Draws from ``sampler.rng`` exactly as the vectorised
    :meth:`~repro.dram.trr.TrrSampler.observe` does (one ``random(n)``
    batch per non-empty interval), so the two paths stay stream-for-stream
    comparable.
    """
    if rows.size == 0:
        return
    batch = sampler.metrics
    observed = rows
    if sampler.config.sample_prob < 1.0:
        mask = sampler.rng.random(rows.size) < sampler.config.sample_prob
        observed = rows[mask]
        if batch is not None:
            sampler._acts_unsampled += int(rows.size - observed.size)
        if observed.size == 0:
            return
    counts = sampler._counts
    capacity = sampler.config.capacity
    if batch is not None:
        size_before = len(counts)
        total_before = sum(counts.values())
    for row in observed.tolist():
        if row in counts:
            counts[row] += 1
        elif len(counts) < capacity:
            counts[row] = 1
        # else: table full -> activation escapes the sampler entirely.
    if batch is not None:
        inserted = len(counts) - size_before
        bumped = (sum(counts.values()) - total_before) - inserted
        sampler._acts_observed += int(observed.size)
        sampler._rows_inserted += inserted
        sampler._tracked_acts += inserted + bumped


class ReferenceDimm(Dimm):
    """A :class:`Dimm` whose bank loop runs the sequential reference path.

    It overrides the one driver hook, :meth:`Dimm._hammer_locations`, so
    every public call — :meth:`~Dimm.hammer` and
    :meth:`~Dimm.hammer_batch` alike — runs each location on its own
    through :meth:`_hammer_bank` and never touches the vectorised loop.
    """

    def _hammer_locations(
        self,
        banks: list[tuple[int, np.ndarray, np.ndarray]],
        deltas: np.ndarray,
        collect_events: bool,
        disturbance_gain: float,
    ):
        return [
            self._result(
                banks,
                [
                    self._hammer_bank(
                        bank, times, rows + delta, collect_events,
                        disturbance_gain,
                    )
                    for bank, times, rows in banks
                ],
                collect_events,
            )
            for delta in deltas.tolist()
        ]

    def _hammer_bank(
        self,
        bank: int,
        times: np.ndarray,
        rows: np.ndarray,
        collect_events: bool,
        disturbance_gain: float,
    ):
        timing = self.timing
        sampler = TrrSampler(self.trr_config, self.rng.child("trr", bank))
        telemetry = OBS.enabled
        trace_windows = OBS.tracer.enabled and OBS.tracer.detail == "window"
        # Same phase-batched telemetry shape as the vectorised path, so
        # the equivalence cross-check compares identical flush sequences.
        batch = OBS.metrics.batch() if telemetry else None
        if batch is not None:
            sampler.metrics = batch
        windows_total = 0
        acts_per_window: list[int] = []
        state = _SequentialBankState(track_windows=telemetry)
        geometry = self.spec.geometry
        ptrr_rng = self.rng.child("ptrr", bank)
        raa: RaaCounter | None = None
        if self.rfm is not None:
            raa = RaaCounter(
                threshold=self._rfm_threshold
                or self.rfm.raa_initial_threshold,
                rows_refreshed_per_rfm=self.rfm.rows_refreshed_per_rfm,
            )

        t_refi = timing.t_refi
        refs_per_window = timing.refs_per_window
        rows_per_ref = max(1, geometry.rows // refs_per_window)

        n_intervals = int(times[-1] // t_refi) + 1
        boundaries = np.searchsorted(
            times, np.arange(1, n_intervals + 1) * t_refi
        )
        start = 0
        trr_refreshes = 0
        for interval in range(n_intervals):
            stop = int(boundaries[interval])
            chunk = rows[start:stop]
            start = stop
            if chunk.size:
                self._apply_disturbance(
                    state, chunk, geometry, disturbance_gain, interval
                )
                if self.ptrr.enabled:
                    mask = self.ptrr.refresh_mask(chunk.size, ptrr_rng)
                    for aggressor in chunk[mask].tolist():
                        self._refresh_neighbours(state, aggressor, geometry)
                if raa is not None:
                    for row in chunk.tolist():
                        targets = raa.observe(row)
                        if targets:
                            for aggressor in targets:
                                trr_refreshes += 1
                                self._refresh_neighbours(
                                    state, aggressor, geometry
                                )
                sequential_observe(sampler, chunk)
            # REF at the interval end: TRR targeted refreshes...
            ref_targets = sampler.on_ref()
            for aggressor in ref_targets:
                trr_refreshes += 1
                self._refresh_neighbours(state, aggressor, geometry)
            # ... plus this interval's share of the periodic refresh.
            self._periodic_refresh(
                state, interval, rows_per_ref, refs_per_window
            )
            if telemetry:
                windows_total += 1
                acts_per_window.append(int(chunk.size))
                if trace_windows:
                    OBS.tracer.point(
                        "dram.window",
                        bank=bank,
                        window=interval,
                        acts=int(chunk.size),
                        trr_refreshes=len(ref_targets),
                        virtual_ns=t_refi,
                    )

        if collect_events:
            flips: list[FlipEvent] | int = []
            for victim, peak in state.peak.items():
                events = self.cells.flips_for(bank, victim, peak)
                flips.extend(events)
                if batch is not None and events:
                    self._flip_metrics(
                        batch, len(events), state.peak_window.get(victim, 0)
                    )
        else:
            flips = 0
            for victim, peak in state.peak.items():
                count = self.cells.flip_count_for(bank, victim, peak)
                flips += count
                if batch is not None and count:
                    self._flip_metrics(
                        batch, count, state.peak_window.get(victim, 0)
                    )
        if batch is not None:
            sampler.flush_metrics()
            batch.inc("dram.windows_total", windows_total)
            batch.observe_many("dram.acts_per_window", acts_per_window)
            batch.flush()
        return flips, trr_refreshes

    @staticmethod
    def _apply_disturbance(
        state: _SequentialBankState,
        chunk: np.ndarray,
        geometry: DramGeometry,
        gain: float,
        window: int = 0,
    ) -> None:
        aggressors, counts = np.unique(chunk, return_counts=True)
        for aggressor, count in zip(aggressors.tolist(), counts.tolist()):
            for distance, weight in NEIGHBOUR_WEIGHTS.items():
                for victim in (aggressor - distance, aggressor + distance):
                    if geometry.contains_row(victim):
                        state.add(victim, weight * count * gain, window)

    @staticmethod
    def _refresh_neighbours(
        state: _SequentialBankState, aggressor: int, geometry: DramGeometry
    ) -> None:
        for distance in NEIGHBOUR_WEIGHTS:
            for victim in (aggressor - distance, aggressor + distance):
                if geometry.contains_row(victim):
                    state.refresh_row(victim)

    @staticmethod
    def _periodic_refresh(
        state: _SequentialBankState,
        interval: int,
        rows_per_ref: int,
        refs_per_window: int,
    ) -> None:
        slot = interval % refs_per_window
        if not state.disturbance:
            return
        stale = [
            row for row in state.disturbance if (row // rows_per_ref) == slot
        ]
        for row in stale:
            state.refresh_row(row)


def reference_twin(dimm: Dimm) -> ReferenceDimm:
    """A :class:`ReferenceDimm` with ``dimm``'s exact configuration.

    The twin gets a fresh RNG rebuilt from the same (seed, name) root and a
    fresh cell-profile cache, so running it never perturbs ``dimm``.
    """
    return ReferenceDimm(
        spec=dimm.spec,
        timing=dimm.timing,
        trr_config=dimm.trr_config,
        ptrr=dimm.ptrr,
        rng=RngStream(dimm.rng.seed, dimm.rng.name),
        rfm=dimm.rfm,
        rfm_threshold_acts=dimm._rfm_threshold,
    )
