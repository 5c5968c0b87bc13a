"""Cross-checking the vectorised DRAM hot path against the reference.

:class:`~repro.dram.device.Dimm` runs a fully vectorised bank loop;
:class:`~repro.dram.reference.ReferenceDimm` preserves the original
per-row / per-ACT implementation.  This module runs the *same* workload
through both on freshly-built twins and demands bit-identical outcomes:

* the flip-event multiset (compared as sorted ``(bank, row, bit,
  direction)`` keys — the two paths emit events in different but
  documented orders),
* ``flip_count``, ``trr_refreshes``, ``acts_executed``, ``duration_ns``,
* and the full OBS metrics snapshot (counters, gauges and histograms
  recorded while telemetry is enabled), which pins down the shared
  telemetry semantics — e.g. the TRR sampler's inserted/hit/escaped
  accounting — not just the end result.

``cross_check`` is used by the equivalence test suite
(``tests/test_dram_equivalence.py``) across patterns x TRR vendor
profiles x pTRR x RFM, and by the ``dram`` microbench in
:mod:`repro.obs.bench`, which times both paths on one workload and gates
the recorded speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.common.rng import RngStream, derive_seed
from repro.dram.device import Dimm
from repro.dram.reference import ReferenceDimm, reference_twin
from repro.obs import OBS, telemetry_session

#: Sorted flip-event key: the event multiset modulo emission order.
FlipKey = tuple[int, int, int, int]


def vector_twin(dimm: Dimm) -> Dimm:
    """A fresh vectorised :class:`Dimm` with ``dimm``'s configuration.

    Like :func:`~repro.dram.reference.reference_twin` the twin gets its
    own RNG (rebuilt from the same root) and cell-profile cache, so a
    cross-check never perturbs — and is never perturbed by — prior use
    of ``dimm``.
    """
    return Dimm(
        spec=dimm.spec,
        timing=dimm.timing,
        trr_config=dimm.trr_config,
        ptrr=dimm.ptrr,
        rng=RngStream(dimm.rng.seed, dimm.rng.name),
        rfm=dimm.rfm,
        rfm_threshold_acts=dimm._rfm_threshold,
    )


@dataclass(frozen=True)
class PathTrace:
    """Everything one path's run observably produced."""

    flip_count: int
    flip_keys: tuple[FlipKey, ...]
    trr_refreshes: int
    acts_executed: int
    duration_ns: float
    metrics: dict
    elapsed_s: float  # host wall time, for speedup accounting only


@dataclass(frozen=True)
class CrossCheck:
    """Outcome of one vectorised-vs-reference comparison."""

    vectorised: PathTrace
    reference: PathTrace
    mismatches: tuple[str, ...]

    @property
    def identical(self) -> bool:
        return not self.mismatches

    @property
    def speedup(self) -> float:
        if self.vectorised.elapsed_s <= 0:
            return 0.0
        return self.reference.elapsed_s / self.vectorised.elapsed_s


def run_path(
    device: Dimm,
    bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
    disturbance_gain: float = 1.0,
    collect_events: bool = True,
) -> PathTrace:
    """Hammer ``bank_streams`` under a fresh metrics session and record all.

    The caller must pass a freshly-built device (see :func:`vector_twin` /
    :func:`~repro.dram.reference.reference_twin`): a warm cell-profile
    cache would not change results, but a consumed RNG stream would.
    """
    with telemetry_session(metrics=True):
        start = time.perf_counter()
        result = device.hammer(
            bank_streams,
            collect_events=collect_events,
            disturbance_gain=disturbance_gain,
        )
        elapsed = time.perf_counter() - start
        snapshot = OBS.metrics.snapshot()
    keys = tuple(
        sorted(
            (f.bank, f.row, f.bit_index, f.direction) for f in result.flips
        )
    )
    return PathTrace(
        flip_count=result.flip_count,
        flip_keys=keys,
        trr_refreshes=result.trr_refreshes,
        acts_executed=result.acts_executed,
        duration_ns=result.duration_ns,
        metrics=snapshot,
        elapsed_s=elapsed,
    )


def cross_check(
    dimm: Dimm,
    bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
    disturbance_gain: float = 1.0,
    collect_events: bool = True,
) -> CrossCheck:
    """Run one workload through both paths and diff every observable."""
    vec = run_path(
        vector_twin(dimm), bank_streams, disturbance_gain, collect_events
    )
    ref = run_path(
        reference_twin(dimm), bank_streams, disturbance_gain, collect_events
    )
    mismatches: list[str] = []
    for field_name in (
        "flip_count",
        "flip_keys",
        "trr_refreshes",
        "acts_executed",
        "duration_ns",
    ):
        a, b = getattr(vec, field_name), getattr(ref, field_name)
        if a != b:
            mismatches.append(f"{field_name}: vectorised={a!r} reference={b!r}")
    if vec.metrics != ref.metrics:
        mismatches.extend(_diff_metrics(vec.metrics, ref.metrics))
    return CrossCheck(
        vectorised=vec, reference=ref, mismatches=tuple(mismatches)
    )


def _diff_metrics(vec: dict, ref: dict) -> list[str]:
    """Per-instrument diff of two metric snapshots, for readable failures."""
    out: list[str] = []
    for section in ("counters", "gauges", "histograms"):
        a, b = vec.get(section, {}), ref.get(section, {})
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                out.append(
                    f"metrics.{section}[{key}]: "
                    f"vectorised={a.get(key)!r} reference={b.get(key)!r}"
                )
    return out


# ----------------------------------------------------------------------
# Batched multi-location execution vs per-trial vs reference.

@dataclass(frozen=True)
class LocationTrace:
    """One location's observable outcome within a multi-location run."""

    flip_count: int
    flip_keys: tuple[FlipKey, ...]  # in emission order, not sorted
    trr_refreshes: int
    acts_executed: int
    duration_ns: float


@dataclass(frozen=True)
class BatchTrace:
    """Everything one path's multi-location run observably produced."""

    per_location: tuple[LocationTrace, ...]
    metrics: dict
    elapsed_s: float  # host wall time, for speedup accounting only


@dataclass(frozen=True)
class BatchCrossCheck:
    """Batched vs serial-per-trial vs reference, on one shifted workload.

    ``batched`` and ``serial`` both run the vectorised
    :class:`~repro.dram.device.Dimm` and must agree on *everything*,
    flip-event emission order included; ``reference`` replays the same
    per-location streams through :class:`ReferenceDimm`, which emits
    events in a different documented order, so its flips are compared as
    sorted multisets (exactly like :func:`cross_check`).
    """

    batched: BatchTrace
    serial: BatchTrace
    reference: BatchTrace
    #: Whether the batched device path actually engaged (False means
    #: ``hammer_batch`` fell back to the per-trial loop — the comparison
    #: still holds but proves nothing new).
    batch_supported: bool
    batch_unsupported_reason: str
    mismatches: tuple[str, ...]

    @property
    def identical(self) -> bool:
        return not self.mismatches

    @property
    def speedup(self) -> float:
        """Serial-per-trial wall time over batched wall time."""
        if self.batched.elapsed_s <= 0:
            return 0.0
        return self.serial.elapsed_s / self.batched.elapsed_s


def _shifted_streams(
    bank_streams: dict[int, tuple[np.ndarray, np.ndarray]], delta: int
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    return {
        bank: (times, rows + delta)
        for bank, (times, rows) in bank_streams.items()
    }


def _location_trace(result, *, sort_keys: bool) -> LocationTrace:
    keys = [
        (f.bank, f.row, f.bit_index, f.direction) for f in result.flips
    ]
    if sort_keys:
        keys.sort()
    return LocationTrace(
        flip_count=result.flip_count,
        flip_keys=tuple(keys),
        trr_refreshes=result.trr_refreshes,
        acts_executed=result.acts_executed,
        duration_ns=result.duration_ns,
    )


def batch_cross_check(
    dimm: Dimm,
    bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
    row_deltas,
    disturbance_gain: float = 1.0,
    collect_events: bool = True,
) -> BatchCrossCheck:
    """Prove batched == per-trial == reference for one shifted workload.

    Location ``i`` hammers ``bank_streams`` with every row shifted by
    ``row_deltas[i]``.  Three fresh twins run it: the vectorised device
    through :meth:`Dimm.hammer_batch <repro.dram.device.Dimm.hammer_batch>`
    (one interval pass for all locations), the vectorised device through
    a serial per-location :meth:`Dimm.hammer
    <repro.dram.device.Dimm.hammer>` loop, and the
    :class:`ReferenceDimm` through the same serial loop.  All per-location
    observables and the full OBS metric snapshots must agree.
    """
    deltas = np.ascontiguousarray(np.asarray(row_deltas, dtype=np.int64))

    batched_dev = vector_twin(dimm)
    supported, reason = batched_dev.batch_supported(bank_streams, deltas)
    with telemetry_session(metrics=True):
        start = time.perf_counter()
        batched_results = batched_dev.hammer_batch(
            bank_streams,
            deltas,
            collect_events=collect_events,
            disturbance_gain=disturbance_gain,
        )
        batched_elapsed = time.perf_counter() - start
        batched_metrics = OBS.metrics.snapshot()
    batched = BatchTrace(
        per_location=tuple(
            _location_trace(r, sort_keys=False) for r in batched_results
        ),
        metrics=batched_metrics,
        elapsed_s=batched_elapsed,
    )

    serial_dev = vector_twin(dimm)
    with telemetry_session(metrics=True):
        start = time.perf_counter()
        serial_results = [
            serial_dev.hammer(
                _shifted_streams(bank_streams, delta),
                collect_events=collect_events,
                disturbance_gain=disturbance_gain,
            )
            for delta in deltas.tolist()
        ]
        serial_elapsed = time.perf_counter() - start
        serial_metrics = OBS.metrics.snapshot()
    serial = BatchTrace(
        per_location=tuple(
            _location_trace(r, sort_keys=False) for r in serial_results
        ),
        metrics=serial_metrics,
        elapsed_s=serial_elapsed,
    )

    ref_dev = reference_twin(dimm)
    with telemetry_session(metrics=True):
        start = time.perf_counter()
        ref_results = [
            ref_dev.hammer(
                _shifted_streams(bank_streams, delta),
                collect_events=collect_events,
                disturbance_gain=disturbance_gain,
            )
            for delta in deltas.tolist()
        ]
        ref_elapsed = time.perf_counter() - start
        ref_metrics = OBS.metrics.snapshot()
    reference = BatchTrace(
        per_location=tuple(
            _location_trace(r, sort_keys=True) for r in ref_results
        ),
        metrics=ref_metrics,
        elapsed_s=ref_elapsed,
    )

    mismatches: list[str] = []
    n = len(deltas)
    for trace, name in ((serial, "serial"), (reference, "reference")):
        if len(trace.per_location) != n:
            mismatches.append(
                f"{name}: {len(trace.per_location)} locations, expected {n}"
            )
    for i in range(n):
        bat = batched.per_location[i]
        ser = serial.per_location[i]
        for field_name in (
            "flip_count",
            "flip_keys",
            "trr_refreshes",
            "acts_executed",
            "duration_ns",
        ):
            a, b = getattr(bat, field_name), getattr(ser, field_name)
            if a != b:
                mismatches.append(
                    f"location {i} {field_name}: batched={a!r} serial={b!r}"
                )
        ref = reference.per_location[i]
        if tuple(sorted(bat.flip_keys)) != ref.flip_keys:
            mismatches.append(
                f"location {i} flip_keys: batched(sorted)="
                f"{tuple(sorted(bat.flip_keys))!r} reference={ref.flip_keys!r}"
            )
        for field_name in (
            "flip_count",
            "trr_refreshes",
            "acts_executed",
            "duration_ns",
        ):
            a, b = getattr(bat, field_name), getattr(ref, field_name)
            if a != b:
                mismatches.append(
                    f"location {i} {field_name}: batched={a!r} reference={b!r}"
                )
    if batched.metrics != serial.metrics:
        mismatches.extend(
            f"batched-vs-serial {m}"
            for m in _diff_metrics(batched.metrics, serial.metrics)
        )
    if batched.metrics != reference.metrics:
        mismatches.extend(
            f"batched-vs-reference {m}"
            for m in _diff_metrics(batched.metrics, reference.metrics)
        )
    return BatchCrossCheck(
        batched=batched,
        serial=serial,
        reference=reference,
        batch_supported=supported,
        batch_unsupported_reason=reason,
        mismatches=tuple(mismatches),
    )


# ----------------------------------------------------------------------
# Workload synthesis shared by the equivalence tests and the dram bench.

#: ``"gappy"`` workloads: ACTs per burst, and idle tREFI after each.
GAPPY_BURST = 700
GAPPY_GAP_REFI = 2.5


def synthetic_workload(
    dimm: Dimm,
    acts_per_bank: int,
    banks: int = 2,
    seed: int = 0,
    kind: str = "mixed",
    act_spacing_ns: float = 9.0,
    region_rows: int = 4096,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """A deterministic multi-bank hammer stream exercising every code path.

    ``kind`` picks the aggressor-row distribution:

    * ``"double_sided"`` — two aggressors sandwiching one victim, the
      classic pattern (tiny victim window, heavy per-row repetition);
    * ``"many_sided"`` — a 12-row aggressor comb (TRR-capacity pressure);
    * ``"random"`` — uniform rows over a ``region_rows``-row region
      (sparse window, cold cell-profile cache, RFM table churn);
    * ``"mixed"`` — interleaves all three regimes in one stream;
    * ``"gappy"`` — ``"mixed"`` rows in bursts of :data:`GAPPY_BURST`
      ACTs, each followed by an idle gap of :data:`GAPPY_GAP_REFI` tREFI,
      so the stream has intervals without ACTs;
    * ``"scattered"`` — twelve aggressors at random rows over the whole
      bank (a window wider than one interval plan block, as under the
      row remappers).

    Activations are evenly spaced ``act_spacing_ns`` apart so a stream of
    ``acts_per_bank`` ACTs spans multiple refresh intervals.
    """
    geometry_rows = dimm.spec.geometry.rows
    streams: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for bank in range(banks):
        rng = np.random.default_rng(
            derive_seed(0xE0, "equivalence", kind, seed, bank)
        )
        base = 512 + int(rng.integers(0, geometry_rows // 2))
        double = np.array([base, base + 2], dtype=np.int64)
        comb = base + 64 + 2 * np.arange(12, dtype=np.int64)
        region = np.arange(
            base, min(base + region_rows, geometry_rows - 4), dtype=np.int64
        )
        if kind == "double_sided":
            rows = double[rng.integers(0, double.size, acts_per_bank)]
        elif kind == "many_sided":
            rows = comb[rng.integers(0, comb.size, acts_per_bank)]
        elif kind == "random":
            rows = region[rng.integers(0, region.size, acts_per_bank)]
        elif kind == "scattered":
            spread = rng.choice(geometry_rows - 4, 12, replace=False) + 2
            rows = spread[rng.integers(0, spread.size, acts_per_bank)]
        elif kind in ("mixed", "gappy"):
            thirds = acts_per_bank // 3
            rows = np.concatenate(
                [
                    double[rng.integers(0, double.size, thirds)],
                    comb[rng.integers(0, comb.size, thirds)],
                    region[
                        rng.integers(0, region.size, acts_per_bank - 2 * thirds)
                    ],
                ]
            )
            rng.shuffle(rows)
        else:
            raise ValueError(f"unknown workload kind: {kind!r}")
        times = (np.arange(acts_per_bank, dtype=np.float64) + 1.0) * (
            act_spacing_ns
        )
        if kind == "gappy":
            bursts = np.arange(acts_per_bank) // GAPPY_BURST
            times += bursts * (GAPPY_GAP_REFI * dimm.timing.t_refi)
        streams[bank] = (times, rows.astype(np.int64))
    return streams
