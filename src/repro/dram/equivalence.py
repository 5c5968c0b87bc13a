"""Cross-checking the vectorised DRAM hot path against the reference.

:class:`~repro.dram.device.Dimm` runs a fully vectorised bank loop;
:class:`~repro.dram.reference.ReferenceDimm` preserves the original
per-row / per-ACT implementation.  :func:`cross_check` runs the *same*
workload, at one or many base-row-shifted locations, through three
freshly-built twins and demands bit-identical outcomes:

* the batched twin (:meth:`Dimm.hammer_batch
  <repro.dram.device.Dimm.hammer_batch>`) and the per-location twin (one
  :meth:`Dimm.hammer <repro.dram.device.Dimm.hammer>` call per location)
  must agree on *everything*, flip-event emission order included;
* the reference twin emits events in a different documented order, so its
  flips are compared as sorted ``(bank, row, bit, direction)`` multisets;
* per location: ``flip_count``, ``trr_refreshes``, ``acts_executed`` and
  ``duration_ns``;
* and the full OBS metrics snapshot of each twin (counters, gauges and
  histograms recorded while telemetry is enabled), which pins down the
  shared telemetry semantics — e.g. the TRR sampler's inserted/hit/escaped
  accounting — not just the end result.

``cross_check`` is used by the equivalence test suite
(``tests/test_dram_equivalence.py``) across patterns x TRR vendor
profiles x pTRR x RFM x base rows, and by the ``dram`` microbench in
:mod:`repro.obs.bench`, which times the vectorised and reference paths on
one workload.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from repro.common.rng import RngStream, derive_seed
from repro.dram.device import Dimm, HammerResult
from repro.dram.reference import reference_twin
from repro.obs import OBS, telemetry_session

#: Per-location outcome fields every twin must agree on.
_FIELDS = ("flip_count", "flips", "trr_refreshes", "acts_executed",
           "duration_ns")


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
    """Everything one twin's run observably produced."""

    locations: tuple[HammerResult, ...]
    metrics: dict


@dataclass(frozen=True)
class CrossCheck:
    """Batched vs per-location vs reference, on one shifted workload."""

    batched: PathTrace
    serial: PathTrace
    reference: PathTrace
    mismatches: tuple[str, ...]

    @property
    def identical(self) -> bool:
        return not self.mismatches


def _run_twin(
    device: Dimm,
    bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
    deltas: np.ndarray,
    disturbance_gain: float,
    collect_events: bool,
    batched: bool,
) -> PathTrace:
    """Hammer every location under a fresh metrics session, record all.

    The caller must pass a freshly-built device (see :func:`vector_twin` /
    :func:`~repro.dram.reference.reference_twin`): a warm cell-profile
    cache would not change results, but a consumed RNG stream would.
    """
    with telemetry_session(metrics=True):
        if batched:
            results = device.hammer_batch(
                bank_streams,
                deltas,
                collect_events=collect_events,
                disturbance_gain=disturbance_gain,
            )
        else:
            results = [
                device.hammer(
                    {
                        bank: (times, rows + delta)
                        for bank, (times, rows) in bank_streams.items()
                    },
                    collect_events=collect_events,
                    disturbance_gain=disturbance_gain,
                )
                for delta in deltas.tolist()
            ]
        snapshot = OBS.metrics.snapshot()
    return PathTrace(locations=tuple(results), metrics=snapshot)


def cross_check(
    dimm: Dimm,
    bank_streams: dict[int, tuple[np.ndarray, np.ndarray]],
    row_deltas=(0,),
    disturbance_gain: float = 1.0,
    collect_events: bool = True,
) -> CrossCheck:
    """Prove batched == per-location == reference for one workload.

    Location ``i`` hammers ``bank_streams`` with every row shifted by
    ``row_deltas[i]``; the default is the one unshifted location.  Three
    fresh twins run it: the vectorised device through
    :meth:`~repro.dram.device.Dimm.hammer_batch`, the vectorised device
    through one :meth:`~repro.dram.device.Dimm.hammer` call per location,
    and the :class:`~repro.dram.reference.ReferenceDimm` through the same
    per-location calls.  Every location's observables and the full OBS
    metric snapshots must agree.
    """
    deltas = np.ascontiguousarray(np.asarray(row_deltas, dtype=np.int64))
    args = (bank_streams, deltas, disturbance_gain, collect_events)
    batched = _run_twin(vector_twin(dimm), *args, batched=True)
    serial = _run_twin(vector_twin(dimm), *args, batched=False)
    reference = _run_twin(reference_twin(dimm), *args, batched=False)
    mismatches = _diff(batched, serial, "serial", sort_flips=False)
    mismatches += _diff(batched, reference, "reference", sort_flips=True)
    return CrossCheck(
        batched=batched,
        serial=serial,
        reference=reference,
        mismatches=tuple(mismatches),
    )


def _diff(
    batched: PathTrace, other: PathTrace, name: str, sort_flips: bool
) -> list[str]:
    """Every difference of ``other`` from the batched twin, readably."""
    out: list[str] = []
    if len(other.locations) != len(batched.locations):
        out.append(
            f"{name}: {len(other.locations)} locations, batched ran "
            f"{len(batched.locations)}"
        )
    for i, (bat, oth) in enumerate(zip(batched.locations, other.locations)):
        for field_name in _FIELDS:
            a, b = getattr(bat, field_name), getattr(oth, field_name)
            if sort_flips and field_name == "flips":
                a, b = sorted(a, key=astuple), sorted(b, key=astuple)
            if a != b:
                out.append(
                    f"location {i} {field_name}: batched={a!r} {name}={b!r}"
                )
    for section in ("counters", "gauges", "histograms"):
        a = batched.metrics.get(section, {})
        b = other.metrics.get(section, {})
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                out.append(
                    f"metrics.{section}[{key}]: batched={a.get(key)!r} "
                    f"{name}={b.get(key)!r}"
                )
    return out


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
