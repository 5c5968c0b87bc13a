"""Sweeping (Section 4.1): replay an effective pattern across locations.

Sweeping simulates the templating phase of a real exploit: the best fuzzed
pattern is applied at many distinct base rows, and flips accumulate over
(virtual) time.  ``SweepReport`` captures the cumulative timeline behind
Figure 11 and the per-minute flip rates the paper headlines (187K / 47K /
995 / 2,291 per minute).

Locations are independent trials, so they fan out over the executor
backend picked by :func:`repro.engine.create_backend`; the Figure 11
time axis is rebuilt from per-location durations in location order,
keeping parallel sweeps bit-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import CalibrationError
from repro.cpu.isa import HammerKernelConfig
from repro.engine import ExperimentSpec, RunBudget, create_backend
from repro.obs import OBS
from repro.patterns.frequency import NonUniformPattern
from repro.system.calibration import SimulationScale
from repro.system.machine import Machine

#: Rows kept clear of each device edge by the swept base rows.
SWEEP_MARGIN_ROWS = 256

#: Least distance between consecutive swept base rows.
SWEEP_MIN_STRIDE = 64


@dataclass(frozen=True)
class SweepReport:
    """Cumulative flips over a sweep of distinct physical locations."""

    base_rows: tuple[int, ...]
    flips_per_location: np.ndarray
    virtual_minutes: np.ndarray  # elapsed virtual time after each location
    notes: tuple[str, ...] = ()

    @property
    def total_flips(self) -> int:
        return int(self.flips_per_location.sum())

    @property
    def cumulative_flips(self) -> np.ndarray:
        return np.cumsum(self.flips_per_location)

    @property
    def flips_per_minute(self) -> float:
        elapsed = float(self.virtual_minutes[-1]) if self.virtual_minutes.size else 0.0
        if elapsed <= 0:
            return 0.0
        return self.total_flips / elapsed

    @property
    def locations_with_flips(self) -> int:
        return int(np.count_nonzero(self.flips_per_location))


@dataclass(frozen=True)
class _LocationResult:
    """Per-location payload sent back through the pool."""

    flips: int
    duration_ns: float


def sweep_pattern(
    machine: Machine,
    config: HammerKernelConfig,
    pattern: NonUniformPattern,
    budget: RunBudget,
    scale: SimulationScale,
    seed_name: str = "sweep",
) -> SweepReport:
    """Apply one pattern at budgeted non-repeating base rows.

    ``budget`` is a :class:`RunBudget` whose trials are sweep locations;
    ``scale`` sets each location's activation budget and the Figure 11
    time axis.  Base rows lie at least :data:`SWEEP_MIN_STRIDE` rows
    apart, :data:`SWEEP_MARGIN_ROWS` rows or more from either device
    edge; a budget of more locations than fit raises
    :class:`CalibrationError` before anything is hammered.
    """
    if not isinstance(budget, RunBudget):
        raise TypeError("sweep_pattern needs a RunBudget")
    num_locations = budget.resolve_trials(scale)
    rows_total = machine.dimm.spec.geometry.rows
    margin = SWEEP_MARGIN_ROWS
    most = (rows_total - 2 * margin) // SWEEP_MIN_STRIDE + 1
    if num_locations > most:
        raise CalibrationError(
            f"a sweep of {num_locations} locations does not fit: at most "
            f"{most} distinct base rows lie {SWEEP_MIN_STRIDE} rows apart "
            f"inside the {margin}-row margins of a {rows_total}-row DIMM"
        )

    spec = ExperimentSpec(
        machine=machine, config=config, scale=scale, seed_name=seed_name
    )
    rng = machine.rng.child(seed_name, config.describe())
    stride = max(
        SWEEP_MIN_STRIDE, (rows_total - 2 * margin) // max(1, num_locations)
    )
    jitter = rng.integers(0, stride // 2, size=num_locations)
    base_rows = (margin + np.arange(num_locations) * stride + jitter).astype(int)
    # Only the last location can pass the top margin; clipped, it still
    # lies above every other base row.
    base_rows = np.clip(base_rows, margin, rows_total - margin)

    acts = scale.acts_per_pattern

    # The intended access stream is base-row independent, so all
    # locations replay one (stream, kernel) pair through the executor.
    # Running it once in the parent fills the shared executor's memo and
    # the spec's shared stream memo (stream and fingerprint) before the
    # pool forks: serial sweeps and every forked worker alike then see
    # pure cache hits and never hash the stream, which also keeps the
    # cache-hit/-miss telemetry identical across worker counts.
    combined, _, fingerprint = spec.session().prepare_stream(pattern, acts)
    machine.executor.execute(combined, config, fingerprint)

    # Locations are dispatched to the pool in chunks; each chunk hammers
    # all its locations in one vectorised multi-location pass
    # (bit-identical to the per-location loop, see run_pattern_batch).
    batch_size = budget.resolve_batch_locations(num_locations)
    row_ints = [int(r) for r in base_rows.tolist()]
    chunks = [
        tuple(row_ints[i:i + batch_size])
        for i in range(0, num_locations, batch_size)
    ]

    def run_chunk(session, rows: tuple[int, ...]) -> list[_LocationResult]:
        outcomes = session.run_pattern_batch(pattern, rows, activations=acts)
        return [
            _LocationResult(o.flip_count, o.duration_ns) for o in outcomes
        ]

    with OBS.tracer.span(
        "sweep.run",
        locations=num_locations,
        workers=budget.workers,
        batch_locations=batch_size,
        seed_name=seed_name,
    ) as span:
        with create_backend(budget) as backend:
            batch = backend.map(run_chunk, chunks, init=spec.session)
        location_results = []
        for chunk_rows, result in zip(chunks, batch.results):
            if result is None:  # whole chunk failed or was skipped
                location_results.extend([None] * len(chunk_rows))
            else:
                location_results.extend(result)

        flips = np.zeros(num_locations, dtype=np.int64)
        minutes = np.zeros(num_locations, dtype=np.float64)
        elapsed_ns = 0.0
        telemetry = OBS.enabled
        for i, result in enumerate(location_results):
            if result is not None:
                flips[i] = result.flips
                # Scale simulated per-location time back up to the paper's
                # per-location activation budget for the Figure 11 time axis.
                elapsed_ns += result.duration_ns * scale.time_compression
            minutes[i] = elapsed_ns / 60e9
            if telemetry and result is not None:
                OBS.metrics.histogram("sweep.flips_per_location").observe(
                    result.flips
                )
                OBS.tracer.point(
                    "sweep.location",
                    index=i,
                    base_row=int(base_rows[i]),
                    flips=int(result.flips),
                    virtual_minutes=float(minutes[i]),
                )
        if telemetry:
            metrics = OBS.metrics
            metrics.counter("sweep.locations_total").inc(num_locations)
            metrics.counter("sweep.flips_total").inc(int(flips.sum()))
        span.set(
            flips=int(flips.sum()),
            virtual_minutes=float(minutes[-1]) if minutes.size else 0.0,
        )
    return SweepReport(
        base_rows=tuple(int(r) for r in base_rows.tolist()),
        flips_per_location=flips,
        virtual_minutes=minutes,
        notes=batch.notes(
            label="location" if batch_size <= 1 else "chunk"
        ),
    )
