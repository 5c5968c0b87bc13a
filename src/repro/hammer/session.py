"""One hammer session: pattern x location x kernel -> bit flips.

The composition point of the whole simulator.  For each trial:

1. the pattern's slot stream is expanded over the requested activation
   budget and bank interleave (``multibank``),
2. the CPU executor applies speculation (drops + reordering) and assigns
   issue timestamps (``cpu.executor``),
3. surviving accesses are translated and run against the DIMM's TRR and
   cell models (``memctrl`` / ``dram``), yielding flips.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.cpu.executor import stream_fingerprint
from repro.cpu.isa import HammerKernelConfig
from repro.dram.cells import FlipEvent
from repro.dram.device import HammerResult
from repro.hammer.multibank import interleave_stream, multibank_addresses
from repro.obs import OBS
from repro.patterns.frequency import NonUniformPattern
from repro.system.machine import Machine

#: Every trial is stretched to cover at least this many refresh windows
#: of simulated time, so slow and fast kernels see the same accumulation
#: horizon (a fixed activation count would hand slower kernels more
#: windows and bias comparisons).
MIN_REFRESH_WINDOWS = 2.2

#: Bounded size of the per-session expanded-stream memo.  Mirrors the
#: executor memo: an LRU (move-to-end on hit, evict oldest) instead of
#: the old clear-everything-at-capacity behaviour, so a fuzzing loop
#: cycling through nine patterns no longer drops all eight hot entries.
STREAM_CACHE_SIZE = 8


@dataclass(frozen=True)
class PatternOutcome:
    """Result of hammering one pattern at one physical location."""

    flips: tuple[FlipEvent, ...]
    flip_count: int
    cache_miss_rate: float
    duration_ns: float
    acts_issued: int
    acts_executed: int
    disorder_window: float

    @property
    def activation_rate_per_sec(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.acts_executed / (self.duration_ns * 1e-9)


@dataclass
class HammerSession:
    """Executes patterns on one machine with one kernel configuration.

    ``disturbance_gain`` carries the simulation scale: a campaign running
    1/N of the paper's per-pattern activations sets it to N so each
    simulated ACT deposits N activations' worth of disturbance.
    """

    machine: Machine
    config: HammerKernelConfig
    default_banks: tuple[int, ...] = (0,)
    disturbance_gain: float = 1.0
    #: Memo of expanded intended streams: the combined (aggressor x bank)
    #: id stream depends only on (pattern layout, iterations, banks) — not
    #: on the base row — so sweep/fuzz trials that replay one pattern at
    #: many locations reuse it instead of re-tiling and re-interleaving.
    #: Each entry also holds the stream's executor-memo fingerprint,
    #: computed once when the stream is built.  Bounded LRU of
    #: :data:`STREAM_CACHE_SIZE` entries; sessions spawned from one
    #: :class:`~repro.engine.budget.ExperimentSpec` share one instance
    #: so a parent-side prewarm also warms forked workers.
    _stream_cache: OrderedDict = field(
        default_factory=OrderedDict, repr=False
    )

    def __post_init__(self) -> None:
        if self.config.num_banks != len(self.default_banks):
            self.default_banks = tuple(range(self.config.num_banks))

    # ------------------------------------------------------------------
    def run_pattern(
        self,
        pattern: NonUniformPattern,
        base_row: int,
        activations: int,
        banks: tuple[int, ...] | None = None,
        collect_events: bool = False,
    ) -> PatternOutcome:
        """Hammer ``pattern`` at ``base_row`` for ~``activations`` accesses."""
        return self._hammer(
            pattern, [int(base_row)], activations, banks, collect_events
        )[0]

    def prepare_stream(
        self,
        pattern: NonUniformPattern,
        activations: int,
        banks: tuple[int, ...] | None = None,
    ) -> tuple[np.ndarray, list[int], bytes]:
        """Expand a pattern into its combined intended id stream (memoised).

        Returns ``(combined_ids, target_banks, fingerprint)``.  The stream
        is independent of the base row, so every trial of the same
        (pattern, activation budget, banks) triple shares one read-only
        array — and, downstream, one memoised
        :meth:`HammerExecutor.execute` result, looked up by
        ``fingerprint`` (:func:`~repro.cpu.executor.stream_fingerprint`
        of the stream) without re-hashing it.
        """
        target_banks = list(banks if banks is not None else self.default_banks)
        activations = stretched_activations(
            self.machine, self.config, activations
        )
        n_banks = len(target_banks)
        iterations = max(1, activations // (pattern.base_period * n_banks))
        key = (
            pattern.slots.tobytes(),
            int(pattern.base_period),
            iterations,
            n_banks,
        )
        cache = self._stream_cache
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
            if OBS.enabled:
                OBS.metrics.counter("hammer.stream_cache.hits").inc()
            return entry[0], target_banks, entry[1]
        slot_ids = pattern.intended_stream(iterations)
        flat_ids, flat_banks = interleave_stream(slot_ids, n_banks)
        # Combined id: aggressor id x bank lane, so the executor's
        # revisit distances see each (row, bank) line as a distinct
        # cache line.
        combined = flat_ids.astype(np.int64) * n_banks + flat_banks
        combined.setflags(write=False)
        fingerprint = stream_fingerprint(combined)
        cache[key] = (combined, fingerprint)
        if len(cache) > STREAM_CACHE_SIZE:
            cache.popitem(last=False)
            if OBS.enabled:
                OBS.metrics.counter("hammer.stream_cache.evictions").inc()
        return combined, target_banks, fingerprint

    # ------------------------------------------------------------------
    def run_pattern_batch(
        self,
        pattern: NonUniformPattern,
        base_rows,
        activations: int,
        banks: tuple[int, ...] | None = None,
        collect_events: bool = False,
    ) -> list[PatternOutcome]:
        """Hammer ``pattern`` at every base row of ``base_rows`` at once.

        Bit-identical — outcomes, flip events, spans and every OBS
        metric — to ``[run_pattern(pattern, r, ...) for r in base_rows]``,
        but the DRAM model plays the stream once for the whole batch: the
        expanded stream and all TRR/pTRR/RFM decisions are base-row
        independent in window coordinates (see :meth:`Dimm.hammer_batch
        <repro.dram.device.Dimm.hammer_batch>`).
        """
        return self._hammer(
            pattern, [int(r) for r in base_rows], activations, banks,
            collect_events,
        )

    def _hammer(
        self,
        pattern: NonUniformPattern,
        rows: list[int],
        activations: int,
        banks: tuple[int, ...] | None,
        collect_events: bool,
    ) -> list[PatternOutcome]:
        """The one hammer path behind :meth:`run_pattern` and
        :meth:`run_pattern_batch` (neither calls the other, so wrappers
        around them by name never nest).

        A lone row runs inside its own ``hammer.pattern`` span, and so
        does every row under window-detail tracing, whose per-window
        points need that span as their parent.  More rows share one
        memory-controller pass and emit their spans after it.
        """
        if not rows:
            return []
        run = partial(self._pass, pattern, activations, banks, collect_events)
        if not OBS.enabled:
            return run(rows)
        tracer = OBS.tracer
        if len(rows) == 1 or (tracer.enabled and tracer.detail == "window"):
            return [
                self._dispatch(row, activations, lambda r=row: run([r])[0])
                for row in rows
            ]
        outcomes = run(rows)
        for row, outcome in zip(rows, outcomes):
            self._dispatch(row, activations, lambda o=outcome: o)
        return outcomes

    def _pass(
        self,
        pattern: NonUniformPattern,
        activations: int,
        banks: tuple[int, ...] | None,
        collect_events: bool,
        rows: list[int],
    ) -> list[PatternOutcome]:
        """One memory-controller call hammering ``pattern`` at ``rows``."""
        # One stream and executor lookup per row, so cache telemetry
        # (hammer.stream_cache.*, cpu.executor.cache_*) does not depend on
        # how rows are grouped.  With the executor memo disabled a lookup
        # would be a full re-run, so one execution serves every row.
        executor = self.machine.executor
        execution = None
        for _ in rows:
            combined, target_banks, fingerprint = self.prepare_stream(
                pattern, activations, banks
            )
            if execution is None or executor.cache_size > 0:
                execution = executor.execute(
                    combined, self.config, fingerprint
                )
        # Address index = aggressor id * n_banks + bank lane.
        offsets = pattern.aggressor_row_offsets()
        addresses = multibank_addresses(
            self.machine.mapping, offsets, rows[0], target_banks
        ).reshape(-1)[execution.address_ids]
        # The executor-memo key names the realised stream; the banks and
        # aggressor offsets make its addresses a function of the base row.
        stream_key = (
            fingerprint,
            int(combined.size),
            self.config,
            tuple(target_banks),
            offsets.tobytes(),
        )
        results = self.machine.controller.execute_acts_batch(
            execution.times_ns,
            addresses,
            np.asarray(rows, dtype=np.int64) - rows[0],
            collect_events=collect_events,
            disturbance_gain=self.disturbance_gain,
            stream_key=stream_key,
        )
        return [_outcome(result, execution) for result in results]

    @staticmethod
    def _dispatch(base_row: int, activations: int, run) -> PatternOutcome:
        """One location's ``hammer.pattern`` span and dispatch metrics.

        ``run()`` returns the location's outcome, inside the span.
        """
        with OBS.tracer.span(
            "hammer.pattern", base_row=base_row, acts_requested=activations
        ) as span:
            outcome = run()
            span.set(
                flips=outcome.flip_count,
                acts_executed=outcome.acts_executed,
                virtual_ns=outcome.duration_ns,
            )
        metrics = OBS.metrics
        metrics.counter("hammer.dispatches").inc()
        metrics.counter("hammer.acts_issued").inc(outcome.acts_issued)
        metrics.counter("hammer.acts_executed").inc(outcome.acts_executed)
        metrics.histogram("hammer.effective_act_rate_per_sec").observe(
            outcome.activation_rate_per_sec
        )
        metrics.histogram(
            "hammer.cache_miss_rate",
            buckets=tuple(i / 20 for i in range(1, 21)),
        ).observe(outcome.cache_miss_rate)
        return outcome


def stretched_activations(
    machine: Machine, config: HammerKernelConfig, activations: int
) -> int:
    """``activations``, raised to span :data:`MIN_REFRESH_WINDOWS`.

    The one definition of a trial's horizon, for every session.  The
    kernel's time per access is estimated at a 70% miss rate, so the
    stretch depends only on the machine and the kernel.
    """
    est_cost = machine.executor.throughput.iteration_cost(
        config, miss_rate=0.7
    ).total_ns
    window_ns = machine.dimm.timing.refresh_window
    return max(activations, int(MIN_REFRESH_WINDOWS * window_ns / est_cost))


def _outcome(result: HammerResult, execution) -> PatternOutcome:
    """One location's outcome: its DRAM result plus the shared execution."""
    return PatternOutcome(
        flips=result.flips,
        flip_count=result.flip_count,
        cache_miss_rate=execution.miss_rate,
        duration_ns=execution.duration_ns,
        acts_issued=execution.issued,
        acts_executed=execution.survivors,
        disorder_window=execution.window,
    )
