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

from repro.cpu.isa import HammerKernelConfig
from repro.dram.cells import FlipEvent
from repro.dram.device import HammerResult
from repro.hammer.multibank import interleave_stream, multibank_addresses
from repro.obs import OBS
from repro.patterns.frequency import NonUniformPattern
from repro.system.machine import Machine

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
    #: Every trial is stretched to cover at least this many refresh
    #: windows of simulated time, so slow and fast kernels see the same
    #: accumulation horizon (a fixed activation count would hand slower
    #: kernels more windows and bias comparisons).
    min_refresh_windows: float = 2.2
    #: Memo of expanded intended streams: the combined (aggressor x bank)
    #: id stream depends only on (pattern layout, iterations, banks) — not
    #: on the base row — so sweep/fuzz trials that replay one pattern at
    #: many locations reuse it instead of re-tiling and re-interleaving.
    #: Bounded LRU of :data:`STREAM_CACHE_SIZE` entries; sessions spawned
    #: from one :class:`~repro.engine.budget.ExperimentSpec` share one
    #: instance so a parent-side prewarm also warms forked workers.
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
        run = partial(
            self._run_pattern,
            pattern, base_row, activations, banks, collect_events,
        )
        if not OBS.enabled:
            return run()
        return self._dispatch(base_row, activations, run)

    def prepare_stream(
        self,
        pattern: NonUniformPattern,
        activations: int,
        banks: tuple[int, ...] | None = None,
    ) -> tuple[np.ndarray, list[int]]:
        """Expand a pattern into its combined intended id stream (memoised).

        Returns ``(combined_ids, target_banks)``.  The stream is
        independent of the base row, so every trial of the same (pattern,
        activation budget, banks) triple shares one read-only array — and,
        downstream, one memoised :meth:`HammerExecutor.execute` result.
        """
        target_banks = list(banks if banks is not None else self.default_banks)
        est_cost = self.machine.executor.throughput.iteration_cost(
            self.config, miss_rate=0.7
        ).total_ns
        window_ns = self.machine.dimm.timing.refresh_window
        needed = int(self.min_refresh_windows * window_ns / est_cost)
        activations = max(activations, needed)
        n_banks = len(target_banks)
        iterations = max(1, activations // (pattern.base_period * n_banks))
        key = (
            pattern.slots.tobytes(),
            int(pattern.base_period),
            iterations,
            n_banks,
        )
        cache = self._stream_cache
        combined = cache.get(key)
        if combined is not None:
            cache.move_to_end(key)
            if OBS.enabled:
                OBS.metrics.counter("hammer.stream_cache.hits").inc()
            return combined, target_banks
        slot_ids = pattern.intended_stream(iterations)
        flat_ids, flat_banks = interleave_stream(slot_ids, n_banks)
        # Combined id: aggressor id x bank lane, so the executor's
        # revisit distances see each (row, bank) line as a distinct
        # cache line.
        combined = flat_ids.astype(np.int64) * n_banks + flat_banks
        combined.setflags(write=False)
        cache[key] = combined
        if len(cache) > STREAM_CACHE_SIZE:
            cache.popitem(last=False)
            if OBS.enabled:
                OBS.metrics.counter("hammer.stream_cache.evictions").inc()
        return combined, target_banks

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
        but the DRAM interval loop runs once for the whole batch: the
        expanded stream and all TRR/pTRR/RFM decisions are base-row
        independent in window coordinates (see :meth:`Dimm.hammer_batch
        <repro.dram.device.Dimm.hammer_batch>`).  One location runs as
        a :meth:`run_pattern` call, and so does every location under
        window-detail tracing or with out-of-range base rows: both need
        exact per-trial ordering (as do non-identity row remappers, which
        the memory controller runs per location).
        """
        rows_list = [int(r) for r in base_rows]
        if len(rows_list) <= 1 or not self._batchable(pattern, rows_list):
            return [
                self.run_pattern(
                    pattern, row, activations, banks, collect_events
                )
                for row in rows_list
            ]
        # Per-location stream preparation: every location performs the
        # same memoised expansion + execution lookups its run_pattern
        # call would, so cache telemetry (hammer.stream_cache.*,
        # cpu.executor.cache_*) matches the per-trial loop exactly.  With
        # the executor memo disabled a lookup would be a full re-run, so
        # one real execution serves all locations (neither path emits
        # cache counters then).
        for _ in rows_list:
            execution, target_banks = self._execute(
                pattern, activations, banks
            )
            if self.machine.executor.cache_size <= 0:
                break
        results = self.machine.controller.execute_acts_batch(
            execution.times_ns,
            self._addresses(pattern, rows_list[0], target_banks, execution),
            np.asarray(rows_list, dtype=np.int64) - rows_list[0],
            collect_events=collect_events,
            disturbance_gain=self.disturbance_gain,
        )
        outcomes = [_outcome(result, execution) for result in results]
        if OBS.enabled:
            for row, outcome in zip(rows_list, outcomes):
                self._dispatch(row, activations, lambda o=outcome: o)
        return outcomes

    def _batchable(
        self, pattern: NonUniformPattern, rows_list: list[int]
    ) -> bool:
        """Session-level batch eligibility (cheap, pre-stream checks).

        Out-of-range rows run per trial so the per-trial loop raises its
        :class:`MappingError` at the same location a serial run would;
        window-detail tracing needs per-trial span nesting.  The
        remapper check lives with the memory controller, which owns it.
        """
        if OBS.tracer.enabled and OBS.tracer.detail == "window":
            return False
        offsets = pattern.aggressor_row_offsets()
        off_lo = int(offsets.min())
        off_hi = int(offsets.max())
        num_rows = self.machine.mapping.num_rows
        return (
            min(rows_list) + off_lo >= 0
            and max(rows_list) + off_hi < num_rows
        )

    def _run_pattern(
        self,
        pattern: NonUniformPattern,
        base_row: int,
        activations: int,
        banks: tuple[int, ...] | None,
        collect_events: bool,
    ) -> PatternOutcome:
        execution, target_banks = self._execute(pattern, activations, banks)
        result = self.machine.controller.execute_acts(
            execution.times_ns,
            self._addresses(pattern, base_row, target_banks, execution),
            collect_events=collect_events,
            disturbance_gain=self.disturbance_gain,
        )
        return _outcome(result, execution)

    def _execute(
        self,
        pattern: NonUniformPattern,
        activations: int,
        banks: tuple[int, ...] | None,
    ):
        """The expanded stream run through the CPU executor (memoised)."""
        combined, target_banks = self.prepare_stream(
            pattern, activations, banks
        )
        execution = self.machine.executor.execute(combined, self.config)
        return execution, target_banks

    def _addresses(
        self,
        pattern: NonUniformPattern,
        base_row: int,
        target_banks: list[int],
        execution,
    ) -> np.ndarray:
        """The physical address of every executed access at ``base_row``."""
        addr_table = multibank_addresses(
            self.machine.mapping,
            pattern.aggressor_row_offsets(),
            base_row,
            target_banks,
        )
        flat_addrs = addr_table.reshape(-1)  # index = agg_id * n_banks + lane
        return flat_addrs[execution.address_ids]

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
