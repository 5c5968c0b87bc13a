"""Pattern fuzzing (Section 4.1): hunt for TRR-bypassing patterns.

The fuzzer generates pseudo-random, unique non-uniform patterns and trials
each at a few physical locations; a pattern is *effective* if any trial
flips a bit, and the *best pattern* is the one with the most flips.  The
campaign totals reproduce Table 6 / Figure 9, with the simulation scale
translating the paper's 2-hour wall-clock budget into a pattern count.

Campaigns execute on the executor backend picked by
:func:`repro.engine.create_backend`: pattern generation stays serial (it
is cheap and preserves the fuzzer's RNG draw order), the expensive trials
fan out over workers, and aggregation walks results in pattern order — so
a parallel campaign is bit-identical to a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.rng import RngStream
from repro.cpu.isa import HammerKernelConfig
from repro.engine import ExperimentSpec, RunBudget, create_backend
from repro.obs import OBS
from repro.patterns.frequency import AggressorPair, NonUniformPattern, lay_out_pattern
from repro.system.calibration import SimulationScale
from repro.system.machine import Machine

#: Frequency choices are powers of two so occupations divide the period.
_FREQUENCIES = (1, 2, 4, 8, 16)
_AMPLITUDES = (1, 1, 2, 2, 3, 4)
_BASE_PERIODS = (64, 128, 256)

#: The paper's conventional fuzzing budget (2 wall-clock hours).
DEFAULT_CAMPAIGN_HOURS = 2.0


@dataclass(frozen=True)
class FuzzingReport:
    """Aggregate outcome of one fuzzing campaign (one Table 6 cell)."""

    total_flips: int
    best_pattern_flips: int
    best_pattern: NonUniformPattern | None
    effective_patterns: int
    patterns_tried: int
    mean_miss_rate: float
    notes: tuple[str, ...] = ()

    def as_table6_cell(self) -> str:
        return f"{self.total_flips}, {self.best_pattern_flips}"


@dataclass
class PatternFuzzer:
    """Generates random frequency-domain patterns."""

    rng: RngStream
    max_pairs: int = 10
    min_pairs: int = 3
    row_span: int = 48  # aggressors live within this many rows of the base

    def generate(self) -> NonUniformPattern:
        """One pseudo-random non-uniform pattern."""
        rng = self.rng
        base_period = int(rng.choice(_BASE_PERIODS))
        num_pairs = int(rng.integers(self.min_pairs, self.max_pairs + 1))
        offsets = self._pair_offsets(num_pairs)
        pairs = []
        for pair_id in range(num_pairs):
            pairs.append(
                AggressorPair(
                    pair_id=pair_id,
                    row_offset=offsets[pair_id],
                    frequency=int(rng.choice(_FREQUENCIES)),
                    phase=int(rng.integers(0, base_period)),
                    amplitude=int(rng.choice(_AMPLITUDES)),
                )
            )
        # Each pair joins the filler rotation with probability 0.7; which
        # pairs stay out of it is part of the searched pattern space (it
        # decides who looks "cold" to a counting sampler).
        fillers = [p.pair_id for p in pairs if rng.random() < 0.7]
        return lay_out_pattern(pairs, base_period, filler_pair_ids=fillers or None)

    def _pair_offsets(self, num_pairs: int) -> list[int]:
        """Non-overlapping double-sided pair placements near the base row."""
        offsets: list[int] = []
        cursor = 0
        for _ in range(num_pairs):
            cursor += int(self.rng.integers(0, max(2, self.row_span // num_pairs)))
            offsets.append(cursor)
            cursor += 4  # pair spans rows [offset, offset+2]; keep a gap
        return offsets


@dataclass(frozen=True)
class _PatternTrial:
    """One unit of pool work: a pattern and its trial locations."""

    index: int
    pattern: NonUniformPattern
    base_rows: tuple[int, ...]


@dataclass(frozen=True)
class _TrialResult:
    """What one pattern trial sends back through the pool."""

    flips: int
    miss_sum: float
    trials: int


@dataclass
class FuzzingCampaign:
    """Runs a fuzzing campaign for one (machine, kernel) combination."""

    machine: Machine
    config: HammerKernelConfig
    scale: SimulationScale
    trials_per_pattern: int = 3
    seed_name: str = "fuzz"
    _fuzzer: PatternFuzzer = field(init=False)

    def __post_init__(self) -> None:
        rng = self.spec.rng()
        self._fuzzer = PatternFuzzer(rng=rng.child("patterns"))
        self._rng = rng

    @property
    def spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            machine=self.machine,
            config=self.config,
            scale=self.scale,
            seed_name=self.seed_name,
        )

    def _trial_rows(self) -> list[int]:
        rows = self.machine.dimm.spec.geometry.rows
        margin = 256
        return [
            int(r)
            for r in self._rng.integers(
                margin, rows - margin, size=self.trials_per_pattern
            )
        ]

    # ------------------------------------------------------------------
    def execute(self, budget: RunBudget | None = None) -> FuzzingReport:
        """Fuzz within ``budget`` (the canonical entry point).

        Patterns and trial locations are drawn serially up front (cheap,
        and it pins the fuzzer's draw order); the hammer trials — the
        expensive part — fan out over ``budget.workers``.
        """
        budget = budget or RunBudget()
        n_patterns = budget.resolve_trials(
            self.scale, default_hours=DEFAULT_CAMPAIGN_HOURS
        )
        tasks = [
            _PatternTrial(
                index=i,
                pattern=self._fuzzer.generate(),
                base_rows=tuple(self._trial_rows()),
            )
            for i in range(n_patterns)
        ]
        spec = self.spec
        acts = self.scale.acts_per_pattern

        def run_trial(session, task: _PatternTrial) -> _TrialResult:
            flips = 0
            miss_sum = 0.0
            for outcome in session.run_pattern_batch(
                task.pattern, task.base_rows, activations=acts
            ):
                flips += outcome.flip_count
                miss_sum += outcome.cache_miss_rate
            return _TrialResult(flips, miss_sum, len(task.base_rows))

        with OBS.tracer.span(
            "fuzz.campaign",
            patterns=n_patterns,
            workers=budget.workers,
            trials_per_pattern=self.trials_per_pattern,
            seed_name=self.seed_name,
        ) as span:
            with create_backend(budget) as backend:
                batch = backend.map(run_trial, tasks, init=spec.session)

            total = 0
            best_flips = 0
            best_pattern: NonUniformPattern | None = None
            effective = 0
            miss_sum = 0.0
            trials = 0
            telemetry = OBS.enabled
            for task, result in zip(tasks, batch.results):
                if result is None:
                    continue
                total += result.flips
                miss_sum += result.miss_sum
                trials += result.trials
                if result.flips > 0:
                    effective += 1
                if result.flips > best_flips:
                    best_flips = result.flips
                    best_pattern = task.pattern
                if telemetry:
                    OBS.metrics.histogram("fuzz.flips_per_pattern").observe(
                        result.flips
                    )
                    OBS.tracer.point(
                        "fuzz.pattern",
                        index=task.index,
                        flips=result.flips,
                        effective=result.flips > 0,
                        pattern=task.pattern.describe(),
                    )
            if telemetry:
                metrics = OBS.metrics
                metrics.counter("fuzz.patterns_tried").inc(n_patterns)
                metrics.counter("fuzz.patterns_effective").inc(effective)
                metrics.counter("fuzz.flips_total").inc(total)
            span.set(
                flips=total,
                effective_patterns=effective,
                best_pattern_flips=best_flips,
            )
        return FuzzingReport(
            total_flips=total,
            best_pattern_flips=best_flips,
            best_pattern=best_pattern,
            effective_patterns=effective,
            patterns_tried=n_patterns,
            mean_miss_rate=miss_sum / max(1, trials),
            notes=batch.notes(label="pattern"),
        )
