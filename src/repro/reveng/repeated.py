"""Repeated reverse-engineering runs (Table 5's 50-run statistics).

The paper reports recovery time and success over many independent runs
per platform.  Each run is a fully self-contained trial — its own machine
seed, its own timing-oracle pool, its own measurement noise — so the runs
fan out over a :func:`repro.engine.create_backend` executor with
per-task seeds derived
from :func:`repro.common.rng.derive_seed`; parallel statistics are
bit-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import derive_seed
from repro.engine import RunBudget, create_backend
from repro.reveng.algorithm import RhoHammerRevEng
from repro.reveng.oracle import TimingOracle
from repro.reveng.report import compare_mappings
from repro.system.machine import build_machine


@dataclass(frozen=True)
class RevEngRunOutcome:
    """One independent reverse-engineering run."""

    seed: int
    runtime_seconds: float
    measurements: int
    correct: bool


@dataclass(frozen=True)
class RepeatedRevEngStats:
    """Success/runtime statistics over repeated runs (one Table 5 cell)."""

    platform: str
    dimm_id: str
    outcomes: tuple[RevEngRunOutcome, ...]
    runs_requested: int
    notes: tuple[str, ...] = ()

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def successes(self) -> int:
        return sum(1 for o in self.outcomes if o.correct)

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0

    @property
    def all_correct(self) -> bool:
        return self.runs > 0 and self.successes == self.runs

    @property
    def mean_runtime_seconds(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.runtime_seconds for o in self.outcomes) / self.runs

    @property
    def min_runtime_seconds(self) -> float:
        return min((o.runtime_seconds for o in self.outcomes), default=0.0)

    @property
    def max_runtime_seconds(self) -> float:
        return max((o.runtime_seconds for o in self.outcomes), default=0.0)

    def as_table5_cell(self) -> str:
        """The paper's cell format: mean seconds, '-' on any failure."""
        if not self.all_correct:
            return "-"
        return f"{self.mean_runtime_seconds:.1f}s"


def repeated_reveng(
    platform: str,
    dimm_id: str = "S3",
    budget: RunBudget | None = None,
    base_seed: int = 505,
    fraction: float = 0.5,
    seed_name: str = "repeated-reveng",
) -> RepeatedRevEngStats:
    """Run Algorithm 1 ``budget.max_trials`` times with independent seeds.

    Defaults to the paper's 50-run protocol; ``budget.workers`` spreads
    the runs over a worker pool.
    """
    budget = budget or RunBudget.trials(50)
    runs = budget.max_trials if budget.max_trials is not None else 50
    seeds = [derive_seed(base_seed, seed_name, i) for i in range(runs)]

    def run_once(_ctx, seed: int) -> RevEngRunOutcome:
        machine = build_machine(platform, dimm_id, seed=seed)
        oracle = TimingOracle.allocate(
            machine, fraction=fraction, seed_name=seed_name
        )
        result = RhoHammerRevEng(oracle, collect_heatmap=False).run()
        score = compare_mappings(result.mapping, machine.mapping)
        return RevEngRunOutcome(
            seed=seed,
            runtime_seconds=result.runtime_seconds,
            measurements=result.measurements,
            correct=score.fully_correct,
        )

    with create_backend(budget) as backend:
        batch = backend.map(run_once, seeds)
    return RepeatedRevEngStats(
        platform=platform,
        dimm_id=dimm_id,
        outcomes=tuple(r for r in batch.results if r is not None),
        runs_requested=runs,
        notes=batch.notes(label="run"),
    )
