"""Pattern refinement: local search around an effective pattern.

Blacksmith's workflow does not stop at fuzzing — promising patterns are
refined by perturbing their frequency-domain parameters and keeping the
improvements.  This module implements that hill-climbing stage: each round
proposes mutated neighbours (one pair's frequency, phase, amplitude or
filler membership changed), evaluates them at the same locations, and
adopts the best improvement until no neighbour wins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.common.rng import RngStream
from repro.cpu.isa import HammerKernelConfig
from repro.patterns.frequency import (
    AggressorPair,
    NonUniformPattern,
    lay_out_pattern,
)
from repro.system.calibration import SimulationScale
from repro.system.machine import Machine

_FREQUENCIES = (1, 2, 4, 8, 16)
_AMPLITUDES = (1, 2, 3, 4)


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of refining one seed pattern."""

    seed_flips: int
    best_pattern: NonUniformPattern
    best_flips: int
    rounds: int
    evaluations: int

    @property
    def improvement(self) -> float:
        if self.seed_flips == 0:
            return float(self.best_flips)
        return self.best_flips / self.seed_flips


def _filler_ids(pattern: NonUniformPattern) -> list[int]:
    """Recover which pairs currently rotate through the filler slots."""
    explicit_only = []
    for pair in pattern.pairs:
        share = pattern.slot_share(pair)
        explicit = pair.frequency * pair.amplitude * 2 / pattern.base_period
        if share > explicit * 1.5:
            explicit_only.append(pair.pair_id)
    return explicit_only or [p.pair_id for p in pattern.pairs]


def _mutations(pattern: NonUniformPattern, rng: RngStream):
    """Yield neighbour patterns differing in one parameter."""
    fillers = _filler_ids(pattern)
    for index, pair in enumerate(pattern.pairs):
        for frequency in _FREQUENCIES:
            if frequency != pair.frequency:
                yield _rebuild(pattern, index,
                               dc_replace(pair, frequency=frequency), fillers)
        for amplitude in _AMPLITUDES:
            if amplitude != pair.amplitude:
                yield _rebuild(pattern, index,
                               dc_replace(pair, amplitude=amplitude), fillers)
        new_phase = int(rng.integers(0, pattern.base_period))
        if new_phase != pair.phase:
            yield _rebuild(pattern, index,
                           dc_replace(pair, phase=new_phase), fillers)
        toggled = (
            [f for f in fillers if f != pair.pair_id]
            if pair.pair_id in fillers
            else fillers + [pair.pair_id]
        )
        if toggled:
            yield _rebuild(pattern, index, pair, toggled)


def _rebuild(
    pattern: NonUniformPattern,
    index: int,
    new_pair: AggressorPair,
    fillers: list[int],
) -> NonUniformPattern:
    pairs = list(pattern.pairs)
    pairs[index] = new_pair
    return lay_out_pattern(pairs, pattern.base_period, filler_pair_ids=fillers)


def refine_pattern(
    machine: Machine,
    config: HammerKernelConfig,
    seed: NonUniformPattern,
    scale: SimulationScale,
    base_rows: tuple[int, ...] = (6000, 22000),
    max_rounds: int = 4,
    neighbours_per_round: int = 12,
    seed_name: str = "refine",
) -> RefinementResult:
    """Hill-climb from ``seed`` towards a higher-yield pattern."""
    from repro.hammer.session import HammerSession

    session = HammerSession(
        machine=machine, config=config,
        disturbance_gain=scale.disturbance_gain,
    )
    rng = machine.rng.child(seed_name)

    def score(pattern: NonUniformPattern) -> int:
        return sum(
            outcome.flip_count
            for outcome in session.run_pattern_batch(
                pattern, base_rows, activations=scale.acts_per_pattern
            )
        )

    evaluations = 1
    best = seed
    best_flips = seed_flips = score(seed)
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        candidates = []
        for mutant in _mutations(best, rng):
            candidates.append(mutant)
            if len(candidates) >= neighbours_per_round:
                break
        improved = False
        for mutant in candidates:
            evaluations += 1
            flips = score(mutant)
            if flips > best_flips:
                best, best_flips = mutant, flips
                improved = True
        if not improved:
            break
    return RefinementResult(
        seed_flips=seed_flips,
        best_pattern=best,
        best_flips=best_flips,
        rounds=rounds,
        evaluations=evaluations,
    )
