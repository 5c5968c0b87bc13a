"""The three paper workloads the benchmark times, built from a seed.

Each workload turns ``--seed`` into the program's inputs (machine seed,
campaign seed names, swept pattern, scrambling key), builds one *round* of
work on freshly built machines, and exposes:

* ``build(seed)`` -> :class:`Round`: machines and campaigns, ready to
  run; this is exactly what a user's process builds before the entry
  point, so the fresh-interpreter set-up probe calls it too;
* ``Round.run()``: the entry-point calls the round is timed over;
* ``outputs(reports)``: the simulated results, as plain JSON values, that
  the benchmark checks against its stored expectations.

Every round of one seed repeats the same inputs on new machines, so every
round pays the cold simulator caches (executor memo, stream memo,
weak-cell profiles) that every CLI run pays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import repro
from repro.dram.mitigations import RandomizedRowSwap, ScrambledMapping
from repro.engine import default_workers
from repro.patterns import sweep as sweep_module
from repro.patterns.frequency import AggressorPair, lay_out_pattern

PLATFORM = "raptor_lake"
DIMM = "S3"
SCALE = repro.BENCH_SCALE

#: Fuzzed patterns per ``fuzz`` round, each tried at the CLI's default 3
#: locations.  Host speed drifts over tens of seconds, and the median of
#: many short identical rounds rides out a slow stretch better than that
#: of three long ones; ten patterns still keep the seed's own pull on the
#: rate (host cost per pattern varies ~15-20%) to a few percent.
FUZZ_PATTERNS = 10

#: Locations per ``sweep`` round: 28 default-size chunks of 16, so each
#: of two workers runs ~14 chunks and its 8,192-entry weak-cell profile
#: LRU wraps (every location touches ~45 victim rows).
SWEEP_LOCATIONS = 448

#: Fuzzed patterns per mitigated machine per ``mitigations`` round (one
#: location each, as in the §6 ablation).  ``mitigations`` is traced and
#: timed like the others but not gated: see README, "Workloads".
MITIGATION_PATTERNS = 4

#: Randomized row-swap threshold of the §6 ablation at BENCH scale.
RRS_THRESHOLD = max(1, int(800 / SCALE.time_compression))


def kernel_config():
    """The tuned Raptor Lake kernel: 220 NOPs, 3 banks."""
    return repro.rhohammer_config(nop_count=220, num_banks=3)


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench/{purpose}/{seed}")


def _machine(seed: int, **kwargs):
    return repro.build_machine(PLATFORM, DIMM, seed=seed, scale=SCALE,
                               **kwargs)


def swept_pattern(seed: int):
    """The tuned compact pattern with seed-chosen phases.

    Two amplitude-1 decoy pairs at frequency 16 hold the TRR sampler's top
    counts while an amplitude-4 pair at frequency 4 accumulates, all within
    12 rows.  Every seed gets the same slot mix (so the same host cost per
    location); the seed moves where in the base period each pair fires.
    """
    rng = _rng(seed, "sweep-pattern")
    decoy = rng.randrange(8)
    pairs = [
        AggressorPair(pair_id=0, row_offset=0, frequency=16, phase=decoy,
                      amplitude=1),
        AggressorPair(pair_id=1, row_offset=4, frequency=16, phase=decoy + 8,
                      amplitude=1),
        AggressorPair(pair_id=2, row_offset=8, frequency=4,
                      phase=rng.randrange(256), amplitude=4),
    ]
    return lay_out_pattern(pairs, 256, filler_pair_ids=[0, 1])


def scrambling_key(seed: int) -> int:
    return _rng(seed, "scramble-key").getrandbits(16)


@dataclass
class Round:
    """One round of prepared work: ``run()`` makes the timed calls."""

    run: Callable[[], list[Any]]
    trials: int
    #: Locations per pool task, to map a failed task back to its trials.
    chunk: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    #: What a span's trial id names: the fuzzed pattern or the location.
    trial_unit: str
    build: Callable[[int], Round]
    outputs: Callable[[list[Any]], list[dict[str, Any]]]
    pooled: bool = False


# -- fuzz ---------------------------------------------------------------
def _build_fuzz(seed: int) -> Round:
    campaign = repro.FuzzingCampaign(
        machine=_machine(seed),
        config=kernel_config(),
        scale=SCALE,
        seed_name=f"fuzz-{seed}",
    )
    budget = repro.RunBudget(max_trials=FUZZ_PATTERNS, backend="serial")
    return Round(run=lambda: [campaign.execute(budget)], trials=FUZZ_PATTERNS)


def _fuzz_outputs(reports) -> list[dict[str, Any]]:
    return [
        {
            "patterns_tried": r.patterns_tried,
            "effective_patterns": r.effective_patterns,
            "total_flips": r.total_flips,
            "best_pattern_flips": r.best_pattern_flips,
            "mean_miss_rate": r.mean_miss_rate,
            "notes": list(r.notes),
        }
        for r in reports
    ]


# -- sweep --------------------------------------------------------------
def _sweep_workers() -> int:
    """Workers as ``rhohammer sweep --workers $(nproc)``, at least two."""
    return max(2, default_workers())


def _build_sweep(seed: int) -> Round:
    machine = _machine(seed)
    config = kernel_config()
    pattern = swept_pattern(seed)
    budget = repro.RunBudget(
        max_trials=SWEEP_LOCATIONS,
        workers=_sweep_workers(),
        backend="persistent",
    )

    def run():
        # Looked up at call time so the traced run's module-level wrapper
        # is the one called.
        return [
            sweep_module.sweep_pattern(
                machine, config, pattern, budget, SCALE,
                seed_name=f"sweep-{seed}",
            )
        ]

    return Round(run=run, trials=SWEEP_LOCATIONS,
                 chunk=budget.resolve_batch_locations(SWEEP_LOCATIONS))


def _sweep_outputs(reports) -> list[dict[str, Any]]:
    return [
        {
            "flips_per_location": [int(f) for f in r.flips_per_location],
            "virtual_minutes": [float(m) for m in r.virtual_minutes],
            "total_flips": r.total_flips,
            "notes": list(r.notes),
        }
        for r in reports
    ]


# -- mitigations --------------------------------------------------------
def _mitigated_machines(seed: int) -> list:
    ptrr = _machine(seed, ptrr_enabled=True)
    scrambled = _machine(
        seed,
        remapper=ScrambledMapping(
            geometry=ptrr.dimm.spec.geometry, boot_key=scrambling_key(seed)
        ),
    )
    swapped = _machine(seed)
    swapped.controller.remapper = RandomizedRowSwap(
        geometry=swapped.dimm.spec.geometry,
        rng=swapped.rng.child("rrs"),
        swap_threshold=RRS_THRESHOLD,
    )
    return [ptrr, scrambled, swapped]


MITIGATIONS = ("ptrr", "scrambling", "row-swap")


def _build_mitigations(seed: int) -> Round:
    campaigns = [
        repro.FuzzingCampaign(
            machine=machine,
            config=kernel_config(),
            scale=SCALE,
            trials_per_pattern=1,
            seed_name=f"ablation-{seed}",
        )
        for machine in _mitigated_machines(seed)
    ]
    budget = repro.RunBudget(max_trials=MITIGATION_PATTERNS, backend="serial")
    return Round(
        run=lambda: [c.execute(budget) for c in campaigns],
        trials=MITIGATION_PATTERNS * len(campaigns),
    )


def _mitigation_outputs(reports) -> list[dict[str, Any]]:
    return [
        {"mitigation": name, **out}
        for name, out in zip(MITIGATIONS, _fuzz_outputs(reports))
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fuzz",
            trial_unit="pattern",
            build=_build_fuzz,
            outputs=_fuzz_outputs,
        ),
        Workload(
            name="sweep",
            trial_unit="location",
            build=_build_sweep,
            outputs=_sweep_outputs,
            pooled=True,
        ),
        Workload(
            name="mitigations",
            trial_unit="pattern",
            build=_build_mitigations,
            outputs=_mitigation_outputs,
        ),
    )
}
