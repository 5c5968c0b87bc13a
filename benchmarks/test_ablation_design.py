"""Design-choice ablations called out in DESIGN.md.

Three model-level ablations that justify the simulator's structure:

1. **TRR sampler capacity** — more tracker slots shrink the escape space
   (fewer aggressors can hide behind decoys), directly trading off with
   fuzzing yield.
2. **Control-flow obfuscation** — removing it from the rhoHammer kernel
   must collapse flips on every architecture whose branch window is
   significant.
3. **Filler policy** — the frequency-layered filler rotation (cold true
   aggressors) is what lets patterns beat a counting sampler; making every
   pair a filler flattens the count separation and costs flips.
"""

from repro import BENCH_SCALE, build_machine, rhohammer_config
from repro.analysis.reporting import Table
from repro.dram.trr import TrrConfig
from repro.exploit.endtoend import canonical_compact_pattern
from repro.hammer.session import HammerSession
from repro.patterns.frequency import lay_out_pattern


def _flips(machine, config, pattern, rows=(5000, 21000, 42000)) -> int:
    session = HammerSession(
        machine=machine, config=config,
        disturbance_gain=BENCH_SCALE.disturbance_gain,
    )
    return sum(
        outcome.flip_count
        for outcome in session.run_pattern_batch(
            pattern, rows, activations=BENCH_SCALE.acts_per_pattern
        )
    )


def test_ablation_design_choices(benchmark, report_writer):
    table = Table("Design-choice ablations", ["ablation", "setting", "flips"])
    config = rhohammer_config(nop_count=220, num_banks=3)
    pattern = canonical_compact_pattern()

    def run_all():
        # 1. Sampler capacity sweep.
        for capacity in (2, 6, 16):
            machine = build_machine(
                "raptor_lake", "S3", scale=BENCH_SCALE, seed=909,
                trr_config=TrrConfig(capacity=capacity),
            )
            table.add_row("TRR capacity", capacity,
                          _flips(machine, config, pattern))
        # 2. Obfuscation on/off.
        machine = build_machine("raptor_lake", "S3", scale=BENCH_SCALE, seed=909)
        from dataclasses import replace
        for obfuscated in (True, False):
            variant = replace(config, obfuscate_control_flow=obfuscated)
            table.add_row("obfuscation", obfuscated,
                          _flips(machine, variant, pattern))
        # 3. Filler policy: decoys-only (canonical) vs everyone-fills.
        warm = lay_out_pattern(list(pattern.pairs), pattern.base_period)
        table.add_row("filler policy", "cold aggressor",
                      _flips(machine, config, pattern))
        table.add_row("filler policy", "all pairs fill",
                      _flips(machine, config, warm))

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    report_writer("ablation_design", table.render())

    rows = {(r[0], r[1]): int(r[2]) for r in table.rows}
    # A tiny sampler refreshes every row it admits (refreshes_per_ref
    # equals its capacity), so nothing escapes; larger tables admit the
    # count-shielding that non-uniform patterns exploit.
    assert rows[("TRR capacity", "2")] == 0
    assert rows[("TRR capacity", "6")] > 0
    assert rows[("TRR capacity", "16")] >= rows[("TRR capacity", "6")] / 2
    # Obfuscation is necessary on Raptor Lake.
    assert rows[("obfuscation", "True")] > 5 * max(
        1, rows[("obfuscation", "False")]
    )
    # The cold-aggressor filler policy outperforms naive filling.
    assert rows[("filler policy", "cold aggressor")] > rows[
        ("filler policy", "all pairs fill")
    ]
