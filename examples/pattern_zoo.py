"""Pattern zoo: the literature's hammering strategies vs the TRR sampler.

Replays a decade of Rowhammer history on the simulated platform: the
original double-sided pattern (Kim et al. 2014), the historical
single-sided variant, TRRespass-style many-sided hammering, SMASH-style
synchronised hammering, and a Blacksmith-style frequency-domain pattern —
first against the default TRR sampler, then against a deliberately weak
one, so the reason each generation of patterns appeared is visible.

Run:  python examples/pattern_zoo.py
"""

from repro import QUICK_SCALE, build_machine, rhohammer_config
from repro.analysis.reporting import Table
from repro.dram.trr import TrrConfig
from repro.hammer.session import HammerSession
from repro.patterns.library import PATTERN_LIBRARY


def flips_for(machine, pattern) -> int:
    session = HammerSession(
        machine=machine,
        config=rhohammer_config(nop_count=60, num_banks=3),
        disturbance_gain=QUICK_SCALE.disturbance_gain,
    )
    return sum(
        outcome.flip_count
        for outcome in session.run_pattern_batch(
            pattern, (6000, 22000), activations=QUICK_SCALE.acts_per_pattern
        )
    )


def main() -> None:
    modern = build_machine("comet_lake", "S3", scale=QUICK_SCALE)
    weak = build_machine(
        "comet_lake", "S3", scale=QUICK_SCALE, seed=7,
        trr_config=TrrConfig(capacity=4, refreshes_per_ref=1),
    )

    table = Table(
        "Hammering strategies vs TRR (bit flips, Comet Lake / S3)",
        ["pattern", "modern TRR", "weak sampler"],
    )
    for name, factory in PATTERN_LIBRARY.items():
        pattern = factory()
        table.add_row(name, flips_for(modern, pattern), flips_for(weak, pattern))
    print(table.render())
    print(
        "\nReading: uniform patterns die against a counting sampler (hence"
        "\nTRRespass's many-sided escalation, which still beats *small*"
        "\nsamplers); only the frequency-domain non-uniform structure the"
        "\nrhoHammer fuzzer searches bypasses the modern configuration."
    )


if __name__ == "__main__":
    main()
