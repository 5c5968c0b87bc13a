"""NOP pseudo-barrier tuning (Section 4.4, Figure 10).

The optimal NOP count balances two opposing forces: too few NOPs leave the
reorder buffer free to scramble (and drop) prefetches, too many serialise
perfectly but squander activation rate.  ``tune_nop_count`` reproduces the
paper's tuning phase: sweep candidate counts with a known-good pattern and
keep the argmax.  The optimum is platform-specific but transfers across
patterns on the same platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cpu.isa import HammerKernelConfig
from repro.patterns.frequency import NonUniformPattern
from repro.system.calibration import SimulationScale
from repro.system.machine import Machine

#: Default sweep grid over the paper's [0, 1000] range.
DEFAULT_NOP_GRID = (0, 25, 50, 100, 150, 200, 250, 300, 400, 500, 700, 1000)


def tuned_config_for(platform_name: str, num_banks: int | None = None):
    """The tuned rhoHammer kernel for one platform.

    Reads the per-platform optima recorded in
    :data:`repro.system.calibration.TUNED_KERNELS` (the output of this
    module's tuning phase), so every consumer — CLI, benchmarks,
    campaigns — agrees on what "tuned" means.
    """
    from repro.cpu.isa import rhohammer_config
    from repro.system.calibration import tuned_settings

    settings = tuned_settings(platform_name)
    return rhohammer_config(
        nop_count=settings.nop_count,
        num_banks=num_banks if num_banks is not None else settings.num_banks,
    )


@dataclass(frozen=True)
class NopTuningResult:
    """Outcome of the NOP tuning phase."""

    best_nop_count: int
    best_flips: int
    flips_by_count: dict[int, int]
    times_ms_by_count: dict[int, float]

    @property
    def positive_range(self) -> tuple[int, int] | None:
        """The NOP interval that produced any flips (Figure 10's band)."""
        hits = [n for n, f in self.flips_by_count.items() if f > 0]
        if not hits:
            return None
        return min(hits), max(hits)


def tune_nop_count(
    machine: Machine,
    base_config: HammerKernelConfig,
    pattern: NonUniformPattern,
    base_rows: list[int],
    activations_per_row: int,
    nop_grid: tuple[int, ...] = DEFAULT_NOP_GRID,
    scale: SimulationScale | None = None,
) -> NopTuningResult:
    """Sweep NOP counts over a known pattern and pick the most flips."""
    from repro.hammer.session import HammerSession

    gain = scale.disturbance_gain if scale is not None else 1.0
    flips_by_count: dict[int, int] = {}
    times_by_count: dict[int, float] = {}
    for nops in nop_grid:
        config = replace(base_config, nop_count=nops)
        session = HammerSession(
            machine=machine, config=config, disturbance_gain=gain
        )
        total = 0
        duration_ns = 0.0
        issued = 0
        for outcome in session.run_pattern_batch(
            pattern, base_rows, activations=activations_per_row
        ):
            total += outcome.flip_count
            duration_ns += outcome.duration_ns
            issued += outcome.acts_issued
        flips_by_count[nops] = total
        # Normalised to a fixed 10 M-iteration workload (trials themselves
        # run for a fixed number of refresh windows).
        times_by_count[nops] = duration_ns / max(1, issued) * 10e6 / 1e6
    best = max(flips_by_count, key=lambda n: (flips_by_count[n], -n))
    return NopTuningResult(
        best_nop_count=best,
        best_flips=flips_by_count[best],
        flips_by_count=flips_by_count,
        times_ms_by_count=times_by_count,
    )
