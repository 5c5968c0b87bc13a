"""Barrier-strategy comparison (Section 4.4, Table 3).

Runs the same pattern under every ordering strategy — no barrier, CPUID,
MFENCE, LFENCE (with loads and with prefetches), and NOP pseudo-barriers —
and reports flips plus completion time, reproducing the paper's findings:
serialising instructions are ruinously slow, LFENCE only orders prefetches
indirectly through the indexed-address dependency, and tuned NOP runs give
the best flips-per-time balance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cpu.isa import AddressingMode, Barrier, HammerInstruction, HammerKernelConfig
from repro.patterns.frequency import NonUniformPattern
from repro.system.calibration import SimulationScale
from repro.system.machine import Machine


@dataclass(frozen=True)
class BarrierComparison:
    """One Table 3 cell: flips and completion time for a strategy."""

    strategy: str
    flips: int
    time_ms: float  # completion time normalised to 10 M kernel iterations
    miss_rate: float


def _strategies(nop_count: int) -> list[tuple[str, HammerKernelConfig]]:
    prefetch = HammerKernelConfig(
        instruction=HammerInstruction.PREFETCHT2,
        addressing=AddressingMode.INDEXED,
        obfuscate_control_flow=True,
    )
    load = replace(prefetch, instruction=HammerInstruction.LOAD)
    return [
        ("None", replace(prefetch, barrier=Barrier.NONE)),
        ("CPUID", replace(prefetch, barrier=Barrier.CPUID)),
        ("MFENCE", replace(prefetch, barrier=Barrier.MFENCE)),
        ("LFENCE (load)", replace(load, barrier=Barrier.LFENCE)),
        ("LFENCE (prefetch)", replace(prefetch, barrier=Barrier.LFENCE)),
        ("NOP", replace(prefetch, nop_count=nop_count)),
    ]


def compare_barriers(
    machine: Machine,
    pattern: NonUniformPattern,
    base_rows: list[int],
    activations_per_row: int,
    nop_count: int,
    num_banks: int = 1,
    scale: SimulationScale | None = None,
) -> list[BarrierComparison]:
    """Run the Table 3 comparison on one machine."""
    from repro.hammer.session import HammerSession

    gain = scale.disturbance_gain if scale is not None else 1.0
    rows: list[BarrierComparison] = []
    for name, config in _strategies(nop_count):
        session = HammerSession(
            machine=machine,
            config=config.with_banks(num_banks),
            disturbance_gain=gain,
        )
        flips = 0
        duration_ns = 0.0
        issued = 0
        miss = 0.0
        for outcome in session.run_pattern_batch(
            pattern, base_rows, activations=activations_per_row
        ):
            flips += outcome.flip_count
            duration_ns += outcome.duration_ns
            issued += outcome.acts_issued
            miss += outcome.cache_miss_rate
        # Trials are stretched to a fixed accumulation horizon, so the
        # paper-comparable "completion time" is normalised to a fixed
        # workload of 10 M kernel iterations (Table 3's methodology).
        per_iter_ns = duration_ns / max(1, issued)
        rows.append(
            BarrierComparison(
                strategy=name,
                flips=flips,
                time_ms=per_iter_ns * 10e6 / 1e6,
                miss_rate=miss / max(1, len(base_rows)),
            )
        )
    return rows
