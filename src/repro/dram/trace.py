"""Activation-trace recording and replay.

Hammering experiments are expensive to regenerate but their DRAM-side
input is just per-bank (time, row) streams.  This module captures those
streams from a hammer run, persists them (numpy ``.npz``), and replays
them against *any* DIMM configuration — so one recorded campaign can be
studied under different TRR strengths, mitigations, or cell populations
without re-running the CPU model.

Typical use::

    trace = record_trace(machine, config, pattern, base_row, acts, gain)
    trace.save("campaign.npz")
    ...
    trace = ActivationTrace.load("campaign.npz")
    result = replay_trace(trace, other_dimm)
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common.errors import SimulationError
from repro.dram.device import Dimm, HammerResult

if TYPE_CHECKING:  # imported lazily at runtime to avoid package cycles
    from repro.cpu.isa import HammerKernelConfig
    from repro.patterns.frequency import NonUniformPattern
    from repro.system.machine import Machine


@dataclass
class ActivationTrace:
    """Per-bank timestamped activation streams plus provenance."""

    bank_streams: dict[int, tuple[np.ndarray, np.ndarray]]
    disturbance_gain: float = 1.0
    description: str = ""

    @property
    def total_acts(self) -> int:
        return sum(times.size for times, _ in self.bank_streams.values())

    @property
    def banks(self) -> tuple[int, ...]:
        return tuple(sorted(self.bank_streams))

    @property
    def duration_ns(self) -> float:
        ends = [
            float(times[-1])
            for times, _ in self.bank_streams.values()
            if times.size
        ]
        return max(ends) if ends else 0.0

    # ------------------------------------------------------------------
    def save(self, path: str | pathlib.Path) -> None:
        """Persist as a compressed .npz archive."""
        arrays: dict[str, np.ndarray] = {
            "meta": np.array(
                [self.disturbance_gain], dtype=np.float64
            ),
            "description": np.array([self.description]),
        }
        for bank, (times, rows) in self.bank_streams.items():
            arrays[f"times_{bank}"] = times
            arrays[f"rows_{bank}"] = rows
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "ActivationTrace":
        with np.load(path, allow_pickle=False) as data:
            gain = float(data["meta"][0])
            description = str(data["description"][0])
            streams: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for key in data.files:
                if key.startswith("times_"):
                    bank = int(key.split("_", 1)[1])
                    streams[bank] = (data[key], data[f"rows_{bank}"])
        if not streams:
            raise SimulationError(f"{path} contains no activation streams")
        return cls(
            bank_streams=streams,
            disturbance_gain=gain,
            description=description,
        )


def record_trace(
    machine: "Machine",
    config: "HammerKernelConfig",
    pattern: "NonUniformPattern",
    base_row: int,
    activations: int,
    disturbance_gain: float = 1.0,
) -> ActivationTrace:
    """Run the CPU-side pipeline once and capture the DRAM-side streams.

    The stream is the one :class:`~repro.hammer.session.HammerSession`
    would hammer, split per bank as the memory controller splits it
    (without any mitigation remapping).
    """
    from repro.hammer.multibank import multibank_addresses
    from repro.hammer.session import HammerSession

    combined, banks, fingerprint = HammerSession(
        machine, config
    ).prepare_stream(pattern, activations)
    execution = machine.executor.execute(combined, config, fingerprint)
    addr_table = multibank_addresses(
        machine.mapping, pattern.aggressor_row_offsets(), base_row, banks
    )
    streams = machine.controller.bank_streams(
        execution.times_ns, addr_table.reshape(-1)[execution.address_ids]
    )
    return ActivationTrace(
        bank_streams=streams,
        disturbance_gain=disturbance_gain,
        description=(
            f"{machine.platform.name}/{machine.dimm.spec.dimm_id} "
            f"{config.describe()} base_row={base_row}"
        ),
    )


def replay_trace(trace: ActivationTrace, dimm: Dimm,
                 collect_events: bool = False) -> HammerResult:
    """Execute a recorded trace against a (possibly different) DIMM."""
    return dimm.hammer(
        trace.bank_streams,
        collect_events=collect_events,
        disturbance_gain=trace.disturbance_gain,
    )
