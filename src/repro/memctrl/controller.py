"""Memory controller: physical address translation plus DRAM dispatch.

The controller owns the (CPU-specific, proprietary) address mapping.  The
rest of the system only ever hands it physical addresses; attackers on top
of the simulator must *recover* the mapping through timing, exactly as on
real hardware.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import SimulationError
from repro.dram.device import Dimm, HammerResult
from repro.dram.mitigations import RowRemapper
from repro.mapping.functions import AddressMapping, DramAddress


class MemoryController:
    """Single-channel memory controller in front of one DIMM."""

    def __init__(
        self,
        mapping: AddressMapping,
        dimm: Dimm,
        remapper: RowRemapper | None = None,
    ) -> None:
        if mapping.num_banks != dimm.spec.geometry.total_banks:
            raise SimulationError(
                f"mapping addresses {mapping.num_banks} banks but DIMM has "
                f"{dimm.spec.geometry.total_banks}"
            )
        self.mapping = mapping
        self.dimm = dimm
        self.remapper = remapper or RowRemapper()

    # ------------------------------------------------------------------
    # Translation (the attacker never calls these; the side channel and
    # the hammer executor do).
    # ------------------------------------------------------------------
    def translate(self, phys_addr: int) -> DramAddress:
        return self.mapping.translate(phys_addr)

    def banks_of(self, phys_addrs: np.ndarray) -> np.ndarray:
        return self.mapping.bank_of_many(phys_addrs)

    def rows_of(self, phys_addrs: np.ndarray) -> np.ndarray:
        return self.mapping.row_of_many(phys_addrs)

    # ------------------------------------------------------------------
    # Hammer dispatch
    # ------------------------------------------------------------------
    def execute_acts(
        self,
        times: np.ndarray,
        phys_addrs: np.ndarray,
        collect_events: bool = True,
        disturbance_gain: float = 1.0,
    ) -> HammerResult:
        """Run a timestamped activation stream against the DIMM.

        The stream is in *memory-controller arrival order*; we split it per
        bank (banks operate independently) and apply any mitigation row
        remapping before the device sees it.
        """
        return self.dimm.hammer(
            self._shift_remap(self._bank_streams(times, phys_addrs), 0),
            collect_events=collect_events,
            disturbance_gain=disturbance_gain,
        )

    def execute_acts_batch(
        self,
        times: np.ndarray,
        phys_addrs: np.ndarray,
        row_deltas: np.ndarray,
        collect_events: bool = False,
        disturbance_gain: float = 1.0,
    ) -> list[HammerResult]:
        """Run one activation stream at many base-row-shifted locations.

        Location ``i`` sees the stream of ``phys_addrs`` with every row
        shifted by ``row_deltas[i]``; the returned list matches a serial
        ``execute_acts`` call per location bit for bit, telemetry
        included (see :meth:`Dimm.hammer_batch` for the invariance
        argument).  Row-remapping mitigations may be row- or
        history-dependent — a shifted stream does not remap to a shifted
        stream — so any non-identity remapper forces the serial
        per-location path, preserving the remapper's state evolution in
        location order.
        """
        streams = self._bank_streams(times, phys_addrs)
        deltas = np.ascontiguousarray(np.asarray(row_deltas, dtype=np.int64))
        if type(self.remapper) is RowRemapper:  # identity: safe to batch
            return self.dimm.hammer_batch(
                streams,
                deltas,
                collect_events=collect_events,
                disturbance_gain=disturbance_gain,
            )
        return [
            self.dimm.hammer(
                self._shift_remap(streams, delta),
                collect_events=collect_events,
                disturbance_gain=disturbance_gain,
            )
            for delta in deltas.tolist()
        ]

    def _bank_streams(
        self, times: np.ndarray, phys_addrs: np.ndarray
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Split an arrival-order stream into per-bank (times, rows)."""
        if times.shape != phys_addrs.shape:
            raise SimulationError("times and addresses must align")
        addrs = phys_addrs.astype(np.uint64, copy=False)
        banks = self.mapping.bank_of_many(addrs).astype(np.int64)
        rows = self.mapping.row_of_many(addrs).astype(np.int64)
        streams: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for bank in np.unique(banks).tolist():
            mask = banks == bank
            streams[int(bank)] = (times[mask], rows[mask])
        return streams

    def _shift_remap(
        self, streams: dict[int, tuple[np.ndarray, np.ndarray]], delta: int
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """One location's streams: rows shifted by ``delta``, then remapped."""
        shifted: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for bank, (bank_times, bank_rows) in streams.items():
            rows = bank_rows + delta if delta else bank_rows
            if bank_times.size:
                rows = self.remapper.remap(bank, rows, float(bank_times[-1]))
            shifted[bank] = (bank_times, rows)
        return shifted
