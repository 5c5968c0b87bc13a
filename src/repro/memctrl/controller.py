"""Memory controller: physical address translation plus DRAM dispatch.

The controller owns the (CPU-specific, proprietary) address mapping.  The
rest of the system only ever hands it physical addresses; attackers on top
of the simulator must *recover* the mapping through timing, exactly as on
real hardware.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import SimulationError
from repro.dram.device import Dimm, HammerResult, StreamPlan
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
        #: The last keyed stream's ``(key, bank streams, row of its first
        #: ACT, plan)``; see :meth:`execute_acts_batch`.
        self._replay: tuple | None = None

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
            self._shift_remap(self.bank_streams(times, phys_addrs), 0),
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
        stream_key=None,
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
        location order.  A lone location takes that path too, exactly
        as :meth:`execute_acts` runs it.

        Every location's shifted rows are checked against the device
        before any location runs and before any remapping: a remapper
        can fold an off-device row back onto the device.

        ``stream_key`` names the stream up to a uniform row shift: calls
        with equal keys must carry the same stream with every row
        shifted alike (the session's key is its executor-memo key plus
        the target banks and aggressor offsets).  Behind the identity
        remapper the controller keeps the last keyed stream's bank split
        and :class:`~repro.dram.device.StreamPlan` in one slot.  A call
        with the same key replays both: it passes the kept location-0
        streams to the DIMM with its row shifts moved by the row
        difference of the two streams' first ACTs, so it neither splits
        the stream nor plans any TRR, pTRR or RFM decision again.  One
        entry, because a replayed stream comes back in the very next
        call (sweep chunks, window-detail rows), and unhashed, because
        the caller's key already names the stream.
        """
        deltas = np.ascontiguousarray(np.asarray(row_deltas, dtype=np.int64))
        if not deltas.size:
            return []
        plan = None
        if (
            stream_key is not None
            and phys_addrs.size
            and type(self.remapper) is RowRemapper
        ):
            first_row = int(self.mapping.row_of_many(phys_addrs[:1])[0])
            replay = self._replay
            if replay is None or replay[0] != stream_key:
                # Drop the old entry before the new one is built.  A
                # plan holds only banks planned to the end, so a call
                # that fails leaves a slot later calls can still use.
                self._replay = None
                replay = self._replay = (
                    stream_key,
                    self.bank_streams(times, phys_addrs),
                    first_row,
                    StreamPlan(),
                )
            _, streams, replay_row, plan = replay
            deltas = deltas + (first_row - replay_row)
        else:
            streams = self.bank_streams(times, phys_addrs)
        self.dimm.check_rows(streams, deltas)
        if type(self.remapper) is RowRemapper and deltas.size > 1:
            return self.dimm.hammer_batch(
                streams,
                deltas,
                collect_events=collect_events,
                disturbance_gain=disturbance_gain,
                plan=plan,
            )
        return [
            self.dimm.hammer(
                self._shift_remap(streams, delta),
                collect_events=collect_events,
                disturbance_gain=disturbance_gain,
                plan=plan,
            )
            for delta in deltas.tolist()
        ]

    def bank_streams(
        self, times: np.ndarray, phys_addrs: np.ndarray
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Split an arrival-order stream into per-bank (times, rows).

        No row remapping is applied; this is what the device would see
        without a mitigation remapper.
        """
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
