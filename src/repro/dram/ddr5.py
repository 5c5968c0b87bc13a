"""DDR5 substrate: refresh management (RFM) and sub-channel mapping.

Section 6 ("Towards Future Research on DDR5") reports that no effective
pattern was observed on DDR5 setups: the standard's refresh management
counts activations per bank (RAA counters) and forces mitigation refreshes
(RFM commands) once a threshold is crossed, independent of any sampler the
pattern could fool.  This module models exactly that bound so the fuzzing
and sweeping pipelines can be pointed at a DDR5 machine and reproduce the
negative result, and provides the sub-channel-extended address mapping the
paper notes its reverse-engineering tool must learn to recover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.units import US
from repro.dram.timing import DdrTiming


@dataclass(frozen=True)
class RfmConfig:
    """JESD79-5 refresh-management knobs.

    ``raa_initial_threshold`` (RAAIMT-like): activations per bank between
    RFM commands.  When the rolling activation counter crosses it, the
    memory controller issues an RFM and the device refreshes the
    neighbourhoods of its most-activated rows since the last RFM —
    a *deterministic* bound, unlike DDR4's best-effort TRR sampling.
    ``rows_refreshed_per_rfm`` bounds the per-command mitigation work.
    """

    enabled: bool = True
    raa_initial_threshold: int = 64
    rows_refreshed_per_rfm: int = 4

    def scaled_threshold(self, time_compression: float) -> int:
        """RAA threshold in *simulated* activations for a compressed run.

        The threshold is defined over real activations; with time
        compression each simulated ACT stands for ``time_compression``
        real ones, so the simulated counter must trip proportionally
        earlier.
        """
        return max(1, int(round(self.raa_initial_threshold / time_compression)))


@dataclass
class RaaCounter:
    """One bank's rolling activation-accounting state."""

    threshold: int
    rows_refreshed_per_rfm: int
    _count: int = 0
    _since_rfm: dict[int, int] = field(default_factory=dict)
    rfm_commands: int = 0

    def observe(self, row: int) -> list[int] | None:
        """Record one ACT; returns aggressor rows to mitigate on RFM."""
        self._count += 1
        self._since_rfm[row] = self._since_rfm.get(row, 0) + 1
        if self._count < self.threshold:
            return None
        self._count = 0
        self.rfm_commands += 1
        ranked = sorted(self._since_rfm, key=self._since_rfm.get, reverse=True)
        targets = ranked[: self.rows_refreshed_per_rfm]
        self._since_rfm.clear()
        return targets

    def observe_chunk(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`observe`: all mitigation targets of one chunk.

        Splits the chunk at RFM trip points and merges each segment's
        activation counts into the rolling table via ``np.unique``,
        preserving the first-occurrence dict insertion order the per-ACT
        loop produces (the stable tiebreak of the count ranking).  Returns
        ``(targets, trips)``: the concatenated targets of every RFM
        tripped inside the chunk — identical, in order, to issuing
        :meth:`observe` per ACT — and for each target the chunk index of
        the ACT whose RFM chose it.
        """
        targets: list[int] = []
        trips: list[int] = []
        table = self._since_rfm
        position = 0
        remaining = int(rows.size)
        while remaining > 0:
            take = min(self.threshold - self._count, remaining)
            segment = rows[position:position + take]
            unique, first_pos, occ = np.unique(
                segment, return_index=True, return_counts=True
            )
            if unique.size > 1:
                order = np.argsort(first_pos, kind="stable")
                unique = unique[order]
                occ = occ[order]
            for seg_row, n in zip(unique.tolist(), occ.tolist()):
                table[seg_row] = table.get(seg_row, 0) + n
            self._count += take
            position += take
            remaining -= take
            if self._count >= self.threshold:
                self._count = 0
                self.rfm_commands += 1
                ranked = sorted(table, key=table.get, reverse=True)
                chosen = ranked[: self.rows_refreshed_per_rfm]
                targets.extend(chosen)
                trips.extend([position - 1] * len(chosen))
                table.clear()
        return (
            np.asarray(targets, dtype=np.int64),
            np.asarray(trips, dtype=np.int64),
        )


def ddr5_timing(refresh_window_ns: float | None = None) -> DdrTiming:
    """DDR5-5600-flavoured timing: doubled refresh cadence.

    Only the parameters the hammer pipeline consumes differ from the DDR4
    defaults: tREFI halves (3.9 us) and the per-REF execution time shrinks
    (same-bank refresh granularity).
    """
    kwargs = dict(t_refi=3.9 * US, t_rfc=295.0)
    if refresh_window_ns is not None:
        kwargs["refresh_window"] = refresh_window_ns
    return DdrTiming(**kwargs)
