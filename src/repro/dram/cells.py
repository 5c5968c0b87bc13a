"""Per-cell Rowhammer vulnerability model.

Real DIMMs flip when the cumulative disturbance a victim row receives
between two of its refreshes exceeds a per-cell threshold (the
"hammer count to first flip", HC_first).  Thresholds vary strongly across
cells, rows and DIMMs; we model them as a deterministic pseudo-random
population seeded by (dimm_uid, bank, row) so that:

* the same physical location is always equally (in)vulnerable, which the
  sweeping experiments rely on (Orosa et al.'s location dependence), and
* per-DIMM vulnerability is a two-parameter knob (median threshold and weak
  cell density) calibrated from the relative flip yields in Table 6.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.common.rng import derive_seed

#: Cells modelled per row.  Real rows have 65536 bits; we model only the
#: weak tail (the cells that could plausibly flip), scaled by density.
_CANDIDATE_CELLS_PER_ROW = 128


@dataclass(frozen=True)
class FlipEvent:
    """One observed bit flip."""

    bank: int
    row: int
    bit_index: int  # bit offset within the 8 KiB row (0 .. 65535)
    direction: int  # 1: 0->1, 0: 1->0


@dataclass(frozen=True)
class CellProfile:
    """The weak cells of one row: thresholds and flip metadata."""

    thresholds: np.ndarray  # ascending float64, effective ACT counts
    bit_indices: np.ndarray  # int64 offsets within the row
    directions: np.ndarray  # int8, 1 = 0->1


class CellPopulation:
    """Lazily materialised weak-cell profiles for one DIMM.

    ``median_threshold`` is the median HC_first of *weak* cells, in
    effective same-bank activations between victim refreshes.
    ``weak_cell_density`` in [0, 1] scales how many of the candidate cells
    per row are weak at all; 0 models an invulnerable DIMM (Table 2's M1).

    Profiles are deterministic functions of (dimm_uid, bank, row), so the
    cache is purely an optimisation; it is LRU-bounded at
    ``max_cached_profiles`` so large sweeps cannot grow it without limit.
    A row's thresholds are the first draws of its seeded generator, so
    flip counting caches only them; the bit offsets and directions that
    follow are drawn when a full :meth:`profile` is asked for (flip
    events), which replaces the entry in place.
    ``profiles_cached`` / ``profile_evictions`` make the cache behaviour
    observable.  They are not exported as OBS metrics: both describe one
    process's cache, so under a worker pool they follow which worker ran
    which task, and a merged snapshot would stop being deterministic.
    """

    def __init__(
        self,
        dimm_uid: str,
        median_threshold: float,
        weak_cell_density: float,
        threshold_sigma: float = 0.30,
        max_cached_profiles: int = 8192,
    ) -> None:
        if median_threshold <= 0:
            raise ValueError("median_threshold must be positive")
        if not 0.0 <= weak_cell_density <= 1.0:
            raise ValueError("weak_cell_density must be in [0, 1]")
        if max_cached_profiles < 1:
            raise ValueError("max_cached_profiles must be >= 1")
        self.dimm_uid = dimm_uid
        self.median_threshold = median_threshold
        self.weak_cell_density = weak_cell_density
        self.threshold_sigma = threshold_sigma
        self.max_cached_profiles = max_cached_profiles
        self.profile_evictions = 0
        #: A row's full profile, or only its sorted thresholds.
        self._cache: OrderedDict[
            tuple[int, int], CellProfile | np.ndarray
        ] = OrderedDict()

    @property
    def profiles_cached(self) -> int:
        return len(self._cache)

    def profile(self, bank: int, row: int) -> CellProfile:
        """Weak-cell profile of one row (deterministic, LRU-cached)."""
        key = (bank, row)
        entry = self._cache.get(key)
        if entry is None:
            return self._insert(key, self._draw(bank, row, full=True))
        self._cache.move_to_end(key)
        if isinstance(entry, np.ndarray):
            entry = self._cache[key] = self._draw(bank, row, full=True)
        return entry

    def _thresholds(self, bank: int, row: int) -> np.ndarray:
        """A row's sorted thresholds, drawing nothing else."""
        key = (bank, row)
        entry = self._cache.get(key)
        if entry is None:
            return self._insert(key, self._draw(bank, row, full=False))
        self._cache.move_to_end(key)
        return entry if isinstance(entry, np.ndarray) else entry.thresholds

    def _insert(self, key: tuple[int, int], entry):
        cache = self._cache
        cache[key] = entry
        if len(cache) > self.max_cached_profiles:
            cache.popitem(last=False)
            self.profile_evictions += 1
        return entry

    def _draw(self, bank: int, row: int, full: bool):
        """A row's profile, or (``full`` false) only its thresholds.

        The thresholds are drawn first, so stopping after them leaves
        every value they hold unchanged.
        """
        seed = derive_seed(0xD1A7, self.dimm_uid, bank, row)
        rng = np.random.default_rng(seed)
        n_weak = rng.binomial(_CANDIDATE_CELLS_PER_ROW, self.weak_cell_density)
        if n_weak == 0:
            thresholds = np.empty(0, dtype=np.float64)
            if not full:
                return thresholds
            empty_i = np.empty(0, dtype=np.int64)
            return CellProfile(thresholds, empty_i, empty_i.astype(np.int8))
        mu = np.log(self.median_threshold)
        thresholds = rng.lognormal(mu, self.threshold_sigma, n_weak)
        thresholds.sort()
        if not full:
            return thresholds
        bit_indices = rng.choice(65536, size=n_weak, replace=False).astype(np.int64)
        directions = (rng.random(n_weak) < 0.5).astype(np.int8)
        return CellProfile(thresholds, bit_indices, directions)

    def flips_for(self, bank: int, row: int, peak_disturbance: float) -> list[FlipEvent]:
        """Flip events for a row given its peak unrefreshed disturbance."""
        if peak_disturbance <= 0:
            return []
        prof = self.profile(bank, row)
        count = int(np.searchsorted(prof.thresholds, peak_disturbance, side="right"))
        return [
            FlipEvent(
                bank=bank,
                row=row,
                bit_index=int(prof.bit_indices[i]),
                direction=int(prof.directions[i]),
            )
            for i in range(count)
        ]

    def flip_count_for(self, bank: int, row: int, peak_disturbance: float) -> int:
        """Number of flips without materialising the events."""
        if peak_disturbance <= 0:
            return 0
        thresholds = self._thresholds(bank, row)
        return int(np.searchsorted(thresholds, peak_disturbance, side="right"))

    def flip_counts_for(
        self, bank: int, rows: np.ndarray, peaks: np.ndarray
    ) -> np.ndarray:
        """Flip counts for many victims of one bank, in one vectorised pass.

        Equivalent to ``[flip_count_for(bank, r, p) for r, p in ...]``:
        per-row thresholds are materialised (and LRU-cached) in bulk,
        concatenated, and every victim's count read off a single
        prefix-sum of ``threshold <= peak`` — which equals the per-row
        ``searchsorted(..., side="right")`` since thresholds are sorted.
        This is the device hot path's flip accounting; it draws no bit
        offsets or directions.
        """
        rows = np.asarray(rows, dtype=np.int64)
        peaks = np.asarray(peaks, dtype=np.float64)
        counts = np.zeros(rows.size, dtype=np.int64)
        active = np.nonzero(peaks > 0.0)[0]
        if active.size == 0:
            return counts
        thresholds = [self._thresholds(bank, row) for row in rows[active].tolist()]
        sizes = np.array([t.size for t in thresholds], dtype=np.int64)
        if not sizes.any():
            return counts
        flat = np.concatenate([t for t in thresholds if t.size])
        hits = np.zeros(flat.size + 1, dtype=np.int64)
        np.cumsum(flat <= np.repeat(peaks[active], sizes), out=hits[1:])
        ends = np.cumsum(sizes)
        counts[active] = hits[ends] - hits[ends - sizes]
        return counts
