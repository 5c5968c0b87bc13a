"""The hammer executor: intended access stream -> realised ACT stream.

This is the hot path of the whole simulator, so it is fully vectorised.
Given the program-order sequence of aggressor accesses one kernel run
intends (as indices into a small address table) and a kernel
configuration, it produces:

* the subset of accesses that actually activate DRAM (flush->prefetch
  inversions drop the rest as cache hits),
* their execution order (local reordering within the speculation window),
* their issue timestamps (from the throughput model), and
* the realised cache miss rate and total run time (the Figure 8 metrics).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.common.rng import RngStream
from repro.cpu.isa import HammerKernelConfig
from repro.cpu.platform import PlatformSpec
from repro.cpu.speculation import DisorderModel, revisit_distances
from repro.cpu.timing import ThroughputModel
from repro.dram.timing import DdrTiming
from repro.obs import OBS

#: Default capacity of the per-executor result memo (distinct
#: (stream, kernel) pairs).  Sweeps replay one pattern at many base rows
#: and fuzzing re-evaluates survivors, so a small LRU captures nearly all
#: repeats; 0 disables memoisation entirely.
DEFAULT_EXECUTE_CACHE = 64


def stream_fingerprint(intended_ids: np.ndarray) -> bytes:
    """The digest that names an intended id stream in the executor memo.

    Memo keys are ``(fingerprint, n, config)``.  Hashing a BENCH-scale
    stream costs a few milliseconds, so callers that replay one stream
    many times compute this once and pass it to
    :meth:`HammerExecutor.execute`.
    """
    ids = np.ascontiguousarray(intended_ids, dtype=np.int64)
    return hashlib.blake2b(ids, digest_size=16).digest()


@dataclass(frozen=True)
class ExecutionResult:
    """Realised behaviour of one kernel run."""

    times_ns: np.ndarray  # issue time of each surviving DRAM access
    address_ids: np.ndarray  # table index of each surviving access
    miss_rate: float  # survivors / issued (the HPC-observed miss rate)
    duration_ns: float  # wall time of the whole run
    issued: int  # accesses the kernel issued (incl. dropped ones)
    window: float  # resolved disorder window, for diagnostics

    @property
    def survivors(self) -> int:
        return int(self.address_ids.size)

    @property
    def activation_rate_per_sec(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.survivors / (self.duration_ns * 1e-9)


class HammerExecutor:
    """Executes hammer kernels for one platform.

    :meth:`execute` is memoised behind a bounded LRU keyed by (stream
    fingerprint, kernel config): the realised stream is a pure function of
    the intended id sequence and the kernel (every random draw comes from
    an RNG child derived only from ``(n, config)``), and sweeping replays
    the same pattern at many base rows, so each repeat would redo an
    identical drop/shuffle/timing computation.  Cached results are
    returned with read-only arrays; set ``cache_size=0`` to disable.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        timing: DdrTiming | None = None,
        rng: RngStream | None = None,
        cache_size: int = DEFAULT_EXECUTE_CACHE,
    ) -> None:
        self.platform = platform
        self.disorder = DisorderModel(platform)
        self.throughput = ThroughputModel(platform, timing)
        self.rng = rng or RngStream(0xC0DE, f"executor/{platform.name}")
        self.cache_size = cache_size
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache: OrderedDict[tuple, ExecutionResult] = OrderedDict()

    def execute(
        self,
        intended_ids: np.ndarray,
        config: HammerKernelConfig,
        fingerprint: bytes | None = None,
    ) -> ExecutionResult:
        """Run one kernel over the intended program-order access stream.

        ``fingerprint`` is the stream's :func:`stream_fingerprint`, if the
        caller already has it; the memo lookup hashes the stream only
        when it is ``None``.
        """
        ids = np.ascontiguousarray(intended_ids, dtype=np.int64)
        n = int(ids.size)
        if n == 0:
            return ExecutionResult(
                times_ns=np.empty(0),
                address_ids=np.empty(0, dtype=np.int64),
                miss_rate=0.0,
                duration_ns=0.0,
                issued=0,
                window=0.0,
            )
        key = None
        if self.cache_size > 0:
            if fingerprint is None:
                fingerprint = stream_fingerprint(ids)
            key = (fingerprint, n, config)
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                if OBS.enabled:
                    OBS.metrics.counter("cpu.executor.cache_hits").inc()
                return cached
        result = self._execute(ids, n, config)
        if key is not None:
            self.cache_misses += 1
            result.times_ns.setflags(write=False)
            result.address_ids.setflags(write=False)
            self._cache[key] = result
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
            if OBS.enabled:
                OBS.metrics.counter("cpu.executor.cache_misses").inc()
        return result

    def _execute(
        self, ids: np.ndarray, n: int, config: HammerKernelConfig
    ) -> ExecutionResult:
        profile = self.disorder.profile(config)
        rng = self.rng.child("run", n, config.describe())

        # 1. Which accesses survive the flush->prefetch race.
        distances = revisit_distances(ids)
        p_drop = self.disorder.drop_probabilities(distances, profile)
        survive = rng.random(n) >= p_drop
        miss_rate = float(np.count_nonzero(survive)) / n

        # 2. Issue times.  Every issued slot consumes pipeline time whether
        #    or not its activation survives; memory-side bounds only bind
        #    in proportion to real activations (via miss_rate).
        cost = self.throughput.iteration_cost(config, miss_rate=miss_rate)
        per_slot = cost.total_ns
        duration = per_slot * n

        # 3. Execution order within the speculation window, then filter to
        #    survivors.  Times are per execution slot, so after the shuffle
        #    the i-th executed access happens at (i + 1) * per_slot.
        order = self.disorder.shuffle_order(n, profile, rng.child("shuffle"))
        executed_ids = ids[order]
        executed_survive = survive[order]
        slot_times = (np.arange(n, dtype=np.float64) + 1.0) * per_slot
        times = slot_times[executed_survive]
        out_ids = executed_ids[executed_survive]
        return ExecutionResult(
            times_ns=times,
            address_ids=out_ids,
            miss_rate=miss_rate,
            duration_ns=duration,
            issued=n,
            window=profile.window,
        )
