"""Multi-threaded hammering (Section 4.5's negative result).

Prior DDR3-era work raised activation rates by hammering from several
threads.  The paper summarises WhistleBlower's DDR4 finding: against TRR,
multi-threaded hammering is *less* effective than single-threaded, and
worsens with more threads — asynchronous per-thread requests collide in
the memory-controller queue and scramble the non-uniform pattern, while
enforcing a global order through locks re-serialises everything at a
lower rate than one thread.  Both failure modes are modelled here:

* ``free_running`` — each thread executes the full pattern independently;
  the memory controller merges the streams in arrival order, which
  interleaves the threads' pattern phases randomly.  Aggregate ACT rate
  rises, pattern fidelity collapses.
* ``lock_step`` — a global lock serialises the threads.  Order is
  preserved but each access pays the synchronisation overhead, dropping
  the rate below the single-thread baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.cpu.isa import HammerKernelConfig
from repro.hammer.multibank import interleave_stream, multibank_addresses
from repro.hammer.session import PatternOutcome, stretched_activations
from repro.patterns.frequency import NonUniformPattern
from repro.system.machine import Machine

#: Lock hand-off cost per access under the lock-step policy (uncontended
#: futex + cacheline ping-pong between cores).
LOCK_OVERHEAD_NS = 38.0

#: Queue-collision serialisation: unsynchronised threads lose the orderly
#: bank rotation a single thread maintains, so same-bank back-to-back
#: requests stall on the row cycle and the aggregate rate *drops* as
#: threads are added (He et al.'s observed cause).  The penalty scales
#: the merged inter-access spacing by (1 + factor * (1 - 1/threads)).
COLLISION_FACTOR = 0.9


class ThreadPolicy(Enum):
    FREE_RUNNING = "free-running"
    LOCK_STEP = "lock-step"


@dataclass
class MultiThreadSession:
    """Executes one pattern from ``num_threads`` hammering threads."""

    machine: Machine
    config: HammerKernelConfig
    num_threads: int
    policy: ThreadPolicy = ThreadPolicy.FREE_RUNNING
    disturbance_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError("need at least one thread")

    def run_pattern(
        self,
        pattern: NonUniformPattern,
        base_row: int,
        activations: int,
    ) -> PatternOutcome:
        machine = self.machine
        banks = list(range(self.config.num_banks))
        activations = stretched_activations(machine, self.config, activations)
        per_thread = max(
            1, activations // (pattern.base_period * len(banks) * self.num_threads)
        )

        # Each thread independently runs the kernel over the pattern,
        # starting at its own phase (threads are never slot-aligned) and
        # drifting at its own pace.
        rng = machine.rng.child("mt", self.num_threads, base_row)
        thread_results = []
        skews = 1.0 + rng.uniform(-0.04, 0.04, size=self.num_threads)
        for thread in range(self.num_threads):
            slot_ids = pattern.intended_stream(per_thread)
            offset = int(rng.integers(0, pattern.base_period))
            slot_ids = np.roll(slot_ids, offset)
            flat_ids, flat_banks = interleave_stream(slot_ids, len(banks))
            combined = flat_ids.astype(np.int64) * len(banks) + flat_banks
            executor = machine.executor
            result = executor.execute(combined, self.config)
            thread_results.append((result, float(skews[thread])))

        merged_times, merged_ids, duration, issued = self._merge(thread_results)

        addr_table = multibank_addresses(
            machine.mapping, pattern.aggressor_row_offsets(), base_row, banks
        )
        flat_addrs = addr_table.reshape(-1)
        phys = flat_addrs[merged_ids]
        result = machine.controller.execute_acts(
            merged_times, phys, collect_events=False,
            disturbance_gain=self.disturbance_gain,
        )
        survivors = int(merged_ids.size)
        return PatternOutcome(
            flips=result.flips,
            flip_count=result.flip_count,
            cache_miss_rate=survivors / max(1, issued),
            duration_ns=duration,
            acts_issued=issued,
            acts_executed=survivors,
            disorder_window=thread_results[0][0].window,
        )

    # ------------------------------------------------------------------
    def _merge(self, results):
        """Combine per-thread streams per the threading policy."""
        issued = sum(r.issued for r, _ in results)
        if self.policy is ThreadPolicy.LOCK_STEP:
            return self._merge_lock_step(results, issued)
        return self._merge_free_running(results, issued)

    def _physical_floor_ns(self) -> float:
        """Minimum aggregate spacing the memory system allows."""
        from repro.cpu.timing import CHANNEL_ACT_FLOOR_NS

        timing = self.machine.dimm.timing
        return max(CHANNEL_ACT_FLOOR_NS, timing.t_rc / self.config.num_banks)

    def _merge_free_running(self, results, issued):
        """Threads race: the MC serves requests in arrival-time order.

        Each thread progresses at its own (skewed) pace, so their pattern
        phases drift past each other and the merged order scrambles the
        non-uniform structure.  The aggregate rate is re-timed to the
        memory system's physical floor — extra threads cannot push the
        channel or the target banks beyond their activation ceilings, so
        the rate gain saturates quickly while the scrambling keeps
        growing.
        """
        times = np.concatenate(
            [r.times_ns * skew for r, skew in results]
        )
        ids = np.concatenate([r.address_ids for r, _ in results])
        order = np.argsort(times, kind="stable")
        ids = ids[order]
        merged = times[order]
        # Re-time to respect the physical floor: requests that arrive
        # faster than the memory system can activate get queued back.
        floor = self._physical_floor_ns()
        single_duration = max(r.duration_ns for r, _ in results)
        collision = 1.0 + COLLISION_FACTOR * (1.0 - 1.0 / self.num_threads)
        # Per-surviving-access spacing of ONE thread, inflated by the
        # collision penalty: the queue contention eats the parallelism
        # (net effect per WhistleBlower; our count-based TRR abstraction
        # cannot express the sampler-side part of the disturbance, so the
        # penalty carries it).
        survivors_per_thread = max(1, merged.size // self.num_threads)
        single_spacing = single_duration / survivors_per_thread
        spacing = max(floor, single_spacing * collision)
        retimed = np.maximum.accumulate(
            np.maximum(merged, (np.arange(merged.size) + 1.0) * spacing)
        )
        duration = float(retimed[-1]) if retimed.size else 0.0
        return retimed, ids, duration, issued

    def _merge_lock_step(self, results, issued):
        """A global lock serialises the threads' accesses round-robin.

        Pattern order survives, but every access pays the lock hand-off,
        so the aggregate rate drops below a single free thread's.
        """
        n = min(r.address_ids.size for r, _ in results)
        stacked = np.stack([r.address_ids[:n] for r, _ in results], axis=1)
        ids = stacked.reshape(-1)
        per_access = (
            max(r.duration_ns / max(1, r.issued) for r, _ in results)
            + LOCK_OVERHEAD_NS
        )
        times = (np.arange(ids.size, dtype=np.float64) + 1.0) * per_access
        duration = per_access * issued
        return times, ids, duration, issued
