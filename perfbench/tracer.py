"""Outside-in span tracer: wraps each layer's public calls, no program edits.

:func:`install` replaces the public functions listed in :data:`LAYERS` at
class or module level with timing wrappers and :func:`uninstall` puts the
originals back.  Because the wrappers live on the classes, persistent-pool
workers forked during a traced round inherit them.

Each call becomes one span ``(id, parent, pid, layer, name, start, end,
self, trial, counters)`` kept in memory.  A span's self time is its
duration minus the part its child spans cover; child spans are synchronous
calls in the same process, so that part is the sum of their durations.
Spans opened in a forked worker name the parent-process span that forked
them as their parent, but their time is not subtracted from it (the parent
waits while workers compute).  A worker appends its spans to a pickle file
each time its outermost span closes; the parent reads them back after the
round.

Work counters are read from call arguments, results and public counters
(``HammerExecutor.cache_hits``, ``CellPopulation.profiles_cached`` ...),
so they repeat exactly for a seed.
"""

from __future__ import annotations

import glob
import os
import pickle
import time
from typing import Any, Callable

from repro.cpu.executor import HammerExecutor
from repro.dram.cells import CellPopulation
from repro.dram.device import Dimm
from repro.dram.mitigations import (
    RandomizedRowSwap,
    RowRemapper,
    ScrambledMapping,
)
from repro.dram.trr import PtrrShield, TrrSampler
from repro.engine import PersistentPoolBackend, SerialBackend
from repro.hammer.session import HammerSession
from repro.memctrl.controller import MemoryController
from repro.patterns import sweep as sweep_module
from repro.patterns.fuzzer import FuzzingCampaign, PatternFuzzer

# Span record fields.
ID, PARENT, PID, LAYER, NAME, START, END, SELF, TRIAL, COUNTERS = range(10)


class Tracer:
    """In-memory span store plus the open-span stack of this process."""

    def __init__(self, trial_unit: str, spill_dir: str) -> None:
        self.trial_unit = trial_unit
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.parent_pid = self.pid
        self.spans: list[tuple] = []
        #: Open calls, innermost last: [id, parent, trial, start, child_s].
        self.stack: list[list[Any]] = []
        self.remote_parent: tuple[int, int] | None = None
        self.trial: str | None = None
        self._patterns: dict[int, int] = {}
        self._seq = 0

    # -- process lifecycle --------------------------------------------
    def after_fork(self) -> None:
        """In a forked worker: start an empty store under the forking span."""
        self.pid = os.getpid()
        self.remote_parent = self.stack[-1][0] if self.stack else None
        self.spans = []
        self.stack = []
        self._seq = 0

    def spill(self) -> None:
        """Worker side: append finished spans to this worker's spill file."""
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.pkl")
        with open(path, "ab") as fh:
            pickle.dump(self.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans = []

    def collect_workers(self) -> list[tuple]:
        """Parent side: read back and delete every worker spill file."""
        spans: list[tuple] = []
        pattern = os.path.join(self.spill_dir, "spans-*.pkl")
        for path in sorted(glob.glob(pattern)):
            with open(path, "rb") as fh:
                while True:
                    try:
                        spans.extend(pickle.load(fh))
                    except EOFError:
                        break
            os.remove(path)
        return spans

    # -- spans ----------------------------------------------------------
    def trial_of(self, pattern: Any, base_row: int) -> str:
        if self.trial_unit == "location":
            return f"row{base_row}"
        ordinal = self._patterns.setdefault(id(pattern), len(self._patterns))
        return f"pattern{ordinal}"

    def open(self) -> list[Any]:
        """Push the frame of a call about to start."""
        self._seq += 1
        stack = self.stack
        parent = stack[-1][0] if stack else self.remote_parent
        frame = [(self.pid, self._seq), parent, self.trial, 0.0, 0.0]
        stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def close(self, frame: list[Any], end: float, layer: str, name: str,
              counters: dict | None) -> None:
        """Pop ``frame`` and record its span.

        Finished spans are tuples of atoms (plus an optional counter
        dict), which the cyclic garbage collector stops tracking, so
        hundreds of thousands of them do not slow the traced program.
        """
        self.stack.pop()
        start = frame[3]
        duration = end - start
        self.spans.append((frame[0], frame[1], self.pid, layer, name, start,
                           end, duration - frame[4], frame[2], counters))
        if self.stack:
            self.stack[-1][4] += duration


#: The tracer of the traced round in progress, if any.
ACTIVE: Tracer | None = None


def _after_fork_in_child() -> None:
    if ACTIVE is not None:
        ACTIVE.after_fork()


os.register_at_fork(after_in_child=_after_fork_in_child)


# -- work counters read at layer boundaries ------------------------------
def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _stream_shape(dimm: Dimm, bank_streams, clamp: bool):
    """Intervals, ACTs and interval-weighted window span of one pass."""
    t_refi = dimm.timing.t_refi
    rows_total = dimm.spec.geometry.rows
    intervals = acts = span_cells = 0
    for times, rows in bank_streams.values():
        if times.size == 0:
            continue
        n = int(times[-1] // t_refi) + 1
        lo = int(rows.min()) - 2
        hi = int(rows.max()) + 2
        if clamp:
            lo, hi = max(0, lo), min(rows_total - 1, hi)
        intervals += n
        acts += int(times.size)
        span_cells += n * (hi - lo + 1)
    return intervals, acts, span_cells


def _dram_hammer(args, kwargs, result, pre):
    dimm = args[0]
    intervals, acts, cells = _stream_shape(
        dimm, _arg(args, kwargs, 1, "bank_streams"), clamp=True
    )
    return {"locations": 1, "batched": 0, "intervals": intervals,
            "acts": acts, "span_cells": cells}


def _dram_hammer_batch(args, kwargs, result, pre):
    dimm = args[0]
    streams = _arg(args, kwargs, 1, "bank_streams")
    deltas = _arg(args, kwargs, 2, "row_deltas")
    supported, _ = dimm.batch_supported(streams, deltas)
    n = len(deltas)
    if not supported or n == 1:
        return None  # ran as per-location Dimm.hammer calls, counted there
    intervals, acts, cells = _stream_shape(dimm, streams, clamp=False)
    return {"locations": n, "batched": n, "intervals": intervals,
            "acts": acts * n, "span_cells": cells}


def _cpu_pre(args, kwargs):
    executor = args[0]
    return executor.cache_hits, executor.cache_misses


def _cpu_execute(args, kwargs, result, pre):
    executor = args[0]
    return {"hits": executor.cache_hits - pre[0],
            "misses": executor.cache_misses - pre[1]}


def _cells_pre(args, kwargs):
    population = args[0]
    return population.profiles_cached, population.profile_evictions


def _cells_flip_counts(args, kwargs, result, pre):
    population = args[0]
    evictions = population.profile_evictions - pre[1]
    return {
        "victims": len(_arg(args, kwargs, 2, "rows")),
        "materialised": population.profiles_cached - pre[0] + evictions,
        "evictions": evictions,
    }


def _engine_map(args, kwargs, result, pre):
    return {
        "tasks": len(_arg(args, kwargs, 2, "tasks")),
        "workers": result.workers,
        "retries": result.retries,
        "task_errors": len(result.errors),
    }


def _hammer_trial(args, kwargs, rows_param: str) -> str:
    """The trial id a hammer call and everything below it carry.

    A batch carries the id of its first location.
    """
    rows = _arg(args, kwargs, 2, rows_param)
    first = int(rows[0]) if rows_param == "base_rows" else int(rows)
    return ACTIVE.trial_of(_arg(args, kwargs, 1, "pattern"), first)


#: (layer, owner, attribute, pre-hook, post-hook).  Pre-hooks read public
#: counters before the call; post-hooks return the span's work counters.
LAYERS: list[tuple] = [
    ("patterns", FuzzingCampaign, "execute", None, None),
    ("patterns", PatternFuzzer, "generate", None, None),
    ("patterns", sweep_module, "sweep_pattern", None, None),
    ("engine", SerialBackend, "map", None, _engine_map),
    ("engine", PersistentPoolBackend, "map", None, _engine_map),
    ("engine", PersistentPoolBackend, "close", None, None),
    ("hammer", HammerSession, "run_pattern", None, None),
    ("hammer", HammerSession, "run_pattern_batch", None, None),
    ("hammer", HammerSession, "prepare_stream", None, None),
    ("cpu", HammerExecutor, "execute", _cpu_pre, _cpu_execute),
    ("memctrl", MemoryController, "execute_acts", None, None),
    ("memctrl", MemoryController, "execute_acts_batch", None, None),
    ("dram.remap", RowRemapper, "remap", None, None),
    ("dram.remap", ScrambledMapping, "remap", None, None),
    ("dram.remap", RandomizedRowSwap, "remap", None, None),
    ("dram", Dimm, "hammer", None, _dram_hammer),
    ("dram", Dimm, "hammer_batch", None, _dram_hammer_batch),
    ("dram.trr", TrrSampler, "observe", None, None),
    ("dram.trr", TrrSampler, "on_ref", None, None),
    ("dram.trr", PtrrShield, "refresh_mask", None, None),
    ("dram.cells", CellPopulation, "flip_counts_for", _cells_pre,
     _cells_flip_counts),
]

#: Hammer entry points whose spans start a trial, and their rows parameter.
_TRIAL_ROOTS = {"run_pattern": "base_row", "run_pattern_batch": "base_rows"}


def _wrap(layer: str, name: str, original: Callable, pre_hook, post_hook):
    rows_param = _TRIAL_ROOTS.get(original.__name__)

    def traced(*args, **kwargs):
        tracer = ACTIVE
        pre = pre_hook(args, kwargs) if pre_hook is not None else None
        outer_trial = tracer.trial
        if rows_param is not None and outer_trial is None:
            tracer.trial = _hammer_trial(args, kwargs, rows_param)
        frame = tracer.open()
        try:
            result = original(*args, **kwargs)
            end = time.perf_counter()
        except BaseException:
            tracer.close(frame, time.perf_counter(), layer, name, None)
            raise
        finally:
            tracer.trial = outer_trial
        counters = (post_hook(args, kwargs, result, pre)
                    if post_hook is not None else None)
        tracer.close(frame, end, layer, name, counters)
        if not tracer.stack and tracer.pid != tracer.parent_pid:
            tracer.spill()
        return result

    traced.__wrapped__ = original
    traced.__name__ = getattr(original, "__name__", name)
    traced.__doc__ = getattr(original, "__doc__", None)
    return traced


_saved: list[tuple[Any, str, Any]] = []


def install(tracer: Tracer) -> None:
    """Activate ``tracer`` and wrap every public call in :data:`LAYERS`."""
    global ACTIVE
    if _saved:
        raise RuntimeError("tracer already installed")
    ACTIVE = tracer
    for layer, owner, attr, pre_hook, post_hook in LAYERS:
        original = owner.__dict__[attr]
        _saved.append((owner, attr, original))
        qualified = f"{getattr(owner, '__name__', owner)}.{attr}"
        setattr(owner, attr,
                _wrap(layer, qualified, original, pre_hook, post_hook))


def uninstall() -> None:
    """Restore every wrapped attribute and deactivate the tracer."""
    global ACTIVE
    while _saved:
        owner, attr, original = _saved.pop()
        setattr(owner, attr, original)
    ACTIVE = None


# -- roll-up --------------------------------------------------------------
def rollup(spans: list[tuple], parent_pid: int, wall_s: float) -> dict:
    """Per-layer self time and work counters of one traced round.

    ``wall_s`` is the round's timed wall; the part of it no parent-side
    outermost span covers is ``other``.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, dict[str, float]] = {}
    top_s = busy_s = capacity_s = 0.0
    map_ids = {span[ID] for span in spans if span[NAME].endswith(".map")}
    for span in spans:
        layer = span[LAYER]
        self_s[layer] = self_s.get(layer, 0.0) + span[SELF]
        calls[layer] = calls.get(layer, 0) + 1
        if span[COUNTERS]:
            bucket = counters.setdefault(layer, {})
            for key, value in span[COUNTERS].items():
                bucket[key] = bucket.get(key, 0) + value
        duration = span[END] - span[START]
        if span[PARENT] in map_ids:
            # Task work: a call under a serial map, or a worker's
            # outermost span.
            busy_s += duration
        elif span[PARENT] is None and span[PID] == parent_pid:
            top_s += duration
        if span[ID] in map_ids and span[COUNTERS]:
            capacity_s += duration * span[COUNTERS]["workers"]
    return {
        "self_s": self_s,
        "calls": calls,
        "counters": counters,
        "other_s": max(0.0, wall_s - top_s),
        "worker_busy_s": busy_s,
        "worker_capacity_s": capacity_s,
    }
