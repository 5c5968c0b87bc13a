"""Shared-memory publication of derived machine state for pool workers.

Persistent workers are forked once per pool lifetime, so state the parent
derives *after* the fork — memoised :class:`~repro.cpu.executor.
HammerExecutor` kernel results, materialised
:class:`~repro.dram.cells.CellPopulation` weak-cell thresholds — would
normally have to be re-derived in every worker.  This module ships it
instead: the parent packs the backing NumPy arrays into one
``multiprocessing.shared_memory`` segment per publication
(:class:`SharedArrayPack`), sends workers a small picklable control
message describing the layout, and each worker reattaches **read-only**
views over the same physical pages — zero copies, zero re-derivation,
and no way for a worker to corrupt shared state.

Lifetime rules (the teardown bugfix hinges on these):

* the parent owns every segment it publishes and is the only side that
  ``unlink``s, in :meth:`PersistentPoolBackend.close`;
* workers only ``close`` their attachments.  Attaching registers the
  segment with the ``resource_tracker`` again (Python 3.11/3.12 track
  attachments too), which is harmless only because the pool starts the
  tracker before forking (``PersistentPoolBackend._spawn``): every
  worker then reports to the parent's tracker, whose registry is a set,
  and the parent's ``unlink`` retires the one entry.  A worker-side
  unregister would remove the parent's entry and make that ``unlink``
  raise a ``KeyError`` in the tracker; a worker-private tracker would
  unlink the segment when the worker exits;
* seeded caches hold views into the segment, so the parent keeps each
  published pack alive until the pool itself closes.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from typing import Any, Mapping

import numpy as np

from repro.cpu.executor import ExecutionResult

#: Every segment this module creates is named ``rho_exec_<pid>_<seq>`` so
#: leak checks (and humans inspecting ``/dev/shm``) can attribute them.
SEGMENT_PREFIX = "rho_exec"

#: Arrays are packed at 16-byte alignment inside the segment.
_ALIGN = 16

#: Cap on weak-cell profiles shipped per publication: stays under the
#: population's LRU bound so seeding never triggers eviction churn.
MAX_SHARED_PROFILES = 2048

_segment_seq = 0


def _create_segment(size: int) -> shared_memory.SharedMemory:
    global _segment_seq
    while True:
        _segment_seq += 1
        name = f"{SEGMENT_PREFIX}_{os.getpid()}_{_segment_seq}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(1, size)
            )
        except FileExistsError:  # stale segment from a killed run
            continue


class SharedArrayPack:
    """Named NumPy arrays packed into one shared-memory segment.

    The parent builds one with :meth:`publish`, ships :meth:`handle` (a
    plain picklable dict) to workers, and workers rebuild views with
    :meth:`attach` + :meth:`view`.  Worker-side views are read-only.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        entries: dict[str, tuple[str, tuple[int, ...], int]],
        owner: bool,
    ) -> None:
        self._shm = shm
        self._entries = entries
        self._owner = owner
        self._views: dict[str, np.ndarray] = {}

    @classmethod
    def publish(cls, arrays: Mapping[str, np.ndarray]) -> "SharedArrayPack":
        """Copy ``arrays`` into a fresh segment owned by this process."""
        specs = []
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = -(-offset // _ALIGN) * _ALIGN
            specs.append((name, arr, offset))
            offset += arr.nbytes
        shm = _create_segment(offset)
        entries: dict[str, tuple[str, tuple[int, ...], int]] = {}
        for name, arr, off in specs:
            if arr.nbytes:
                dst = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off
                )
                dst[...] = arr
                del dst  # views must not outlive close()
            entries[name] = (arr.dtype.str, tuple(arr.shape), off)
        return cls(shm, entries, owner=True)

    @classmethod
    def attach(cls, handle: dict[str, Any]) -> "SharedArrayPack":
        """Reattach a pack published by another process (read-only use)."""
        shm = shared_memory.SharedMemory(name=handle["name"])
        entries = {
            name: (dtype, tuple(shape), off)
            for name, (dtype, shape, off) in handle["entries"].items()
        }
        return cls(shm, entries, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def handle(self) -> dict[str, Any]:
        """A picklable description workers can :meth:`attach` from."""
        return {"name": self._shm.name, "entries": dict(self._entries)}

    def view(self, name: str) -> np.ndarray:
        """A read-only array view over the segment (cached per pack)."""
        cached = self._views.get(name)
        if cached is not None:
            return cached
        dtype, shape, off = self._entries[name]
        arr = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=off
        )
        arr.setflags(write=False)
        self._views[name] = arr
        return arr

    def close(self) -> None:
        """Drop this process's attachment (keeps the segment alive)."""
        self._views.clear()
        try:
            self._shm.close()
        except BufferError:  # outstanding views in caches; exit reclaims
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner side only; idempotent)."""
        self.close()
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Machine-state publication: executor memo + weak-cell thresholds.
# ----------------------------------------------------------------------
def export_machine_state(
    machine: Any,
) -> tuple[dict[str, Any], SharedArrayPack] | None:
    """Pack the machine's derived caches for worker adoption.

    Returns ``(control, pack)`` — ``control`` is the picklable message to
    send workers, ``pack`` the live segment the parent must keep until
    pool close — or ``None`` when there is nothing worth shipping.
    """
    arrays: dict[str, np.ndarray] = {}
    control: dict[str, Any] = {"executor": [], "cells": None}

    # Peek at the lazy attribute: an unbuilt executor has nothing cached.
    executor = getattr(machine, "_executor", None)
    if executor is not None:
        for slot, (key, result) in enumerate(executor.export_memo()):
            arrays[f"x{slot}.times"] = result.times_ns
            arrays[f"x{slot}.ids"] = result.address_ids
            control["executor"].append(
                {
                    "key": key,
                    "slot": slot,
                    "miss_rate": result.miss_rate,
                    "duration_ns": result.duration_ns,
                    "issued": result.issued,
                    "window": result.window,
                }
            )

    dimm = getattr(machine, "dimm", None)
    if dimm is not None:
        exported = dimm.export_shared_cells(limit=MAX_SHARED_PROFILES)
        if exported is not None:
            index, thresholds = exported
            arrays["cells.thresholds"] = thresholds
            control["cells"] = index

    if not arrays:
        return None
    pack = SharedArrayPack.publish(arrays)
    control["handle"] = pack.handle()
    return control, pack


def adopt_machine_state(
    machine: Any, control: dict[str, Any]
) -> SharedArrayPack | None:
    """Worker side: seed caches with read-only views into the segment."""
    if machine is None:
        return None
    pack = SharedArrayPack.attach(control["handle"])
    if control["executor"]:
        entries = []
        for item in control["executor"]:
            slot = item["slot"]
            entries.append(
                (
                    item["key"],
                    ExecutionResult(
                        times_ns=pack.view(f"x{slot}.times"),
                        address_ids=pack.view(f"x{slot}.ids"),
                        miss_rate=item["miss_rate"],
                        duration_ns=item["duration_ns"],
                        issued=item["issued"],
                        window=item["window"],
                    ),
                )
            )
        machine.executor.seed_memo(entries)
    if control["cells"] is not None:
        machine.dimm.adopt_shared_cells(
            control["cells"], pack.view("cells.thresholds")
        )
    return pack
