"""The unified "how much work" API: :class:`RunBudget` + :class:`ExperimentSpec`.

Every expensive workload in the reproduction — Table 6 fuzzing, Figure 11
sweeping, Table 5 repeated reverse engineering, the Figure 5 campaign —
used to invent its own calling convention for the same two questions:
*what* to run (machine, kernel, scale) and *how much* of it (hours,
pattern counts, locations, seeds, workers).  This module factors those
questions into two small dataclasses shared by all of them:

* :class:`ExperimentSpec` names the workload: one machine, one kernel
  configuration, one simulation scale, and the seed name that roots the
  experiment's RNG tree.
* :class:`RunBudget` bounds the workload: virtual campaign hours and/or a
  hard trial cap, plus the worker count and executor backend handed to
  :func:`repro.engine.create_backend`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.common.errors import CalibrationError
from repro.common.rng import RngStream
from repro.cpu.isa import HammerKernelConfig
from repro.system.calibration import SimulationScale
from repro.system.machine import Machine

#: Executor backend names :func:`repro.engine.create_backend` accepts.
#: ``auto`` picks the persistent pool when the host has cores to spare
#: and serial otherwise; the explicit names are honoured verbatim.
BACKEND_CHOICES: tuple[str, ...] = ("auto", "serial", "persistent")

#: Default locations per batched sweep task — large enough to amortise
#: the per-interval Python loop across a chunk, small enough that one
#: task stays a responsive pool work unit and its ``(locations x span)``
#: state matrices stay cache-friendly.  The stream's bank split and its
#: TRR/pTRR/RFM plan are not per-chunk costs: the memory controller
#: keeps them for the next call, so each worker makes them once, on its
#: first chunk.
DEFAULT_BATCH_LOCATIONS = 16


@dataclass(frozen=True)
class RunBudget:
    """How much work an experiment may spend, and on how many workers.

    ``hours`` is virtual campaign time (converted to trial counts by the
    :class:`SimulationScale`, like the paper's 2-hour fuzzing budget);
    ``max_trials`` is a hard cap on trials (patterns, locations or seeds,
    depending on the experiment).  Either may be ``None``; when both are
    given the cap wins.  ``workers`` > 1 fans trials out over the
    executor backend named by ``backend`` (see
    :func:`repro.engine.create_backend`) — results are bit-identical to
    serial execution by construction.
    """

    hours: float | None = None
    max_trials: int | None = None
    workers: int = 1
    backend: str = "auto"
    #: Locations per batched sweep task (a positive int).  Every chunk
    #: size gives bit-identical results; this knob only trades pool load
    #: balance against per-task overhead.
    batch_locations: int = DEFAULT_BATCH_LOCATIONS

    def __post_init__(self) -> None:
        if self.hours is not None and self.hours <= 0:
            raise CalibrationError("RunBudget.hours must be positive")
        if self.max_trials is not None and self.max_trials <= 0:
            raise CalibrationError("RunBudget.max_trials must be positive")
        if self.workers < 1:
            raise CalibrationError("RunBudget.workers must be >= 1")
        if self.backend not in BACKEND_CHOICES:
            raise CalibrationError(
                "RunBudget.backend must be one of "
                + ", ".join(BACKEND_CHOICES)
            )
        if (
            not isinstance(self.batch_locations, int)
            or self.batch_locations < 1
        ):
            raise CalibrationError(
                "RunBudget.batch_locations must be a positive int"
            )

    @classmethod
    def trials(
        cls,
        count: int,
        workers: int = 1,
        backend: str = "auto",
        batch_locations: int = DEFAULT_BATCH_LOCATIONS,
    ) -> "RunBudget":
        """A budget of exactly ``count`` trials (the common spelling)."""
        return cls(
            max_trials=count,
            workers=workers,
            backend=backend,
            batch_locations=batch_locations,
        )

    def resolve_batch_locations(self, trials: int) -> int:
        """Locations per batched task for a ``trials``-location run.

        Clamped to ``trials`` so a tiny run never builds an oversized
        batch.
        """
        return max(1, min(self.batch_locations, trials))

    def resolve_trials(
        self,
        scale: SimulationScale,
        default_hours: float | None = None,
    ) -> int:
        """The number of trials this budget affords at ``scale``.

        ``default_hours`` backs the paper's conventional campaign length
        for experiments (like fuzzing) that historically defaulted to a
        wall-clock budget.
        """
        if self.hours is not None:
            return scale.patterns_for_hours(self.hours, cap=self.max_trials)
        if self.max_trials is not None:
            return self.max_trials
        if default_hours is not None:
            return scale.patterns_for_hours(default_hours)
        raise CalibrationError(
            "RunBudget needs hours or max_trials for this experiment"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """What one experiment runs: machine + kernel + scale + seed root.

    The spec is the stable half of every trial: fuzzing varies the
    pattern, sweeping the location, repeated reverse engineering the seed,
    but all of them execute against one (machine, config, scale) triple.
    ``seed_name`` roots the experiment's deterministic RNG tree; derive
    per-task streams with :meth:`rng` so trial *i* draws the same numbers
    no matter which worker (or how many workers) executes it.
    """

    machine: Machine
    config: HammerKernelConfig
    scale: SimulationScale
    seed_name: str = "experiment"
    #: One expanded-stream memo shared by every session this spec builds:
    #: a parent-side prewarm therefore also warms forked workers' sessions
    #: (fork inherits the dict), keeping the ``hammer.stream_cache.*``
    #: counters — like the executor-memo counters — identical across
    #: worker counts.
    _stream_cache: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )

    def rng(self, *names: object) -> RngStream:
        """A named child stream under this experiment's RNG root."""
        return self.machine.rng.child(
            self.seed_name, self.config.describe(), *names
        )

    def session(self):
        """A :class:`~repro.hammer.session.HammerSession` for this spec."""
        from repro.hammer.session import HammerSession

        return HammerSession(
            machine=self.machine,
            config=self.config,
            disturbance_gain=self.scale.disturbance_gain,
            _stream_cache=self._stream_cache,
        )
