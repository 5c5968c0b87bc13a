"""repro — a full-system reproduction of rhoHammer (MICRO 2025).

rhoHammer revives Rowhammer attacks on recent Intel architectures through
three techniques this package implements end to end on a simulated
platform substrate (DRAM + TRR, memory controller, out-of-order CPU, OS):

* structured pairwise DRAM address-mapping reverse engineering
  (:mod:`repro.reveng`),
* prefetch-based multi-bank hammering (:mod:`repro.hammer`,
  :mod:`repro.patterns`), and
* counter-speculation NOP pseudo-barriers with control-flow obfuscation
  (:mod:`repro.cpu`, :mod:`repro.hammer.nops`).

Quickstart::

    from repro import (
        FuzzingCampaign, RunBudget, build_machine, rhohammer_config,
    )
    from repro.system.calibration import QUICK_SCALE

    machine = build_machine("raptor_lake", "S2", scale=QUICK_SCALE)
    campaign = FuzzingCampaign(
        machine=machine,
        config=rhohammer_config(nop_count=220, num_banks=3),
        scale=QUICK_SCALE,
    )
    report = campaign.execute(RunBudget(hours=0.1, workers=4))
    print(report.total_flips, "bit flips")
"""

from repro.campaign import CampaignReport, RhoHammerCampaign
from repro.engine import (
    ExecutorBackend,
    ExperimentSpec,
    RunBudget,
    create_backend,
)
from repro.cpu.isa import (
    AddressingMode,
    Barrier,
    HammerInstruction,
    HammerKernelConfig,
    baseline_load_config,
    rhohammer_config,
)
from repro.hammer.session import HammerSession, PatternOutcome
from repro.mapping.functions import AddressMapping, BankFunction
from repro.mapping.presets import mapping_for
from repro.patterns.frequency import AggressorPair, NonUniformPattern
from repro.patterns.fuzzer import FuzzingCampaign, FuzzingReport, PatternFuzzer
from repro.patterns.sweep import SweepReport, sweep_pattern
from repro.reveng.algorithm import RevEngResult, RhoHammerRevEng
from repro.reveng.oracle import TimingOracle
from repro.system.calibration import (
    BENCH_SCALE,
    FINE_SCALE,
    QUICK_SCALE,
    SimulationScale,
)
from repro.system.machine import Machine, build_machine

__version__ = "1.0.0"

__all__ = [
    "AddressMapping",
    "CampaignReport",
    "RhoHammerCampaign",
    "AddressingMode",
    "AggressorPair",
    "BENCH_SCALE",
    "BankFunction",
    "Barrier",
    "ExecutorBackend",
    "ExperimentSpec",
    "FINE_SCALE",
    "FuzzingCampaign",
    "FuzzingReport",
    "HammerInstruction",
    "HammerKernelConfig",
    "HammerSession",
    "Machine",
    "NonUniformPattern",
    "PatternFuzzer",
    "PatternOutcome",
    "QUICK_SCALE",
    "RevEngResult",
    "RhoHammerRevEng",
    "RunBudget",
    "SimulationScale",
    "SweepReport",
    "TimingOracle",
    "baseline_load_config",
    "build_machine",
    "create_backend",
    "mapping_for",
    "rhohammer_config",
    "sweep_pattern",
    "__version__",
]
