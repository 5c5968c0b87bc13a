"""The full ρHammer workflow (Figure 5) as one orchestrated campaign.

The paper's framework chains five phases; this module packages them into a
single reproducible object so a complete attack is one call:

1. **reverse-engineer** the DRAM address mapping (Algorithm 1) and
   cross-validate it;
2. **tune** the NOP pseudo-barrier for the platform (Section 4.4);
3. **fuzz** non-uniform patterns with the tuned kernel (Section 4.1);
4. **refine** the best pattern by local search (Blacksmith-style);
5. **sweep** the refined pattern across locations and, optionally,
   run the **end-to-end exploit** (Section 5.3).

Each phase's artefacts are kept on the :class:`CampaignReport`, so a
campaign doubles as a structured record of the attack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.isa import HammerKernelConfig, rhohammer_config
from repro.engine import RunBudget
from repro.exploit.endtoend import (
    EndToEndAttack,
    ExploitOutcome,
    canonical_compact_pattern,
    find_compact_pattern,
)
from repro.hammer.nops import NopTuningResult, tune_nop_count
from repro.obs import OBS
from repro.patterns.frequency import NonUniformPattern
from repro.patterns.fuzzer import FuzzingCampaign, FuzzingReport
from repro.patterns.refine import RefinementResult, refine_pattern
from repro.patterns.sweep import SweepReport, sweep_pattern
from repro.reveng.algorithm import RevEngResult, RhoHammerRevEng
from repro.reveng.oracle import TimingOracle
from repro.reveng.validation import ValidationReport, cross_validate
from repro.system.calibration import SimulationScale
from repro.system.machine import Machine


@dataclass
class CampaignReport:
    """Everything one campaign produced, phase by phase."""

    reveng: RevEngResult | None = None
    mapping_validation: ValidationReport | None = None
    tuning: NopTuningResult | None = None
    kernel: HammerKernelConfig | None = None
    fuzzing: FuzzingReport | None = None
    refinement: RefinementResult | None = None
    best_pattern: NonUniformPattern | None = None
    sweep: SweepReport | None = None
    exploit: ExploitOutcome | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """Did the campaign reach reproducible bit flips?

        A skipped sweep phase must not hide a successful exploit: either a
        flip-producing sweep or a completed end-to-end exploit counts.
        """
        if self.sweep is not None and self.sweep.total_flips > 0:
            return True
        return self.exploit is not None and self.exploit.succeeded

    def summary(self) -> str:
        lines = []
        if self.reveng is not None:
            validated = (
                self.mapping_validation.validated
                if self.mapping_validation
                else "n/a"
            )
            lines.append(
                f"mapping    : recovered in {self.reveng.runtime_seconds:.1f}s"
                f" (validated={validated})"
            )
        if self.tuning is not None:
            lines.append(
                f"tuning     : optimal NOPs = {self.tuning.best_nop_count}"
            )
        if self.fuzzing is not None:
            lines.append(
                f"fuzzing    : {self.fuzzing.total_flips} flips over "
                f"{self.fuzzing.patterns_tried} patterns "
                f"({self.fuzzing.effective_patterns} effective)"
            )
        if self.refinement is not None:
            lines.append(
                f"refinement : {self.refinement.seed_flips} -> "
                f"{self.refinement.best_flips} flips"
            )
        if self.sweep is not None:
            lines.append(
                f"sweeping   : {self.sweep.total_flips} flips at "
                f"{self.sweep.flips_per_minute:,.0f}/min over "
                f"{len(self.sweep.base_rows)} locations"
            )
        if self.exploit is not None:
            lines.append(
                f"exploit    : page-table control={self.exploit.succeeded} "
                f"({self.exploit.exploitable_flips} exploitable flips)"
            )
        lines.extend(f"note       : {note}" for note in self.notes)
        return "\n".join(lines) if lines else "(empty campaign)"


@dataclass
class RhoHammerCampaign:
    """Drives the Figure 5 workflow on one machine."""

    machine: Machine
    scale: SimulationScale
    fuzz_patterns: int = 20
    sweep_locations: int = 12
    refine_rounds: int = 2
    nop_grid: tuple[int, ...] = (0, 50, 100, 220, 400, 1000)
    run_exploit: bool = False
    #: Worker-pool width for the fuzzing and sweeping phases; results are
    #: bit-identical for any value (see :mod:`repro.engine`).
    workers: int = 1
    #: Executor backend for those phases (``auto``/``serial``/
    #: ``persistent``); ``auto`` picks the persistent pool when the host
    #: has cores to spare.
    backend: str = "auto"

    def run(self) -> CampaignReport:
        report = CampaignReport()
        with OBS.tracer.span(
            "campaign.run",
            platform=self.machine.platform.name,
            dimm=self.machine.dimm.spec.dimm_id,
            workers=self.workers,
        ) as span:
            phases: tuple[tuple[str, object], ...] = (
                ("reveng", self._phase_reveng),
                ("tune", self._phase_tune),
                ("fuzz", self._phase_fuzz),
                ("refine", self._phase_refine),
                ("sweep", self._phase_sweep),
            )
            for name, phase in phases:
                with OBS.tracer.span(f"campaign.{name}"):
                    phase(report)
            if self.run_exploit:
                with OBS.tracer.span("campaign.exploit"):
                    self._phase_exploit(report)
            span.set(succeeded=report.succeeded)
            if OBS.enabled:
                OBS.metrics.counter("campaign.runs").inc()
                if report.succeeded:
                    OBS.metrics.counter("campaign.successes").inc()
        return report

    # ------------------------------------------------------------------
    def _phase_reveng(self, report: CampaignReport) -> None:
        oracle = TimingOracle.allocate(
            self.machine, fraction=0.5, seed_name="campaign-reveng"
        )
        report.reveng = RhoHammerRevEng(oracle, collect_heatmap=False).run()
        report.mapping_validation = cross_validate(
            report.reveng.mapping, oracle, probes=32,
            seed_name="campaign-validate",
        )
        if not report.mapping_validation.validated:
            report.notes.append(
                "recovered mapping failed cross-validation; continuing with "
                "the controller's ground truth would be cheating, aborting"
            )

    def _phase_tune(self, report: CampaignReport) -> None:
        tuning = tune_nop_count(
            self.machine,
            rhohammer_config(nop_count=0, num_banks=3),
            canonical_compact_pattern(),
            base_rows=[5000, 21000],
            activations_per_row=self.scale.acts_per_pattern,
            nop_grid=self.nop_grid,
            scale=self.scale,
        )
        report.tuning = tuning
        report.kernel = rhohammer_config(
            nop_count=tuning.best_nop_count, num_banks=3
        )

    def _phase_fuzz(self, report: CampaignReport) -> None:
        assert report.kernel is not None
        fuzzing = FuzzingCampaign(
            machine=self.machine,
            config=report.kernel,
            scale=self.scale,
            trials_per_pattern=2,
            seed_name="campaign-fuzz",
        ).execute(
            RunBudget(
                max_trials=self.fuzz_patterns,
                workers=self.workers,
                backend=self.backend,
            )
        )
        report.fuzzing = fuzzing
        report.best_pattern = fuzzing.best_pattern
        report.notes.extend(fuzzing.notes)

    def _phase_refine(self, report: CampaignReport) -> None:
        if report.best_pattern is None or report.kernel is None:
            report.notes.append("no effective pattern found; skipping refine")
            return
        refinement = refine_pattern(
            self.machine,
            report.kernel,
            report.best_pattern,
            self.scale,
            max_rounds=self.refine_rounds,
            seed_name="campaign-refine",
        )
        report.refinement = refinement
        report.best_pattern = refinement.best_pattern

    def _phase_sweep(self, report: CampaignReport) -> None:
        if report.best_pattern is None or report.kernel is None:
            return
        report.sweep = sweep_pattern(
            self.machine,
            report.kernel,
            report.best_pattern,
            RunBudget(
                max_trials=self.sweep_locations,
                workers=self.workers,
                backend=self.backend,
            ),
            scale=self.scale,
            seed_name="campaign-sweep",
        )
        report.notes.extend(report.sweep.notes)

    def _phase_exploit(self, report: CampaignReport) -> None:
        if report.kernel is None:
            return
        pattern, flips = find_compact_pattern(
            self.machine, report.kernel, self.scale, tries=20
        )
        if pattern is None or flips == 0:
            pattern = canonical_compact_pattern()
        report.exploit = EndToEndAttack(
            machine=self.machine,
            config=report.kernel,
            pattern=pattern,
            scale=self.scale,
        ).run()
