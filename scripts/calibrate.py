"""Calibration harness: quick grid over (platform, DIMM, kernel) cells.

Not part of the library — a development tool for tuning the model
constants against the paper's qualitative targets.  Run:

    python scripts/calibrate.py [n_patterns]
"""

from __future__ import annotations

import sys
import time

from repro.cpu.isa import baseline_load_config, rhohammer_config
from repro.hammer.session import HammerSession
from repro.patterns.fuzzer import PatternFuzzer
from repro.system import build_machine
from repro.system.calibration import BENCH_SCALE

#: Qualitative targets, per 20 patterns x 2 locations (paper anchors in
#: parentheses refer to the S3 column of Table 6):
#:   comet  rho-M eff ~60%  total ~1500   (205K per 2 h)
#:   comet  BL-S  eff ~25%  total ~250    (36K -> ~1/6 of rho)
#:   rocket rho-M eff ~55%  total ~900    (94K)
#:   rocket BL-S  eff ~15%  total ~90     (9.7K -> ~1/10 of rho)
#:   alder  rho-M eff ~10%  total ~10     (696)
#:   raptor rho-M eff ~12%  total ~15     (924)
#:   alder/raptor BL and nop0 prefetch: ~0

CELLS = [
    ("comet_lake", rhohammer_config(nop_count=60, num_banks=3), "rho-M"),
    ("comet_lake", rhohammer_config(nop_count=60, num_banks=1), "rho-S"),
    ("comet_lake", baseline_load_config(num_banks=1), "BL-S"),
    ("comet_lake", baseline_load_config(num_banks=3), "BL-M"),
    ("rocket_lake", rhohammer_config(nop_count=80, num_banks=3), "rho-M"),
    ("rocket_lake", baseline_load_config(num_banks=1), "BL-S"),
    ("alder_lake", rhohammer_config(nop_count=220, num_banks=3), "rho-M"),
    ("alder_lake", rhohammer_config(nop_count=0, num_banks=3), "pf-nop0"),
    ("alder_lake", baseline_load_config(num_banks=1), "BL-S"),
    ("raptor_lake", rhohammer_config(nop_count=220, num_banks=3), "rho-M"),
    ("raptor_lake", rhohammer_config(nop_count=0, num_banks=3), "pf-nop0"),
    ("raptor_lake", baseline_load_config(num_banks=1), "BL-S"),
]


def run_cell(platform: str, config, label: str, n_patterns: int, dimm: str) -> str:
    machine = build_machine(platform, dimm, scale=BENCH_SCALE)
    fuzzer = PatternFuzzer(rng=machine.rng.child("pf"))
    session = HammerSession(
        machine=machine,
        config=config,
        disturbance_gain=BENCH_SCALE.disturbance_gain,
    )
    total = effective = best = 0
    miss_sum = 0.0
    started = time.time()
    for i in range(n_patterns):
        pattern = fuzzer.generate()
        flips = 0
        for outcome in session.run_pattern_batch(
            pattern,
            (5000 + i * 300, 20000 + i * 300),
            activations=BENCH_SCALE.acts_per_pattern,
        ):
            flips += outcome.flip_count
            miss_sum += outcome.cache_miss_rate
        total += flips
        effective += flips > 0
        best = max(best, flips)
    elapsed = time.time() - started
    return (
        f"{platform:12s} {label:8s} {dimm:3s} total={total:6d} "
        f"eff={effective:2d}/{n_patterns} best={best:5d} "
        f"miss={miss_sum / (2 * n_patterns):.2f} ({elapsed:.0f}s)"
    )


def main() -> None:
    n_patterns = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    dimm = sys.argv[2] if len(sys.argv) > 2 else "S3"
    for platform, config, label in CELLS:
        print(run_cell(platform, config, label, n_patterns, dimm))


if __name__ == "__main__":
    main()
