"""Pattern fuzzer and fuzzing campaigns."""

from repro import QUICK_SCALE, RunBudget, baseline_load_config, rhohammer_config
from repro.common.rng import RngStream
from repro.patterns.fuzzer import FuzzingCampaign, PatternFuzzer


def test_generate_is_deterministic():
    a = PatternFuzzer(rng=RngStream(5, "f")).generate()
    b = PatternFuzzer(rng=RngStream(5, "f")).generate()
    assert a.describe() == b.describe()
    assert (a.slots == b.slots).all()


def test_generated_patterns_vary():
    fuzzer = PatternFuzzer(rng=RngStream(6, "f"))
    descriptions = {fuzzer.generate().describe() for _ in range(20)}
    assert len(descriptions) > 15


def test_pair_count_bounds():
    fuzzer = PatternFuzzer(rng=RngStream(7, "f"), min_pairs=2, max_pairs=4)
    for _ in range(30):
        pattern = fuzzer.generate()
        assert 2 <= len(pattern.pairs) <= 4


def test_row_span_respected():
    fuzzer = PatternFuzzer(rng=RngStream(8, "f"), row_span=20)
    for _ in range(30):
        pattern = fuzzer.generate()
        span = max(off for p in pattern.pairs for off in p.rows)
        assert span <= 20 + 4 * len(pattern.pairs) + 2


def test_campaign_on_comet_finds_flips(comet_machine):
    campaign = FuzzingCampaign(
        machine=comet_machine,
        config=rhohammer_config(nop_count=60, num_banks=3),
        scale=QUICK_SCALE,
        trials_per_pattern=2,
    )
    report = campaign.execute(RunBudget.trials(10))
    assert report.patterns_tried == 10
    assert report.total_flips > 0
    assert report.effective_patterns > 0
    assert report.best_pattern is not None
    assert report.best_pattern_flips <= report.total_flips


def test_campaign_baseline_collapses_on_raptor(raptor_machine):
    """Table 6 shape: the load baseline yields near-zero flips on Raptor
    Lake while the counter-speculation prefetch kernel revives the attack."""
    baseline = FuzzingCampaign(
        machine=raptor_machine,
        config=baseline_load_config(num_banks=1),
        scale=QUICK_SCALE,
        trials_per_pattern=2,
    ).execute(RunBudget.trials(10))
    rho = FuzzingCampaign(
        machine=raptor_machine,
        config=rhohammer_config(nop_count=220, num_banks=3),
        scale=QUICK_SCALE,
        trials_per_pattern=2,
    ).execute(RunBudget.trials(10))
    assert baseline.total_flips <= 10  # occasional stray flips at most
    assert rho.total_flips > 5 * max(1, baseline.total_flips)


def test_report_table6_cell_format(comet_machine):
    campaign = FuzzingCampaign(
        machine=comet_machine,
        config=rhohammer_config(nop_count=60, num_banks=3),
        scale=QUICK_SCALE,
        trials_per_pattern=1,
    )
    report = campaign.execute(RunBudget.trials(4))
    cell = report.as_table6_cell()
    total, best = cell.split(", ")
    assert int(total) == report.total_flips
    assert int(best) == report.best_pattern_flips
