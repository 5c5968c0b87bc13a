"""CLI smoke tests (in-process, quick scale)."""

import pytest

from repro.cli import build_parser, main


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("reveng", "fuzz", "sweep", "exploit", "tune", "campaign",
                    "emit", "inspect", "analyze", "compare", "bench"):
        assert command in text


def test_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_reveng_command(capsys):
    code = main(["reveng", "--platform", "raptor_lake", "--dimm", "S3",
                 "--fraction", "0.4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "correct: True" in out


def test_fuzz_command(capsys):
    code = main(["fuzz", "--platform", "comet_lake", "--dimm", "S3",
                 "--patterns", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "total flips" in out


def test_fuzz_baseline_flag(capsys):
    code = main(["fuzz", "--platform", "raptor_lake", "--patterns", "3",
                 "--baseline"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mov" in out  # the load kernel is reported


def test_sweep_command(capsys):
    code = main(["sweep", "--platform", "comet_lake", "--locations", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "flips per minute" in out


def test_exploit_command(capsys):
    code = main(["exploit", "--platform", "raptor_lake"])
    out = capsys.readouterr().out
    assert code == 0
    assert "page-table read/write achieved" in out


def test_tune_command(capsys):
    code = main(["tune", "--platform", "raptor_lake"])
    out = capsys.readouterr().out
    assert code == 0
    assert "optimal count" in out


def test_emit_cpp(capsys):
    code = main(["emit", "--platform", "raptor_lake", "--format", "cpp"])
    out = capsys.readouterr().out
    assert code == 0
    assert "_mm_clflushopt" in out


def test_emit_asm(capsys):
    code = main(["emit", "--platform", "raptor_lake", "--format", "asm",
                 "--slots", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("clflushopt byte ptr") == 8


def test_campaign_command(capsys):
    code = main(["campaign", "--platform", "comet_lake", "--patterns", "6",
                 "--locations", "4", "--no-exploit"])
    out = capsys.readouterr().out
    assert code == 0
    assert "campaign succeeded: True" in out


def test_invalid_platform_rejected():
    with pytest.raises(SystemExit):
        main(["fuzz", "--platform", "meteor_lake"])


@pytest.mark.parametrize(
    "argv",
    (
        ["sweep", "--batch-locations", "off"],
        ["exploit", "--batch-locations", "4"],
    ),
    ids=("sweep-off", "exploit"),
)
def test_batch_locations_is_an_int_on_sweep_only(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_workers_flag_accepted(capsys):
    code = main(["fuzz", "--platform", "comet_lake", "--dimm", "S3",
                 "--patterns", "4", "--workers", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "total flips" in out


def test_tuned_config_comes_from_calibration_table():
    """Regression: the CLI's per-platform kernels must match the shared
    calibration table (rocket_lake used to be hardcoded to 60 NOPs)."""
    from repro.cli import _tuned_config
    from repro.system.calibration import tuned_settings

    class _Args:
        platform = "rocket_lake"

    config = _tuned_config(_Args(), None)
    assert config.nop_count == tuned_settings("rocket_lake").nop_count == 80
