"""Additional CLI coverage: new subcommands and export paths."""

import json
import pstats
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.cli import build_parser, main

TINY = Path(__file__).parents[1] / "examples" / "scenarios" / "tiny.json"


def test_list_includes_new_ablations(capsys):
    main(["list"])
    out = capsys.readouterr().out
    for name in ("alpha", "beta", "traffic", "aqm"):
        assert name in out


def test_ablation_alpha_runs(capsys):
    assert main(["ablation", "alpha", "--duration", "45"]) == 0
    out = capsys.readouterr().out
    assert "weighted jain" in out


def test_report_parser_defaults():
    parser = build_parser()
    args = parser.parse_args(["report"])
    assert args.scale == 0.25
    assert args.handler is not None


def _exits_with_an_error(argv, capsys) -> str:
    """Run ``main(argv)``: it must exit 2 with one ``corelite: error:`` line
    on stderr, as argparse does for a bad argument, and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("corelite: error: ") and "Traceback" not in err
    return err


def test_run_command_requires_existing_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert str(missing) in _exits_with_an_error(["run", str(missing)], capsys)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["batch", "{tiny}", "--num-seeds", "0"], "num_seeds"),
        (["fig5_6", "--duration", "-5", "--no-chart"], "duration"),
        (["ablation", "alpha", "--duration", "0"], "duration"),
        (["run", "{scenario}"], "'weight' must be a number, got 'x'"),
    ],
    ids=["batch-num-seeds", "fig5_6-duration", "ablation-duration", "run-weight"],
)
def test_bad_input_is_an_error_message_not_a_traceback(argv, message, tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"scheme": "corelite", "flows": [{"id": 1, "weight": "x"}]}))
    argv = [arg.format(scenario=scenario, tiny=TINY) for arg in argv]
    assert message in _exits_with_an_error(argv, capsys)


def test_run_command_with_json_output(tmp_path, capsys):
    scenario = {
        "scheme": "corelite",
        "duration": 8.0,
        "flows": [{"id": 1}, {"id": 2, "weight": 2.0}],
    }
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(scenario))
    out_path = tmp_path / "out.json"
    assert main(["run", str(scenario_path), "--no-chart",
                 "--json", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["scenario"] == str(scenario_path)
    assert "corelite" in payload


def test_run_command_profile_writes_pstats_dump(tmp_path, capsys):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps({"duration": 4.0, "flows": [{"id": 1}]}))
    profile = tmp_path / "made" / "run.prof"  # the directory is created
    assert main(["run", str(scenario_path), "--no-chart", "--profile", str(profile)]) == 0
    assert pstats.Stats(str(profile)).total_calls > 0
    assert str(profile) in capsys.readouterr().out


def test_figure_csv_and_svg_combined(tmp_path, capsys):
    out = tmp_path / "exports"
    assert main([
        "fig5_6", "--duration", "10", "--no-chart",
        "--csv-dir", str(out), "--svg-dir", str(out),
    ]) == 0
    names = {p.name for p in out.iterdir()}
    assert "fig5_6_corelite.svg" in names
    assert "fig5_6_corelite_rates.csv" in names
    ET.fromstring((out / "fig5_6_csfq.svg").read_text())
