"""Additional CLI coverage: new subcommands and export paths."""

import json
import pstats
import xml.etree.ElementTree as ET

import pytest

from repro.cli import build_parser, main


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


def test_run_command_requires_existing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["run", str(tmp_path / "missing.json")])


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
