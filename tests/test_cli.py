"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig3_4" in out
    assert "aqm" in out


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_parser_has_all_figures():
    parser = build_parser()
    for name in ("fig3_4", "fig5_6", "fig7_8", "fig9_10"):
        args = parser.parse_args([name])
        assert args.figure == name


@pytest.mark.parametrize(
    "argv, duration", [(["--duration", "80"], 80.0), ([], 160.0)]
)
def test_fig9_10_duration_reaches_the_figure(monkeypatch, argv, duration):
    """An explicit --duration 80 is honoured; only an absent one takes
    fig9_10's own 160 s default."""
    from repro.experiments import figures

    class Reached(Exception):
        pass

    def fake_figure9_10(duration, seed):
        raise Reached(duration)

    monkeypatch.setattr(figures, "figure9_10", fake_figure9_10)
    with pytest.raises(Reached) as exc:
        main(["fig9_10", "--no-chart", *argv])
    assert exc.value.args == (duration,)


def test_fig5_6_short_run_and_json(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    assert main(["fig5_6", "--duration", "12", "--no-chart", "--json", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "corelite" in out and "csfq" in out
    payload = json.loads(out_file.read_text())
    assert payload["figure"] == "fig5_6"
    assert "mean_rates" in payload["corelite"]


def test_ablation_command(capsys):
    assert main(["ablation", "feedback", "--duration", "10"]) == 0
    out = capsys.readouterr().out
    assert "marker_cache" in out
    assert "selective" in out
