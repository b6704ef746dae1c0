"""Tests for the consolidated reproduction report."""

import pytest

from repro import cli
from repro.errors import ConfigurationError
from repro.experiments import validation
from repro.experiments.validation import CheckResult, ReproReport, build_report


class TestReproReport:
    def test_add_and_counts(self):
        report = ReproReport()
        report.add("X", "claim", "measured", True)
        report.add("Y", "claim2", "measured2", False)
        assert report.passed == 1
        assert not report.all_passed
        assert len(report.checks) == 2

    def test_markdown_rendering(self):
        report = ReproReport()
        report.add("FIG1", "something holds", "it did", True)
        report.add("FIG2", "something else", "it did not", False)
        md = report.to_markdown()
        assert md.startswith("# Corelite reproduction report")
        assert "1/2 paper claims verified" in md
        assert "| FIG1 | something holds | it did | yes |" in md
        assert "**NO**" in md

    def test_a_row_with_one_failing_condition_fails(self):
        report = ReproReport()
        report.add("X", "all hold", "m", True, True, True)
        report.add("Y", "one fails", "m", True, False, True)
        report.add("Z", "first fails", "m", False, True)
        assert [c.passed for c in report.checks] == [True, False, False]
        assert not report.all_passed

    def test_empty_report_passes_vacuously(self):
        report = ReproReport()
        assert report.all_passed
        assert "0/0" in report.to_markdown()


def test_build_report_validation():
    with pytest.raises(ConfigurationError):
        build_report(scale=0.0)
    with pytest.raises(ConfigurationError):
        build_report(duration=10.0)


def test_checkresult_fields():
    c = CheckResult("E", "claim", "meas", True)
    assert (c.experiment, c.claim, c.measured, c.passed) == ("E", "claim", "meas", True)


@pytest.mark.parametrize("passed, status", [(True, 0), (False, 1)])
def test_report_command_exits_1_on_a_failed_claim(monkeypatch, tmp_path, capsys,
                                                   passed, status):
    def fake_report(**kwargs):
        report = ReproReport()
        report.add("FIG0", "a claim", "measured", True)
        report.add("FIG0", "another claim", "measured", True, passed)
        return report

    monkeypatch.setattr(validation, "build_report", fake_report)
    out = tmp_path / "claims.md"
    assert cli.main(["report", "--out", str(out)]) == status
    assert ("**NO**" in out.read_text(encoding="utf-8")) is not passed
    assert f"{1 + passed}/2 paper claims verified" in capsys.readouterr().out
