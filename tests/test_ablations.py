"""Unit tests for the ablation machinery (short durations)."""

from repro.experiments.ablations import (
    AblationPoint,
    compare_feedback_schemes,
    sweep_alpha,
    sweep_beta,
    sweep_qthresh,
)


DURATION = 45.0  # short but past the convergence transient


class TestSweeps:
    def test_sweep_returns_one_point_per_value(self):
        points = sweep_qthresh(values=(4.0, 8.0), duration=DURATION)
        assert [p.value for p in points] == [4.0, 8.0]
        for p in points:
            assert isinstance(p, AblationPoint)
            assert p.weighted_jain > 0.9
            assert p.mae_vs_expected >= 0.0

    def test_alpha_and_beta_sweeps_run(self):
        for sweep in (sweep_alpha, sweep_beta):
            points = sweep(values=(1.0, 2.0), duration=DURATION)
            assert len(points) == 2
            for p in points:
                assert p.weighted_jain > 0.9

    def test_feedback_comparison_labels(self):
        points = compare_feedback_schemes(duration=DURATION)
        assert {p.value for p in points} == {"marker_cache", "selective"}
