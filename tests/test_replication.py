"""Tests for the seed-replication helper, plus an actual multi-seed
stability check of the core result."""

import pytest

from repro import CloudBuilder, TopologySpec
from repro.errors import ConfigurationError
from repro.experiments.replication import replicate
from repro.experiments.scenarios import startup_flows
from repro.fairness.metrics import weighted_jain_index


class TestReplicateMechanics:
    def test_summarizes_each_metric(self):
        summaries = replicate(lambda seed: {"x": seed, "y": 2.0}, seeds=[1, 2, 3])
        assert summaries["x"].mean == pytest.approx(2.0)
        assert summaries["x"].lo == 1.0 and summaries["x"].hi == 3.0
        assert summaries["y"].stdev == 0.0
        assert summaries["y"].relative_spread == 0.0

    def test_single_seed_has_zero_stdev(self):
        summaries = replicate(lambda seed: {"x": 5.0}, seeds=[7])
        assert summaries["x"].stdev == 0.0

    def test_inconsistent_metrics_rejected(self):
        def run(seed):
            return {"x": 1.0} if seed == 1 else {"y": 1.0}

        with pytest.raises(ConfigurationError):
            replicate(run, seeds=[1, 2])

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            replicate(lambda s: {"x": 1.0}, seeds=[])

    def test_empty_metrics_rejected(self):
        with pytest.raises(ConfigurationError):
            replicate(lambda s: {}, seeds=[1])


class TestCrossSeedStability:
    def test_weighted_fairness_is_stable_across_seeds(self):
        """The headline result is not a seed artifact: weighted Jain stays
        above 0.99 and drops stay small for several seeds."""

        def run(seed):
            net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=seed)
            net.add_flows(startup_flows(6))
            result = net.run(until=60.0)
            rates = result.mean_rates((45.0, 60.0))
            weights = result.weights()
            ids = sorted(rates)
            return {
                "weighted_jain": weighted_jain_index(
                    [rates[f] for f in ids], [weights[f] for f in ids]
                ),
                "drops": result.total_drops,
            }

        summaries = replicate(run, seeds=[0, 1, 2, 3])
        assert summaries["weighted_jain"].lo > 0.99
        assert summaries["drops"].hi < 100
        # and it is genuinely stochastic: different seeds, different runs
        assert len(set(summaries["weighted_jain"].values)) > 1
