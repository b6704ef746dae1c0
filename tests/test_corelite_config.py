"""Unit tests for CoreliteConfig validation, and the EdgeConfig both schemes share."""

import dataclasses
import math

import pytest

from repro.core.config import CoreliteConfig, EdgeConfig, FeedbackScheme
from repro.csfq.config import CsfqConfig
from repro.errors import ConfigurationError
from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import LinkSpec, TopologySpec
from repro.sim.engine import Simulator
from repro.sim.queues import DropTailQueue


def test_defaults_match_paper_constants():
    cfg = CoreliteConfig()
    assert cfg.k1 == 1.0
    assert cfg.alpha == 1.0
    assert cfg.beta == 1.0
    assert cfg.core_epoch == pytest.approx(0.1)
    assert cfg.qthresh == 8.0
    assert cfg.ss_thresh == 32.0
    assert cfg.feedback_scheme is FeedbackScheme.SELECTIVE


def test_marker_interval():
    cfg = CoreliteConfig(k1=2.0)
    assert cfg.marker_interval(3.0) == pytest.approx(6.0)
    with pytest.raises(ConfigurationError):
        cfg.marker_interval(0.0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("k1", 0.0),
        ("alpha", -1.0),
        ("beta", 0.0),
        ("edge_epoch", 0.0),
        ("core_epoch", -0.1),
        ("ss_thresh", 0.0),
        ("ss_double_interval", 0.0),
        ("qthresh", -1.0),
        ("fn_k", -0.5),
        ("min_rate", -1.0),
        # NaN passes every plain ``<`` test; infinity is no setting either.
        ("qthresh", math.nan),
        ("fn_k", math.nan),
        ("fn_k", math.inf),
    ],
)
def test_invalid_values_rejected(field, value):
    with pytest.raises(ConfigurationError):
        CoreliteConfig(**{field: value})


def _run(spec, **kwargs):
    builder = CloudBuilder(spec, "corelite", **kwargs)
    builder.add_flow(flow_id=1, ingress_core="C1", egress_core="C3").run(until=1.0)


def test_qthresh_must_be_below_capacity():
    with pytest.raises(ConfigurationError, match=r"qthresh \(40.0\).*\(40.0\)"):
        _run(TopologySpec.chain(3), config=CoreliteConfig(qthresh=40.0))
    _run(TopologySpec.chain(3, queue_capacity=41.0), config=CoreliteConfig(qthresh=40.0))


def test_qthresh_is_checked_against_each_link_buffer(monkeypatch):
    """A per-link buffer override and a ``queue_factory`` buffer are checked
    too, when the cores enable their links: before the first event."""
    monkeypatch.setattr(
        Simulator, "run", lambda *a, **k: pytest.fail("the simulator ran")
    )
    small = TopologySpec(
        links=(LinkSpec("C1", "C2", 500.0, 0.04), LinkSpec("C2", "C3", 500.0, 0.04, 4.0)),
    )
    with pytest.raises(ConfigurationError, match=r"C2->C3's queue capacity \(4.0\)"):
        _run(small)
    with pytest.raises(ConfigurationError, match=r"qthresh \(8.0\)"):
        _run(TopologySpec.chain(3), queue_factory=lambda: DropTailQueue(capacity=6.0))


def test_min_rate_cannot_exceed_max_rate():
    with pytest.raises(ConfigurationError):
        CoreliteConfig(min_rate=100.0, max_rate=50.0)


def test_feedback_scheme_must_be_enum():
    with pytest.raises(ConfigurationError):
        CoreliteConfig(feedback_scheme="selective")


def test_fn_k_zero_is_allowed():
    # k = 0 is a legal (if ill-advised) setting the ABL-K ablation uses.
    assert CoreliteConfig(fn_k=0.0).fn_k == 0.0


@pytest.mark.parametrize("config_cls", [CoreliteConfig, CsfqConfig])
@pytest.mark.parametrize(
    "field,bad,good",
    [
        ("alpha", 0.0, 2.0),
        ("beta", -1.0, 0.5),
        ("edge_epoch", 0.0, 0.1),
        ("ss_thresh", 0.0, 16.0),
        ("ss_double_interval", -1.0, 0.5),
        ("min_rate", -1.0, 1.0),
        ("max_rate", 0.0, 100.0),
        ("min_rate", math.nan, 1.0),
        ("min_rate", math.inf, 1.0),
    ],
)
def test_edge_config_fields_are_validated_once_for_both_schemes(config_cls, field, bad, good):
    assert field in {f.name for f in dataclasses.fields(EdgeConfig)}
    assert field not in config_cls.__dict__.get("__annotations__", {})  # inherited, not re-declared
    assert getattr(config_cls(**{field: good}), field) == good
    with pytest.raises(ConfigurationError, match=field):
        config_cls(**{field: bad})
