"""PR 9 pins: the opt-in packet-train datapath.

Three layers of protection:

* **Shaper cadence** — train mode changes burst *structure*, never the
  long-run rate: a slow flow (``rate * horizon < 1``) fires at exactly
  the scalar pacing cadence, and ``set_rate`` cannot materialize phantom
  tokens out of the K-deep train bucket (both were real bugs: downstream
  rate estimators read the broken cadences as label spikes).
* **Split boundaries** — non-plain-FIFO queues (WFQ/RED), dynamic links
  and failures see scalar members, never whole trains: per-packet
  decisions stay per-packet.
* **Equivalence contract** — ``train_batch=1`` is the default path (the
  contract table's ``default`` rows), and Corelite's train mode holds the
  statistical pins (Jain ratio within 1%, per-flow delivered within 10%)
  on chain4 / parking-lot / mesh.  Trains are Corelite's datapath: under
  csfq and fifo ``train_batch`` is inert, so their train runs equal the
  scalar runs exactly.
"""

from __future__ import annotations

import pytest

from repro.core.shaping import PacedSender, TRAIN_HORIZON
from repro.experiments.builder import CloudBuilder
from repro.experiments.parallel import result_to_payload
from repro.experiments.scenarios import (
    WEIGHTS_41,
    mesh_flows,
    parking_lot_flows,
    topology1_flows,
)
from repro.experiments.topospec import TopologySpec
from repro.fairness.metrics import jain_index
from repro.aqm.red import RedQueue
from repro.aqm.wfq import WfqQueue
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketTrain
from repro.sim.queues import DropTailQueue

from .conftest import TRAIN_RUNG_BATCH, CollectorNode, run_python


# ---------------------------------------------------------------------------
# Shaper cadence in train mode
# ---------------------------------------------------------------------------


def _train_sender(sim, rate, batch, log):
    """A train-mode PacedSender whose emissions are appended to ``log``
    as ``(time, allowance)`` and always fully sent."""

    def train_emit(allowance):
        log.append((sim.now, allowance))
        return allowance

    return PacedSender(
        sim, rate, emit=lambda: True, train_batch=batch, train_emit=train_emit
    )


def test_slow_flow_fires_at_scalar_cadence():
    """``rate * horizon < 1``: coalescing fades out entirely — singles at
    exactly the scalar pacing period, not horizon-late lumps."""
    sim = Simulator()
    log = []
    sender = _train_sender(sim, rate=4.0, batch=8, log=log)
    sender.start()
    sim.run(until=1.01)
    times = [t for t, _ in log]
    assert [n for _, n in log] == [1] * len(log)
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_fast_flow_coalesces_full_batches():
    """A flow whose batch accrues within the horizon emits whole batches
    spaced ``batch / rate`` apart — same long-run rate, K-deep bursts."""
    sim = Simulator()
    log = []
    sender = _train_sender(sim, rate=1000.0, batch=8, log=log)
    sender.start()
    sim.run(until=0.1)
    # First firing spends the single fresh-start token; steady state is
    # full batches every 8 ms.
    assert log[0] == (0.0, 1)
    steady = log[1:]
    assert all(n == 8 for _, n in steady)
    gaps = [b - a for (a, _), (b, _) in zip(steady, steady[1:])]
    assert gaps == pytest.approx([8.0 / 1000.0] * len(gaps))


def test_horizon_caps_coalescing_wait():
    """Between the extremes the shaper fires at the last whole token the
    horizon can reach instead of waiting for the full batch."""
    sim = Simulator()
    log = []
    # 60 pps, K=8: a full batch needs 133 ms but the 50 ms horizon only
    # reaches 3 tokens -> lumps of 3 every 50 ms.
    sender = _train_sender(sim, rate=60.0, batch=8, log=log)
    sender.start()
    sim.run(until=0.5)
    steady = log[1:]
    assert all(n == 3 for _, n in steady)
    gaps = [b - a for (a, _), (b, _) in zip(steady, steady[1:])]
    assert gaps == pytest.approx([3.0 / 60.0] * len(gaps))


def test_set_rate_does_not_mint_phantom_train_credit():
    """Raising the rate re-prices credit at the new rate, but the K-deep
    train bucket must not let the wait-time re-pricing materialize tokens
    that never accrued (the scalar shaper's ``burst = 1`` cap makes that
    impossible, so train mode must too)."""
    sim = Simulator()
    log = []
    sender = _train_sender(sim, rate=2.0, batch=8, log=log)
    sender.start()
    sim.run(until=0.4)  # one emission at t=0; 0.8 tokens re-accrued since
    assert log == [(0.0, 1)]
    sender.set_rate(1000.0)
    # waited * new_rate = 400 tokens and burst = 8, but only 0.8 accrued:
    # the cap grants at most one prompt token.
    assert sender.credit() <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Split boundaries: non-plain-FIFO queues
# ---------------------------------------------------------------------------


def _one_hop(sim, queue):
    """A single link A -> C feeding a collector, with the given queue."""
    c = CollectorNode("C", sim)
    link = Link(sim, "A->C", "A", c, 500.0, 0.010, queue)
    return link, c


@pytest.mark.parametrize(
    "make_queue",
    [
        lambda: WfqQueue(capacity=50.0),
        lambda: RedQueue(capacity=50.0),
    ],
    ids=["wfq", "red"],
)
def test_train_splits_at_non_fifo_queue(make_queue, admitted):
    """WFQ scheduling and RED's per-arrival drop coin are per-packet
    semantics: a train offered to such a hop must arrive as scalars."""
    sim = Simulator()
    link, c = _one_hop(sim, make_queue())
    assert not link._plain_fifo
    train = PacketTrain(1, "A", "C", 0, 4, created_at=0.0, sim=sim)
    assert link.send(train)
    sim.run(until=1.0)
    assert len(c.packets) == 4
    assert all(type(p) is Packet and p.count == 1 for p in c.packets)
    assert sorted(p.seq for p in c.packets) == [0, 1, 2, 3]
    assert admitted == {"A->C": 4}


def test_train_stays_whole_through_plain_fifo(admitted):
    """The contrast case: a drop-tail FIFO hop carries the train as one
    event — single delivery, admitted as one whole train."""
    sim = Simulator()
    link, c = _one_hop(sim, DropTailQueue(capacity=50.0))
    assert link._plain_fifo
    train = PacketTrain(1, "A", "C", 0, 4, created_at=0.0, sim=sim)
    assert link.send(train)
    sim.run(until=1.0)
    assert len(c.received) == 1
    (arrival, packet), = c.received
    assert type(packet) is PacketTrain and packet.count == 4
    assert admitted == {"A->C": 4}
    # Serialized as one 4-packet lump: 4/500 s + 10 ms propagation.
    assert arrival == pytest.approx(4.0 / 500.0 + 0.010)


# ---------------------------------------------------------------------------
# Split boundaries: dynamic links and failures (test_dynamics style)
# ---------------------------------------------------------------------------


def test_dynamic_link_delivers_scalar_members():
    sim = Simulator()
    link, c = _one_hop(sim, DropTailQueue(capacity=50.0))
    link.enable_dynamics()
    train = PacketTrain(1, "A", "C", 0, 4, created_at=0.0, sim=sim)
    assert link.send(train)
    sim.run(until=1.0)
    assert len(c.packets) == 4
    assert all(type(p) is Packet and p.count == 1 for p in c.packets)


def test_failure_strands_every_member_in_flight():
    """All members of a split train caught in the propagation pipe by a
    failure are dropped by the generation check and accounted."""
    sim = Simulator()
    link, c = _one_hop(sim, DropTailQueue(capacity=50.0))
    link.enable_dynamics()
    train = PacketTrain(1, "A", "C", 0, 4, created_at=0.0, sim=sim)
    link.send(train)
    # 4 members serialize by 8 ms; first delivery fires at 12 ms.
    sim.run(until=0.009)
    link.fail()
    sim.run(until=1.0)
    assert c.packets == []
    assert link.inflight_drops == 4


def test_send_train_while_down_counts_every_member():
    sim = Simulator()
    link, c = _one_hop(sim, DropTailQueue(capacity=50.0))
    link.fail()
    train = PacketTrain(1, "A", "C", 0, 4, created_at=0.0, sim=sim)
    assert link.send(train) is False
    assert link.failure_drops == 4


# ---------------------------------------------------------------------------
# Equivalence contract: K=1 byte-identity + train-mode statistical pins
# ---------------------------------------------------------------------------

#: (topology factory, flow-set factory, run horizon, seed) per pinned
#: scenario — the same workloads test_vectorized pins, parameterized over
#: scheme so each runs under corelite *and* csfq (chain4 under fifo too).
_SCENARIOS = {
    "chain4": (
        lambda: TopologySpec.chain(4),
        lambda: topology1_flows(WEIGHTS_41, {}),
        12.0,
        3,
    ),
    "parking": (lambda: TopologySpec.parking_lot(3), parking_lot_flows, 10.0, 5),
    "mesh": (lambda: TopologySpec.mesh(), mesh_flows, 10.0, 2),
}


def _build(name, scheme, train_batch=1, seed=None):
    topo, flows, until, base_seed = _SCENARIOS[name]
    builder = CloudBuilder(
        topo(),
        scheme=scheme,
        seed=base_seed if seed is None else seed,
        train_batch=train_batch,
    )
    builder.add_flows(flows())
    return builder.build(), until


#: Seeds averaged per statistical pin.  A single deterministic pair is
#: dominated by chaos, not bias: a handful of coalesced trains reshuffle
#: the downstream drop-coin/feedback sequence, shifting individual flows
#: by up to ~10% in either direction (measured chain4-csfq Jain ratios
#: 1.0103 / 1.0001 / 0.9980 on consecutive seeds).  Averaging exposes
#: the systematic effect the pin is actually about.
_PIN_SEEDS = 3


def _mean_outcome(name, scheme, train_batch):
    """Per-flow delivered and weighted Jain, averaged over the pin seeds."""
    base_seed = _SCENARIOS[name][3]
    delivered_acc: dict = {}
    jains = []
    weights = {}
    for seed in range(base_seed, base_seed + _PIN_SEEDS):
        cloud, until = _build(name, scheme, train_batch=train_batch, seed=seed)
        result = cloud.run(until=until)
        weights = {fid: r.weight for fid, r in result.flows.items()}
        for fid, r in result.flows.items():
            delivered_acc[fid] = delivered_acc.get(fid, 0) + r.delivered
        jains.append(
            jain_index(
                [
                    r.delivered / r.weight
                    for _, r in sorted(result.flows.items())
                ]
            )
        )
    delivered = {fid: total / _PIN_SEEDS for fid, total in delivered_acc.items()}
    return delivered, sum(jains) / len(jains), weights


@pytest.mark.parametrize(
    "name, scheme",
    [(name, scheme) for name in sorted(_SCENARIOS) for scheme in ("corelite", "csfq")]
    + [("chain4", "fifo")],
    ids=lambda value: value,
)
def test_train_mode_is_statistically_equivalent(name, scheme):
    """Corelite train runs reorder work (K-deep bursts, bulk charges) so
    they are pinned statistically: weighted Jain ratio within 1% of the
    scalar runs and per-flow delivered within 10%, averaged over seeds.
    A CSFQ core decides per packet, so csfq and fifo edges stay scalar:
    their train runs are the scalar runs, result for result."""
    if scheme != "corelite":
        for seed in range(_SCENARIOS[name][3], _SCENARIOS[name][3] + _PIN_SEEDS):
            scalar, train = (
                result_to_payload(cloud.run(until=until))
                for cloud, until in (
                    _build(name, scheme, 1, seed),
                    _build(name, scheme, TRAIN_RUNG_BATCH, seed),
                )
            )
            assert train == scalar, seed
        return
    scalar_delivered, scalar_jain, _ = _mean_outcome(name, scheme, 1)
    train_delivered, train_jain, _ = _mean_outcome(
        name, scheme, TRAIN_RUNG_BATCH
    )

    assert set(train_delivered) == set(scalar_delivered)
    assert 0.99 <= train_jain / scalar_jain <= 1.01
    for fid in scalar_delivered:
        assert abs(train_delivered[fid] - scalar_delivered[fid]) <= (
            0.10 * max(1.0, scalar_delivered[fid])
        )


# ---------------------------------------------------------------------------
# Delay accounting: every delivered member is one delay sample
# ---------------------------------------------------------------------------


def _chain4_result(scheme, train_batch, partitions=1):
    topo, flows, until, seed = _SCENARIOS["chain4"]
    builder = CloudBuilder(topo(), scheme=scheme, seed=seed, train_batch=train_batch)
    builder.add_flows(flows())
    if partitions > 1:
        builder.partitions = partitions
        builder.pdes_mode = "inline"
    return builder.run(until=until)


@pytest.mark.parametrize("scheme", ["corelite", "csfq"])
def test_every_delivered_member_is_one_delay_sample(scheme):
    """A train is recorded in closed form, so nothing counts its members
    one by one any more: the sample count must still equal the delivered
    count in every mode, and the members' delays must still be spread
    over the last hop's serialization rather than stacked on the tail's
    (mean within one train horizon of the scalar run's)."""
    scalar = _chain4_result(scheme, 1)
    train = _chain4_result(scheme, TRAIN_RUNG_BATCH)
    split = _chain4_result(scheme, TRAIN_RUNG_BATCH, partitions=2)
    for result in (scalar, train, split):
        assert result.total_delivered() > 0
        for fid, record in result.flows.items():
            assert record.delay["count"] == record.delivered, fid
    for fid, record in train.flows.items():
        assert record.delay["min"] <= record.delay["mean"] <= record.delay["max"]
        assert abs(record.delay["mean"] - scalar.flows[fid].delay["mean"]) <= TRAIN_HORIZON
        # Cuts join cores, so partitioning changes no delay sample.
        assert split.flows[fid].delay == record.delay, fid


def test_train_run_never_imports_numpy():
    """The package is pure stdlib: the train datapath used NumPy for
    member lags once, and an accidental re-import should fail here even
    on a machine that has it installed.  The cloud is the 16384-member
    rung — 64 aggregate buckets, batched control, trains — so this is also
    the smoke that the aggregated scale path completes (CI runs it by name)."""
    script = (
        "import sys\n"
        "from tests.conftest import TRAIN_RUNG_BATCH, flow_scaling_cloud\n"
        "cloud = flow_scaling_cloud('corelite', 16384, vectorized=True, aggregate=256,\n"
        "                           train_batch=TRAIN_RUNG_BATCH)\n"
        "result = cloud.run(until=8.0)\n"
        "assert result.total_delivered() > 0\n"
        "assert all(r.delay['count'] == r.delivered for r in result.flows.values())\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
