"""Unit tests for Dijkstra shortest paths."""

import pytest

from repro.errors import RoutingError
from repro.sim.routing import reconstruct_path, shortest_paths


def simple_adjacency():
    # A -1- B -1- C, plus a slow direct edge A -5- C
    return {
        "A": [("B", 1.0, "A->B"), ("C", 5.0, "A->C")],
        "B": [("C", 1.0, "B->C"), ("A", 1.0, "B->A")],
        "C": [("B", 1.0, "C->B"), ("A", 5.0, "C->A")],
    }


def test_prefers_cheaper_multi_hop_path():
    dist, prev = shortest_paths(simple_adjacency(), "A")
    assert reconstruct_path(prev, "A", "C") == ["A->B", "B->C"]
    assert dist["C"] == pytest.approx(2.0, abs=1e-6)


def test_direct_path_when_cheaper():
    adj = simple_adjacency()
    adj["A"] = [("B", 1.0, "A->B"), ("C", 1.5, "A->C")]
    _, prev = shortest_paths(adj, "A")
    assert reconstruct_path(prev, "A", "C") == ["A->C"]


def test_path_to_self_is_empty():
    _, prev = shortest_paths(simple_adjacency(), "A")
    assert reconstruct_path(prev, "A", "A") == []


def test_unreachable_raises():
    adj = {"A": [("B", 1.0, "A->B")], "B": [], "X": []}
    _, prev = shortest_paths(adj, "A")
    with pytest.raises(RoutingError):
        reconstruct_path(prev, "A", "X")


def test_unknown_source_raises():
    with pytest.raises(RoutingError):
        shortest_paths({"A": []}, "Z")


def test_negative_cost_rejected():
    adj = {"A": [("B", -1.0, "A->B")], "B": []}
    with pytest.raises(RoutingError):
        shortest_paths(adj, "A")


def test_equal_cost_prefers_fewer_hops():
    # A->C direct costs exactly the same as A->B->C.
    adj = {
        "A": [("B", 1.0, "A->B"), ("C", 2.0, "A->C")],
        "B": [("C", 1.0, "B->C")],
        "C": [],
    }
    _, prev = shortest_paths(adj, "A")
    assert reconstruct_path(prev, "A", "C") == ["A->C"]


def test_deterministic_tie_breaking_by_insertion():
    # Two equal 2-hop paths A->B->D and A->C->D: the first relaxation wins
    # and later equal-cost candidates never replace it.
    adj = {
        "A": [("B", 1.0, "A->B"), ("C", 1.0, "A->C")],
        "B": [("D", 1.0, "B->D")],
        "C": [("D", 1.0, "C->D")],
        "D": [],
    }
    _, prev = shortest_paths(adj, "A")
    assert reconstruct_path(prev, "A", "D") == ["A->B", "B->D"]


def test_chain_topology_costs():
    chain = {
        "C1": [("C2", 0.04, "C1->C2")],
        "C2": [("C3", 0.04, "C2->C3"), ("C1", 0.04, "C2->C1")],
        "C3": [("C2", 0.04, "C3->C2")],
    }
    dist, prev = shortest_paths(chain, "C1")
    assert dist["C3"] == pytest.approx(0.08, abs=1e-6)
    assert reconstruct_path(prev, "C1", "C3") == ["C1->C2", "C2->C3"]
