import numpy as np
import pytest

from netspectra import (
    RewireEvent,
    WSConfig,
    spectral_radius_ratio,
    ws_evolve,
    ws_rewire,
)
from netspectra.graph import degree_stats
from netspectra.ws import _nth_outside, initial_edges, ws_initialize

from helpers import edge_components_by_search, same_graph


def test_config_validation():
    with pytest.raises(ValueError, match=r"nodes_per_ring must be in \[3, 500000\], got 2"):
        WSConfig(nodes_per_ring=2, rewiring_probability=0.5)
    # the double ring's 2 * 500,001 nodes are past the graph's 10**6-node limit
    with pytest.raises(ValueError, match=r"nodes_per_ring must be in \[3, 500000\], got 500001"):
        WSConfig(nodes_per_ring=500_001, rewiring_probability=0.5)
    assert WSConfig(nodes_per_ring=500_000, rewiring_probability=0.5).nodes_per_ring == 500_000
    with pytest.raises(ValueError):
        WSConfig(nodes_per_ring=10, rewiring_probability=-0.1)
    with pytest.raises(ValueError):
        WSConfig(nodes_per_ring=10, rewiring_probability=1.1)


def test_initial_edges_smallest_ring():
    # hand enumeration for N = 3: outer ring, inner ring, then the two cross
    # links per outer node, each pair normalized lower ID first
    assert initial_edges(3) == [
        (0, 1), (1, 2), (0, 2),
        (3, 4), (4, 5), (3, 5),
        (0, 3), (0, 4),
        (1, 4), (1, 5),
        (2, 5), (2, 3),
    ]


def test_lattice_shape():
    for n in (3, 10, 50):
        g = ws_initialize(WSConfig(nodes_per_ring=n, rewiring_probability=0.0))
        assert g.node_count == 2 * n
        assert g.edge_count == 4 * n
        assert g.degrees() == [4] * (2 * n)


def test_lattice_is_regular_so_ratio_is_one():
    g = ws_initialize(WSConfig(nodes_per_ring=20, rewiring_probability=0.0))
    assert spectral_radius_ratio(g) == 1.0
    assert degree_stats(g).cv == 0.0


def test_zero_probability_is_a_no_op():
    cfg = WSConfig(nodes_per_ring=12, rewiring_probability=0.0)
    g = ws_initialize(cfg)
    before = ws_initialize(cfg)
    rng = np.random.default_rng(5)
    events = ws_rewire(g, cfg, rng)
    assert events == []
    assert same_graph(g, before)
    # the sweep must not consume randomness either
    assert rng.random() == np.random.default_rng(5).random()


def test_full_probability_rewires_every_link():
    cfg = WSConfig(nodes_per_ring=50, rewiring_probability=1.0)
    g = ws_initialize(cfg)
    events = ws_rewire(g, cfg, np.random.default_rng(1))
    assert len(events) == 200
    assert all(e.new_edge is not None for e in events)
    originals = [e.original_edge for e in events]
    assert originals == initial_edges(50)
    # the kept endpoint is the lower end of the original link
    for e in events:
        assert e.original_edge[0] in e.new_edge
    assert g.edge_count == 200
    assert sum(g.degrees()) == 400


def test_rewire_mutates_graph_at_each_event():
    cfg = WSConfig(nodes_per_ring=10, rewiring_probability=1.0)
    g = ws_initialize(cfg)
    seen = [(0, set(g.edges()))]

    def check(step, graph):
        assert graph.edge_count == 40
        assert sum(graph.degrees()) == 80
        seen.append((step, set(graph.edges())))

    events = ws_rewire(g, cfg, np.random.default_rng(7), check)
    completed = [e for e in events if e.new_edge is not None]
    assert completed
    assert [step for step, _ in seen] == list(range(len(completed) + 1))
    # at call k the graph is call k-1's with the k-th rewire applied
    for (_, before), (_, after), event in zip(seen, seen[1:], completed):
        assert event.original_edge in before
        assert after == before - {event.original_edge} | {event.new_edge}


def test_candidate_exhaustion_recorded_as_skip():
    # on the 6-node lattice a node can end up adjacent to all others, leaving
    # nowhere to move its next link; seed 0 produces several such events
    cfg = WSConfig(nodes_per_ring=3, rewiring_probability=1.0)
    g = ws_initialize(cfg)
    events = ws_rewire(g, cfg, np.random.default_rng(0))
    skipped = [e for e in events if e.new_edge is None]
    assert skipped
    for e in skipped:
        assert g.has_edge(*e.original_edge)
    assert g.edge_count == 12
    assert sum(g.degrees()) == 24


def test_observer_not_called_for_skips():
    cfg = WSConfig(nodes_per_ring=3, rewiring_probability=1.0)
    g = ws_initialize(cfg)
    calls = []

    def record(step, graph):
        calls.append((step, set(graph.edges())))

    events = ws_rewire(g, cfg, np.random.default_rng(0), record)
    completed = [e for e in events if e.new_edge is not None]
    assert [step for step, _ in calls] == list(range(1, len(completed) + 1))
    assert len(calls) < len(events)
    # each call sees the graph just after its own completed rewire
    for (_, edges), event in zip(calls, completed):
        assert event.new_edge in edges
        assert event.original_edge not in edges


def test_rewire_reproducible():
    cfg = WSConfig(nodes_per_ring=15, rewiring_probability=0.4)
    g1 = ws_initialize(cfg)
    g2 = ws_initialize(cfg)
    e1 = ws_rewire(g1, cfg, np.random.default_rng(11))
    e2 = ws_rewire(g2, cfg, np.random.default_rng(11))
    assert e1 == e2
    assert same_graph(g1, g2)


def test_rewire_rejects_wrong_sized_graph():
    cfg = WSConfig(nodes_per_ring=5, rewiring_probability=0.5)
    g = ws_initialize(WSConfig(nodes_per_ring=6, rewiring_probability=0.5))
    with pytest.raises(ValueError):
        ws_rewire(g, cfg, np.random.default_rng(0))


def test_evolve_reports_lattice_then_each_completed_rewire():
    # seed 0 on the 6-node lattice skips some events; skips are not steps
    cfg = WSConfig(nodes_per_ring=3, rewiring_probability=1.0)
    seen = []
    g = ws_evolve(
        cfg, np.random.default_rng(0), lambda step, graph: seen.append((step, list(graph.edges())))
    )
    lattice = ws_initialize(cfg)
    events = ws_rewire(lattice, cfg, np.random.default_rng(0))
    completed = [e for e in events if e.new_edge is not None]
    assert [step for step, _ in seen] == list(range(len(completed) + 1))
    assert seen[0][1] == sorted(initial_edges(3))
    assert seen[-1][1] == list(g.edges()) == list(lattice.edges())


def test_connectivity_flag_is_settled_after_every_rewire():
    # the lattice, built ring by ring, and each rewire's removal and addition
    # keep the graph's component count exact, so no solve has to search
    rewires = []

    def observe(step, g):
        assert g._parts == edge_components_by_search(g)
        assert g.connected() == (g._parts <= 1)
        rewires.append(step)

    ws_evolve(WSConfig(50, 0.5), np.random.default_rng(1), observe)
    assert len(rewires) > 50


def test_evolve_without_observer_matches_rewire():
    cfg = WSConfig(nodes_per_ring=15, rewiring_probability=0.4)
    g = ws_initialize(cfg)
    ws_rewire(g, cfg, np.random.default_rng(11))
    assert same_graph(ws_evolve(cfg, np.random.default_rng(11)), g)


def test_nth_outside_matches_candidate_list():
    rng = np.random.default_rng(31)
    for _ in range(2000):
        total = int(rng.integers(2, 60))
        u = int(rng.integers(total))
        drawn = rng.choice(total, int(rng.integers(total)), replace=False)
        taken = {int(w) for w in drawn} - {u}
        candidates = [w for w in range(total) if w != u and w not in taken]
        excluded = sorted(taken | {u})
        assert [_nth_outside(excluded, j) for j in range(len(candidates))] == candidates


def reference_rewire(config, rng):
    """The sweep drawing each new endpoint from an explicit candidate list."""
    g = ws_initialize(config)
    events = []
    for u, v in initial_edges(config.nodes_per_ring):
        if rng.random() > config.rewiring_probability:
            continue
        taken = g.neighbors(u)
        candidates = [w for w in range(g.node_count) if w != u and w != v and w not in taken]
        if not candidates:
            events.append(RewireEvent((u, v), None))
            continue
        w = candidates[int(rng.integers(len(candidates)))]
        g.remove_edge(u, v)
        g.add_edge(u, w)
        events.append(RewireEvent((u, v), (min(u, w), max(u, w))))
    return g, events


@pytest.mark.parametrize(
    "ring, beta, seed", [(3, 1.0, 0), (10, 1.0, 7), (50, 0.5, 1), (50, 1.0, 2), (200, 0.3, 3)]
)
def test_rewire_draws_match_candidate_list_reference(ring, beta, seed):
    cfg = WSConfig(nodes_per_ring=ring, rewiring_probability=beta)
    g = ws_initialize(cfg)
    events = ws_rewire(g, cfg, np.random.default_rng(seed))
    expected_g, expected_events = reference_rewire(cfg, np.random.default_rng(seed))
    assert events == expected_events
    assert same_graph(g, expected_g)
