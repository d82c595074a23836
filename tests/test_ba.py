import numpy as np
import pytest

from netspectra import BAConfig, GraphError, ba_evolve
from netspectra.ba import ba_initialize, select_targets
from netspectra.graph import Graph

from helpers import complete_graph, path_graph, reference_select_targets, same_graph


class ScriptedRng:
    """Stands in for a Generator; replays a fixed list of integer draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, high):
        assert high == 2, "seed wiring with 3 nodes draws from {0, 1}"
        return self.draws.pop(0)


# Every outcome of wiring a 3-node seed. Node i draws an index into the other
# two nodes in ascending order; a draw that lands on an existing edge is
# dropped. Worked out by hand for all 8 draw sequences.
SEED_WIRING_OUTCOMES = {
    (0, 0, 0): {(0, 1), (0, 2)},
    (0, 0, 1): {(0, 1), (1, 2)},
    (0, 1, 0): {(0, 1), (1, 2), (0, 2)},
    (0, 1, 1): {(0, 1), (1, 2)},
    (1, 0, 0): {(0, 1), (0, 2)},
    (1, 0, 1): {(0, 1), (0, 2), (1, 2)},
    (1, 1, 0): {(0, 2), (1, 2)},
    (1, 1, 1): {(0, 2), (1, 2)},
}


def test_config_validation():
    with pytest.raises(ValueError):
        BAConfig(initial_nodes=0, total_nodes=10, links_per_node=1)
    # a single node has no partner for the seed wiring
    with pytest.raises(ValueError, match=r"initial_nodes must be >= 2 for the seed wiring, got 1"):
        BAConfig(initial_nodes=1, total_nodes=10, links_per_node=1)
    with pytest.raises(ValueError):
        BAConfig(initial_nodes=5, total_nodes=4, links_per_node=1)
    with pytest.raises(ValueError):
        BAConfig(initial_nodes=3, total_nodes=10, links_per_node=0)
    # the seed graph is allocated up front, so both sizes stay within the
    # graph's 10**6-node limit
    with pytest.raises(ValueError, match=r"total_nodes must be <= 1000000, got 1000001"):
        BAConfig(initial_nodes=1_000_001, total_nodes=1_000_001, links_per_node=1)
    assert BAConfig(3, 1_000_000, 1).total_nodes == 1_000_000


def test_seed_wiring_all_outcomes():
    for draws, expected in SEED_WIRING_OUTCOMES.items():
        g = ba_initialize(3, ScriptedRng(draws))
        assert set(g.edges()) == expected, draws


def test_seed_wiring_properties():
    for seed in range(50):
        g = ba_initialize(6, np.random.default_rng(seed))
        assert g.node_count == 6
        assert 3 <= g.edge_count <= 6
        assert min(g.degrees()) >= 1


def test_select_targets_connects_to_all_when_links_exceed_nodes():
    g = path_graph(3)
    assert select_targets(g, 3, np.random.default_rng(0)) == {0, 1, 2}
    assert select_targets(g, 10, np.random.default_rng(0)) == {0, 1, 2}


def test_select_targets_without_replacement():
    rng = np.random.default_rng(4)
    for _ in range(50):
        targets = select_targets(complete_graph(4), 3, rng)
        assert len(targets) == 3
        assert targets <= {0, 1, 2, 3}


def test_select_targets_needs_positive_degree():
    with pytest.raises(GraphError, match="ran out of positive-degree candidates"):
        select_targets(Graph(5), 1, np.random.default_rng(0))


def test_select_targets_frequencies_follow_degrees():
    # path 0-1-2 has degrees 1,2,1, so a single draw should pick the middle
    # node about half the time
    g = path_graph(3)
    rng = np.random.default_rng(2024)
    draws = 100_000
    counts = [0, 0, 0]
    for _ in range(draws):
        (t,) = select_targets(g, 1, rng)
        counts[t] += 1
    freqs = [c / draws for c in counts]
    assert freqs[0] == pytest.approx(0.25, abs=0.01)
    assert freqs[1] == pytest.approx(0.50, abs=0.01)
    assert freqs[2] == pytest.approx(0.25, abs=0.01)


def test_evolve_node_and_edge_counts():
    cfg = BAConfig(initial_nodes=3, total_nodes=50, links_per_node=2)
    g = ba_evolve(cfg, np.random.default_rng(8))
    assert g.node_count == 50
    # every arrival past the seed adds exactly 2 links
    assert g.edge_count - 2 * 47 in (2, 3)


def test_evolve_dense_regime_edge_count():
    # with links_per_node 90 the arrivals up to node 90 connect to everyone
    cfg = BAConfig(initial_nodes=3, total_nodes=100, links_per_node=90)
    g = ba_evolve(cfg, np.random.default_rng(9))
    added = sum(min(90, t) for t in range(3, 100))
    assert g.edge_count - added in (2, 3)


def test_evolve_observer_sees_each_step():
    cfg = BAConfig(initial_nodes=3, total_nodes=12, links_per_node=2)
    seen = []

    def observe(step, graph):
        seen.append((step, graph.node_count, graph.edge_count))

    ba_evolve(cfg, np.random.default_rng(1), observe)
    assert [s for s, _, _ in seen] == list(range(2, 12))
    assert [n for _, n, _ in seen] == list(range(3, 13))
    edge_counts = [e for _, _, e in seen]
    assert all(b > a for a, b in zip(edge_counts, edge_counts[1:]))


def test_evolve_new_node_degree_is_frozen_link_count():
    cfg = BAConfig(initial_nodes=3, total_nodes=15, links_per_node=5)
    degrees_at_arrival = {}

    def observe(step, graph):
        degrees_at_arrival[step] = int(graph.degree_array()[step])

    ba_evolve(cfg, np.random.default_rng(3), observe)
    # node t finds t existing nodes; it links to all of them until there are
    # more than links_per_node
    for t in range(3, 15):
        assert degrees_at_arrival[t] == min(5, t)


def test_evolve_reproducible():
    cfg = BAConfig(initial_nodes=3, total_nodes=40, links_per_node=3)
    a = ba_evolve(cfg, np.random.default_rng(77))
    b = ba_evolve(cfg, np.random.default_rng(77))
    c = ba_evolve(cfg, np.random.default_rng(78))
    assert same_graph(a, b)
    assert not same_graph(a, c)


def test_seed_wiring_two_nodes_gives_single_edge():
    # with two nodes each draw has one choice, and the second wire is a
    # duplicate, so the outcome is the same for any generator
    g = ba_initialize(2, np.random.default_rng(0))
    assert g.node_count == 2
    assert list(g.edges()) == [(0, 1)]


def test_select_targets_leaves_graph_untouched():
    g = path_graph(3)
    before = list(g.edges())
    degrees = g.degrees()
    select_targets(g, 1, np.random.default_rng(5))
    assert list(g.edges()) == before
    assert g.degrees() == degrees


def test_early_nodes_become_hubs():
    early = []
    late = []
    for seed in range(100):
        g = ba_evolve(BAConfig(3, 100, 2), np.random.default_rng(seed))
        degs = g.degrees()
        early.append(sum(degs[:3]) / 3)
        late.append(sum(degs[90:]) / 10)
    assert sum(early) / len(early) > sum(late) / len(late)


class _DegreeSequence:
    """What select_targets reads of a graph, for degree arrays no simple
    graph has (a single node of positive degree)."""

    def __init__(self, degrees):
        self._degrees = np.asarray(degrees, dtype=np.int64)
        self.node_count = len(self._degrees)

    def degree_array(self):
        return self._degrees


def _select_both(degrees, links, seed):
    """Outcome of select_targets and of the frozen float-cumsum loop, each on
    its own generator from ``seed``: the targets or the exception type, and
    the generator's state afterwards."""
    outcomes = []
    for select in (
        lambda rng: select_targets(_DegreeSequence(degrees), links, rng),
        lambda rng: reference_select_targets(degrees, links, rng),
    ):
        rng = np.random.default_rng(seed)
        try:
            got = select(rng)
        except GraphError as exc:
            got = type(exc)
        outcomes.append((got, rng.bit_generator.state))
    return outcomes


def test_select_targets_draws_match_float_cumsum_reference():
    rng = np.random.default_rng(4040)
    for trial in range(1500):
        count = int(rng.integers(1, 60))
        degrees = rng.integers(0, 12, size=count)
        degrees[rng.random(count) < 0.3] = 0  # zero-degree nodes
        links = int(rng.integers(1, count + 3))  # links >= count included
        new, old = _select_both(degrees, links, seed=trial)
        assert new == old
    # skewed sequences: one hub far above the rest
    for trial in range(200):
        degrees = rng.integers(0, 3, size=200)
        degrees[int(rng.integers(200))] = 10_000
        new, old = _select_both(degrees, 5, seed=10_000 + trial)
        assert new == old


def test_select_targets_single_positive_node_runs_out_on_second_draw():
    degrees = [0, 0, 7, 0]
    new, old = _select_both(degrees, 1, seed=5)
    assert new == old and new[0] == {2}
    new, old = _select_both(degrees, 2, seed=5)
    assert new == old and new[0] is GraphError


class _TopDraw:
    """Stands in for a Generator whose random() always returns its largest
    value, 1 - 2**-53."""

    def random(self):
        return 1 - 2**-53


@pytest.mark.parametrize(
    "degrees, links, expected",
    [
        ([3, 1, 2, 0, 0], 1, {2}),
        ([1, 1, 1, 0], 2, {1, 2}),
        ([0, 5], 1, {1}),
        ([2**52 + 1, 0, 1, 0], 1, {2}),
        ([2**53 - 2, 1, 0], 1, {1}),  # total 2**53 - 1
    ],
)
def test_select_targets_top_draw_lands_on_last_positive_node(degrees, links, expected):
    # r = random() * total stays below the total, so the search never runs
    # past the last node and no clamp is needed
    assert select_targets(_DegreeSequence(degrees), links, _TopDraw()) == expected
