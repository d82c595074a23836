import math
import tracemalloc

import numpy as np
import pytest

from netspectra import (
    EdgeListParseError,
    Graph,
    GraphError,
    degree_stats,
    parse_edge_list,
)
from netspectra import graph as graph_module

from helpers import (
    cycle_graph,
    edge_components_by_search,
    path_graph,
    same_graph,
    star_graph,
    write_edge_list,
)


def test_new_graph_is_empty():
    g = Graph(4)
    assert g.node_count == 4
    assert g.edge_count == 0
    assert g.degrees() == [0, 0, 0, 0]
    assert repr(g) == "Graph(nodes=4, edges=0)"


def test_negative_node_count_rejected():
    with pytest.raises(ValueError):
        Graph(-1)


def test_add_node_returns_new_id():
    g = Graph(2)
    assert g.add_node() == 2
    assert g.add_node() == 3
    assert g.node_count == 4


def test_add_edge_is_symmetric():
    g = Graph(3)
    g.add_edge(0, 2)
    assert g.has_edge(0, 2)
    assert g.has_edge(2, 0)
    assert g.edge_count == 1
    assert 2 in g.neighbors(0)
    assert 0 in g.neighbors(2)


def test_neighbors_is_a_new_ascending_list():
    g = Graph(5)
    for v in (4, 1, 3):
        g.add_edge(2, v)
    nbrs = g.neighbors(2)
    assert nbrs == [1, 3, 4]
    nbrs.remove(4)
    nbrs.append(0)
    assert g.neighbors(2) == [1, 3, 4]
    assert g.has_edge(2, 4) and not g.has_edge(2, 0)
    assert list(g.edges()) == [(1, 2), (2, 3), (2, 4)]
    src, dst = g.arcs()
    assert sorted(zip(src.tolist(), dst.tolist())) == [
        (1, 2), (2, 1), (2, 3), (2, 4), (3, 2), (4, 2)
    ]
    assert g.neighbors(0) == []


def test_equality_ignores_insertion_order_but_not_node_count():
    g = Graph(4)
    h = Graph(4)
    for u, v in ((0, 1), (1, 2), (2, 3)):
        g.add_edge(u, v)
    for u, v in ((3, 2), (2, 1), (1, 0)):
        h.add_edge(u, v)
    g.remove_edge(0, 1)  # re-added, it takes another edge index
    g.add_edge(1, 0)
    assert same_graph(g, h)
    h.add_node()  # the same edges beside one more, isolated, node
    assert not same_graph(g, h)
    g.add_node()
    assert same_graph(g, h)


def test_self_loop_rejected():
    g = Graph(3)
    with pytest.raises(GraphError, match="^self-loop 1-1$"):
        g.add_edge(1, 1)


def test_duplicate_edge_rejected_either_direction():
    g = Graph(3)
    g.add_edge(0, 1)
    with pytest.raises(GraphError, match="^duplicate edge 0-1$"):
        g.add_edge(0, 1)
    with pytest.raises(GraphError, match="^duplicate edge 1-0$"):
        g.add_edge(1, 0)


def test_node_out_of_range():
    g = Graph(3)
    with pytest.raises(GraphError, match="node 3 out of range"):
        g.add_edge(0, 3)
    with pytest.raises(GraphError, match="node -1 out of range"):
        g.neighbors(-1)


def test_remove_edge():
    g = Graph(3)
    g.add_edge(0, 1)
    g.remove_edge(1, 0)
    assert g.edge_count == 0
    assert not g.has_edge(0, 1)
    with pytest.raises(GraphError, match="edge 0-1 not present"):
        g.remove_edge(0, 1)


def test_edges_sorted_and_unique():
    g = Graph(4)
    g.add_edge(2, 1)
    g.add_edge(3, 0)
    g.add_edge(0, 1)
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]


def test_degree_stats_star():
    # star with 4 leaves: degrees 4,1,1,1,1
    stats = degree_stats(star_graph(5))
    assert stats.k_min == 1
    assert stats.k_max == 4
    assert stats.k_avg == pytest.approx(1.6)
    assert stats.k_sd == pytest.approx(1.2)
    assert stats.cv == pytest.approx(0.75)


def test_degree_stats_path3():
    # degrees 1,2,1: population sd is sqrt(2)/3
    stats = degree_stats(path_graph(3))
    assert stats.k_avg == pytest.approx(4 / 3)
    assert stats.k_sd == pytest.approx(math.sqrt(2) / 3)
    assert stats.cv == pytest.approx(math.sqrt(2) / 4)


def test_degree_stats_regular():
    g = Graph(4)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        g.add_edge(u, v)
    stats = degree_stats(g)
    assert stats.k_min == stats.k_max == 2
    assert stats.k_sd == 0.0
    assert stats.cv == 0.0


def test_degree_stats_empty_graph():
    with pytest.raises(GraphError, match="at least one node"):
        degree_stats(Graph(0))


def test_cv_undefined_without_edges():
    stats = degree_stats(Graph(3))
    with pytest.raises(GraphError, match="cv undefined"):
        stats.cv


def test_parse_basic_edge_list():
    g = parse_edge_list("0 1\n1 2\n")
    assert g.node_count == 3
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_header_fixes_node_count():
    g = parse_edge_list("# nodes: 6\n0 1\n")
    assert g.node_count == 6
    assert g.edge_count == 1


def test_parse_ignores_comments_and_blanks():
    g = parse_edge_list("# a comment\n\n0 1\n\n# another\n2 1\n")
    assert g.node_count == 3
    assert g.edge_count == 2


def test_parse_first_header_wins():
    g = parse_edge_list("# nodes: 5\n# nodes: 9\n0 1\n")
    assert g.node_count == 5


def test_parse_infers_count_from_max_id():
    g = parse_edge_list("0 7\n")
    assert g.node_count == 8


def test_parse_rejects_wrong_field_count():
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("0 1\n0 1 2\n")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_parse_rejects_non_integer():
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("0 x\n")
    assert exc.value.line == 1


def test_parse_rejects_negative_id():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("0 -1\n")


@pytest.mark.parametrize(
    "text", ["0 1\n1_0 2\n", "0 1\n+3 4\n", "0 1\n\u0663 1\n", "0 1\n1 \u00b2\n"],
    ids=["underscore", "plus-sign", "arabic-indic-digit", "superscript-digit"],
)
def test_parse_rejects_ids_that_are_not_ascii_digits(text):
    # int() accepts all four
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line == 2
    line = text.splitlines()[1]
    assert str(exc.value) == f"line 2: node IDs must be decimal integers: {line!r}"


def test_parse_header_of_non_ascii_digits_is_a_comment():
    assert parse_edge_list("# nodes: \u0663\n0 1\n").node_count == 2
    assert parse_edge_list("# nodes: abc\n0 1\n").node_count == 2


def test_parse_ids_keep_leading_zeros():
    g = parse_edge_list("# nodes: 0008\n007 1\n")
    assert g.node_count == 8
    assert list(g.edges()) == [(1, 7)]
    assert parse_edge_list("0 " + "0" * 5000 + "3\n").node_count == 4


def test_parse_rejects_id_beyond_declared_count():
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("# nodes: 3\n0 1\n1 5\n")
    assert exc.value.line == 3


def test_parse_rejects_empty_input():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("# just a comment\n")


def test_parse_header_only_gives_edgeless_graph():
    g = parse_edge_list("# nodes: 4\n")
    assert g.node_count == 4
    assert g.edge_count == 0


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("0 1\n1 10\n", 2, "node ID exceeds the limit of 10 nodes: '1 10'"),
        ("# nodes: 11\n0 1\n", 1, "node count exceeds the limit of 10"),
        ("# a comment\n# nodes: 11\n", 2, "node count exceeds the limit of 10"),
        ("# nodes: 3\n0 10\n", 2, "node ID exceeds the limit of 10 nodes: '0 10'"),
        # int() refuses strings of more than 4,300 digits
        ("# nodes: " + "9" * 5000 + "\n", 1, "node count exceeds the limit of 10"),
        ("# nodes: 00000000011\n", 1, "node count exceeds the limit of 10"),
    ],
    ids=[
        "id",
        "header",
        "header-line-2",
        "id-under-small-header",
        "header-5000-digits",
        "header-leading-zeros",
    ],
)
def test_parse_rejects_node_count_past_limit(monkeypatch, text, line, message):
    monkeypatch.setattr(graph_module, "_MAX_NODES", 10)
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_parse_accepts_node_count_at_limit(monkeypatch):
    monkeypatch.setattr(graph_module, "_MAX_NODES", 10)
    assert parse_edge_list("0 9\n").node_count == 10
    assert parse_edge_list("# nodes: 10\n0 1\n").node_count == 10


def test_parse_header_ignores_leading_zeros():
    assert parse_edge_list("# nodes: 0000000000007\n0 1\n").node_count == 7
    assert parse_edge_list("# nodes: " + "0" * 5000 + "7\n0 1\n").node_count == 7
    assert parse_edge_list("# nodes: 000\n").node_count == 0


def test_parse_tags_self_loop_with_line():
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("0 1\n2 2\n")
    assert exc.value.line == 2
    assert str(exc.value) == "line 2: self-loop 2-2"


def test_parse_tags_duplicate_with_line():
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("0 1\n1 0\n")
    assert exc.value.line == 2
    assert str(exc.value) == "line 2: duplicate edge 1-0"


def test_write_then_parse_round_trip():
    g = Graph(5)
    g.add_edge(0, 4)
    g.add_edge(1, 2)
    text = write_edge_list(g)
    assert text.startswith("# nodes: 5\n")
    assert same_graph(parse_edge_list(text), g)


def test_round_trip_preserves_isolated_nodes():
    g = Graph(7)
    g.add_edge(0, 1)
    assert parse_edge_list(write_edge_list(g)).node_count == 7


def test_cycle_minus_edge_degrees():
    g = cycle_graph(4)
    g.remove_edge(0, 1)
    assert sorted(g.degrees()) == [1, 1, 2, 2]


def test_random_operation_sequence_keeps_invariants():
    # mirror the graph with a plain set of frozensets and cross-check the
    # bookkeeping after every mutation
    rng = np.random.default_rng(424242)
    g = Graph(12)
    mirror = set()
    for _ in range(600):
        u = int(rng.integers(12))
        v = int(rng.integers(12))
        if u == v:
            continue
        pair = frozenset((u, v))
        if pair in mirror:
            g.remove_edge(u, v)
            mirror.discard(pair)
        else:
            g.add_edge(v, u)
            mirror.add(pair)
        assert g.edge_count == len(mirror)
        assert sum(g.degrees()) == 2 * len(mirror)
    for a, b in g.edges():
        assert a < b
        assert g.has_edge(b, a)
    assert {frozenset(e) for e in g.edges()} == mirror


def _reference_degree_stats(degs):
    # the two-pass population statistics the integer moments replace
    n = len(degs)
    k_avg = sum(degs) / n
    k_sd = math.sqrt(math.fsum((d - k_avg) ** 2 for d in degs) / n)
    return min(degs), max(degs), k_avg, k_sd


def _assert_k_sd_is_exact(g):
    # degree_stats's SD, from the degree array's integer moments, against
    # the exactly rounded SD of the moments recounted from the neighbor lists.
    degs = [len(g.neighbors(u)) for u in range(g.node_count)]
    n, s1, s2 = len(degs), sum(degs), sum(d * d for d in degs)
    assert degree_stats(g).k_sd == math.sqrt((n * s2 - s1 * s1) / (n * n))


def test_incremental_arrays_track_random_mutations():
    # arcs, edge numbers, neighbor lists, edge membership, degree array and
    # degree moments against recomputation from one another after every add,
    # remove and node arrival; the component count against a search at random
    # steps, which must find both several components (where an addition
    # between two nodes with edges searches) and one
    rng = np.random.default_rng(20240611)
    ask = np.random.default_rng(7)
    pairs = np.random.default_rng(8)
    searched = cached = removed_last = moved_last = 0
    for step in range(3000):
        if step % 1500 == 0:
            # most graphs of several components arise while the graph is
            # sparse, so the sequence starts twice from a fresh graph
            g = Graph(5)
        r = rng.random()
        if r < 0.03:
            g.add_node()
        else:
            u, v = (int(x) for x in rng.choice(g.node_count, size=2, replace=False))
            if g.has_edge(u, v):
                last = g._adj[u][v] == g.edge_count - 1
                removed_last += last
                moved_last += not last
                g.remove_edge(v, u)
            elif r < 0.6:
                g.add_edge(u, v)
        src, dst = g.arcs()
        both = sorted(list(g.edges()) + [(v, u) for u, v in g.edges()])
        arcs = sorted(zip(src.tolist(), dst.tolist()))
        assert arcs == both
        # edge i has the same number in both endpoints' maps and holds arc
        # slots 2i and 2i + 1
        for a, b in g.edges():
            i = g._adj[a][b]
            assert g._adj[b][a] == i
            assert {(src[2 * i], dst[2 * i]), (src[2 * i + 1], dst[2 * i + 1])} == {(a, b), (b, a)}
        recount = [[] for _ in range(g.node_count)]
        for a, b in arcs:
            recount[a].append(b)
        assert [g.neighbors(u) for u in range(g.node_count)] == recount
        edges = set(g.edges())
        for a, b in pairs.integers(g.node_count, size=(4, 2)).tolist():
            assert g.has_edge(a, b) == ((min(a, b), max(a, b)) in edges)
        assert g.degree_array().tolist() == g.degrees()
        assert g.degrees() == [len(g.neighbors(u)) for u in range(g.node_count)]
        k_min, k_max, k_avg, k_sd = _reference_degree_stats(g.degrees())
        stats = degree_stats(g)
        assert (stats.k_min, stats.k_max) == (k_min, k_max)
        assert stats.k_avg == pytest.approx(k_avg, abs=1e-12)
        assert stats.k_sd == pytest.approx(k_sd, abs=1e-12)
        _assert_k_sd_is_exact(g)
        if ask.random() < 0.2:
            searched += g._parts > 1
            cached += g._parts == 1
            assert g._parts == edge_components_by_search(g)
            assert g.connected() == (g._parts <= 1)
    assert searched > 20 and cached > 0
    assert removed_last > 0 and moved_last > 0


def test_empty_graph_memory_per_node():
    # every node costs its edge map and its degree slot before its first edge
    tracemalloc.start()
    try:
        g = Graph(100_000)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.node_count == 100_000
    assert traced / 100_000 <= 120


def _triangle_with_tail():
    g = Graph(5)
    for u, v in ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)):
        g.add_edge(u, v)
    return g


@pytest.mark.parametrize(
    "build, edge, components",
    [
        (_triangle_with_tail, (0, 1), 1),  # 0 and 1 still share neighbour 2
        (_triangle_with_tail, (2, 3), 2),  # the bridge: 0-1-2 and 3-4 split
        # 0 and 1 stay joined only the long way round
        (lambda: cycle_graph(12), (0, 1), 1),
        (lambda: path_graph(12), (5, 6), 2),  # a bridge mid-path: 0-5 and 6-11 split
    ],
    ids=["edge0-1", "edge1-2", "long-cycle-1", "long-path-2"],
)
def test_removal_splits_only_at_a_bridge(build, edge, components):
    g = build()
    g.remove_edge(*edge)
    assert edge_components_by_search(g) == components
    # the removal counts the split itself; connected() has nothing to search
    assert g._parts == components
    assert g.connected() == (components == 1)
    # the component count stays exact for the removals that follow
    for u, v in sorted(g.edges()):
        g.remove_edge(u, v)
        assert g._parts == edge_components_by_search(g)
        assert g.connected() == (g._parts <= 1)


def test_edge_components_split_and_merge():
    g = path_graph(4)
    g.add_node()
    assert g.connected()  # isolated nodes do not count
    g.remove_edge(1, 2)
    assert not g.connected()
    g.add_edge(0, 3)
    assert g.connected()
    g.remove_edge(0, 1)  # leaves node 1 isolated, not a second component
    assert g.connected()
    g.add_edge(1, 4)
    assert not g.connected()
    g.add_node()
    g.add_node()
    g.add_edge(5, 6)
    g.remove_edge(1, 4)  # a lone edge goes, two components are left
    assert not g.connected()
    g.remove_edge(5, 6)
    assert g.connected()
