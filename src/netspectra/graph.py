"""Undirected simple graphs with incremental mutation and degree statistics.

Nodes are dense 0-based integer IDs assigned in creation order; self-loops
and parallel edges are rejected. Each question about the graph is answered
from one of three stores, each updated in place on every mutation. Edge
membership, neighbours, the sorted edge list and the search that keeps the
count of edge components up to date come from one private map per node,
from neighbour to edge number. The matrix the spectral solver multiplies by
comes from the (source, destination) arc arrays, which hold both directions
of every edge. Degrees, and the degree moments of ``degree_stats``, come from
a degree array. The graph also counts the components that hold edges; a
mutation that may merge two or split one settles the count by a search
between its edge's endpoints.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import EdgeListParseError, GraphError

_MIN_CAPACITY = 16


def _grown(a: np.ndarray, needed: int) -> np.ndarray:
    """``a`` itself if it holds ``needed`` entries, else a zero-padded copy
    with at least double the capacity."""
    if needed <= len(a):
        return a
    out = np.zeros(max(needed, 2 * len(a), _MIN_CAPACITY), dtype=a.dtype)
    out[: len(a)] = a
    return out


class Graph:
    """Mutable undirected simple graph.

    Three stores, one role each. Each node's edge map sends every neighbour
    to the number ``i`` of the edge between them, and holds the same ``i``
    as the neighbour's map does for the node; it answers edge membership,
    neighbours, the edge list and the connectivity search. Edge ``i``
    occupies arc slots ``2i`` (u to v) and ``2i + 1`` (v to u) of the
    arrays returned by ``arcs``, which the spectral solver multiplies by.
    Adding an edge appends its pair; removing one moves the last pair into
    the freed slots and renumbers that edge in both endpoints' maps, so arc
    order is insertion order only until the first removal. The degree array
    answers degrees, and ``degree_stats`` takes the degree moments from it.

    ``_parts`` counts the components that hold edges, and each mutation
    updates it from its endpoints. An edge between two isolated nodes starts
    a component, and one that touches an isolated node extends one. An edge
    between two nodes that have edges merges two exactly when no path joined
    them before, which can only happen while there are several. A removal
    that isolates both endpoints ends a component, and one that isolates
    either, or whose endpoints still share a neighbour, splits nothing. Any
    other removal splits one exactly when no path joins its endpoints any
    more. Both questions are settled on the spot by a search from the two
    endpoints that stops where they meet.

    ``warm`` is None (a new graph has none) or the pair (vector, radius) of
    the last converged power-iteration solve on this graph while it was
    connected: its normalized iterate and its spectral radius.
    ``power_iteration`` starts the next solve from the vector, padding nodes
    added since with the help of the radius, and clears the pair after a
    solve on a disconnected graph.
    """

    __slots__ = (
        "_adj",
        "_edge_count",
        "_src",
        "_dst",
        "_deg",
        "_parts",
        "warm",
    )

    def __init__(self, node_count: int = 0) -> None:
        if node_count < 0:
            raise ValueError(f"node_count must be nonnegative, got {node_count}")
        # per node: neighbour -> number of the edge between them
        self._adj: list[dict[int, int]] = [{} for _ in range(node_count)]
        self._edge_count = 0
        self._src = np.zeros(_MIN_CAPACITY, dtype=np.intp)
        self._dst = np.zeros(_MIN_CAPACITY, dtype=np.intp)
        self._deg = np.zeros(max(node_count, _MIN_CAPACITY), dtype=np.int64)
        self._parts = 0  # components that hold edges
        self.warm: tuple[np.ndarray, float] | None = None

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def add_node(self) -> int:
        """Append an isolated node and return its ID (the previous node count)."""
        node = len(self._adj)
        self._adj.append({})
        self._deg = _grown(self._deg, node + 1)
        return node

    def _check_node(self, u: int) -> None:
        if not 0 <= u < len(self._adj):
            raise GraphError(f"node {u} out of range for graph with {len(self._adj)} nodes")

    def add_edge(self, u: int, v: int) -> None:
        """Insert edge (u, v).

        Raises GraphError for a node out of range, a self-loop or an edge
        already present.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop {u}-{v}")
        nu = self._adj[u]
        nv = self._adj[v]
        if v in nu:
            raise GraphError(f"duplicate edge {u}-{v}")
        if not nu and not nv:
            self._parts += 1
        elif nu and nv and self._parts > 1 and not self._joined(u, v):
            self._parts -= 1
        i = nu[v] = nv[u] = self._edge_count
        self._src = _grown(self._src, 2 * i + 2)
        self._dst = _grown(self._dst, 2 * i + 2)
        self._src[2 * i] = self._dst[2 * i + 1] = u
        self._dst[2 * i] = self._src[2 * i + 1] = v
        self._deg[u] += 1
        self._deg[v] += 1
        self._edge_count = i + 1

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge (u, v). Raises GraphError for a node out of range or
        an edge not present."""
        self._check_node(u)
        self._check_node(v)
        nu = self._adj[u]
        nv = self._adj[v]
        i = nu.pop(v, None)
        if i is None:
            raise GraphError(f"edge {u}-{v} not present")
        del nv[u]
        last = self._edge_count - 1
        if i != last:
            a = int(self._src[2 * last])
            b = int(self._dst[2 * last])
            self._src[2 * i] = self._dst[2 * i + 1] = a
            self._dst[2 * i] = self._src[2 * i + 1] = b
            self._adj[a][b] = self._adj[b][a] = i
        self._deg[u] -= 1
        self._deg[v] -= 1
        self._edge_count = last
        if not nu and not nv:
            self._parts -= 1
        elif nu and nv and nu.keys().isdisjoint(nv) and not self._joined(u, v):
            self._parts += 1

    def _joined(self, u: int, v: int) -> bool:
        """Whether a path joins ``u`` and ``v``: a breadth-first search from
        each, one level at a time from the smaller frontier, until one
        reaches a node the other has seen or runs out of nodes."""
        adj = self._adj
        seen_a = front_a = {u}
        seen_b = front_b = {v}
        while front_a:
            if len(front_a) > len(front_b):
                front_a, front_b, seen_a, seen_b = front_b, front_a, seen_b, seen_a
            front_a = set().union(*(adj[x] for x in front_a)) - seen_a
            if not front_a.isdisjoint(seen_b):
                return True
            seen_a |= front_a
        return False

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def neighbors(self, u: int) -> list[int]:
        """Neighbours of ``u`` in ascending order, as a new list."""
        self._check_node(u)
        return sorted(self._adj[u])

    def degrees(self) -> list[int]:
        """Degree sequence indexed by node ID."""
        return self.degree_array().tolist()

    def degree_array(self) -> np.ndarray:
        """Degree sequence as an int64 array view. Treat as read-only."""
        return self._deg[: len(self._adj)]

    def connected(self) -> bool:
        """Whether at most one connected component holds edges; isolated
        nodes do not count. Read from the component count, with no search."""
        return self._parts <= 1

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Source and destination arrays of both directions of every edge
        (2 * edge_count entries each), as views. Treat as read-only."""
        k = 2 * self._edge_count
        return self._src[:k], self._dst[:k]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, nu in enumerate(self._adj):
            yield from ((u, v) for v in sorted(nu) if v > u)

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


# What both evolution models call with each step's number and the graph as
# it stands after that step.
Observer = Callable[[int, Graph], None]


class DegreeStats(NamedTuple):
    """Population statistics of a degree sequence.

    ``k_sd`` divides the variance by n, not n - 1: the degree sequence is the
    whole population of the network, not a sample.
    """

    k_min: int
    k_max: int
    k_avg: float
    k_sd: float

    @property
    def cv(self) -> float:
        """Coefficient of variation, k_sd / k_avg. Undefined at zero mean degree."""
        if self.k_avg == 0:
            raise GraphError("cv undefined: graph has no edges")
        return self.k_sd / self.k_avg


def degree_stats(g: Graph) -> DegreeStats:
    """Compute min/mean/max/population-SD of the degree sequence of ``g``.

    The variance comes from exact integer moments, (n*S2 - S1**2) / n**2 with
    S1 and S2 the sums of degrees and squared degrees, so it is correctly
    rounded and independent of node order. S1 is twice the edge count and S2
    the int64 dot product of the degree array with itself, exact under the
    _MAX_NODES cap: n * k_max**2 < 10**18 < 2**63.
    """
    n = g.node_count
    if n == 0:
        raise GraphError("degree statistics need at least one node")
    degs = g.degree_array()
    s1 = 2 * g.edge_count
    s2 = int(degs.dot(degs))
    variance = (n * s2 - s1 * s1) / (n * n)
    return DegreeStats(
        k_min=int(degs.min()), k_max=int(degs.max()), k_avg=s1 / n, k_sd=math.sqrt(variance)
    )


_NODES_HEADER = re.compile(r"#\s*nodes:\s*([0-9]+)\s*$")

# Largest node count parse_edge_list accepts. The graph is sized from the
# '# nodes:' header or the largest node ID before any edge is added, and
# every node gets an edge map and a degree slot, 80 B before its first edge:
# a million nodes already take ~80 MB, so a few bytes of input must not ask
# for more.
_MAX_NODES = 10**6


def _decimal(digits: str) -> int:
    """The value of a string of ASCII digits. One with more significant digits
    than _MAX_NODES counts as _MAX_NODES + 1: int() refuses strings of more
    than 4,300 digits."""
    digits = digits.lstrip("0")
    return int(digits or 0) if len(digits) <= len(str(_MAX_NODES)) else _MAX_NODES + 1


def parse_edge_list(text: str) -> Graph:
    """Build a graph from edge-list text.

    One edge per line as two whitespace-separated node IDs of ASCII digits.
    Lines beginning with ``#`` are comments; a ``# nodes: <n>`` header fixes
    the node count, otherwise it is inferred as 1 + the largest ID seen.

    Raises EdgeListParseError on malformed input, a node count above
    _MAX_NODES, a self-loop or a duplicate edge, with the offending line
    number in ``.line`` when there is one.
    """
    declared: int | None = None
    edges: list[tuple[int, int, int]] = []
    max_id = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _NODES_HEADER.match(line)
            if m and declared is None:
                declared = _decimal(m.group(1))
                if declared > _MAX_NODES:
                    raise EdgeListParseError(f"node count exceeds the limit of {_MAX_NODES}", line_no)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"expected two node IDs, got {len(parts)} field(s): {line!r}", line_no
            )
        # int() would also take signs, underscores and non-ASCII digits
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise EdgeListParseError(f"node IDs must be decimal integers: {line!r}", line_no)
        u, v = _decimal(parts[0]), _decimal(parts[1])
        if max(u, v) >= _MAX_NODES:
            raise EdgeListParseError(f"node ID exceeds the limit of {_MAX_NODES} nodes: {line!r}", line_no)
        edges.append((u, v, line_no))
        max_id = max(max_id, u, v)

    if declared is None:
        if max_id < 0:
            raise EdgeListParseError("no edges and no '# nodes:' header; node count unknown")
        node_count = max_id + 1
    else:
        node_count = declared
        if max_id >= node_count:
            bad = next(ln for u, v, ln in edges if u >= node_count or v >= node_count)
            raise EdgeListParseError(
                f"node ID exceeds declared node count {node_count}", bad
            )

    g = Graph(node_count)
    for u, v, line_no in edges:
        try:
            g.add_edge(u, v)
        except GraphError as exc:
            raise EdgeListParseError(str(exc), line_no) from None
    return g
