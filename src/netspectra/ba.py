"""Scale-free network growth by preferential attachment.

Construction in two phases. First a small seed graph: each of the initial
nodes is paired once with a uniformly random other node (a pairing that lands
on an existing edge is skipped, so the seed has at most one edge per pair).
Then nodes arrive one at a time, each wiring to a fixed number of existing
nodes chosen with probability proportional to degree.

Degrees used for target selection are frozen before the new node's edges go
in: all targets of one arrival are drawn against the same snapshot, without
replacement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError
from .graph import _MAX_NODES, Graph, Observer


@dataclass(frozen=True)
class BAConfig:
    """Growth parameters: seed size, final size, links added per arrival."""

    initial_nodes: int
    total_nodes: int
    links_per_node: int

    def __post_init__(self) -> None:
        if self.initial_nodes < 2:
            raise ValueError(
                f"initial_nodes must be >= 2 for the seed wiring, got {self.initial_nodes}"
            )
        if self.total_nodes < self.initial_nodes:
            raise ValueError(
                f"total_nodes ({self.total_nodes}) must be >= initial_nodes "
                f"({self.initial_nodes})"
            )
        # bounds initial_nodes too: the seed graph is allocated up front
        if self.total_nodes > _MAX_NODES:
            raise ValueError(f"total_nodes must be <= {_MAX_NODES}, got {self.total_nodes}")
        if self.links_per_node < 1:
            raise ValueError(f"links_per_node must be >= 1, got {self.links_per_node}")


def ba_initialize(initial_nodes: int, rng: np.random.Generator) -> Graph:
    """Seed graph: each node wired once to a uniform random partner.

    Pairings are drawn in node order. A draw that duplicates an existing edge
    is dropped rather than redrawn, so the edge count lands between
    ceil(initial_nodes / 2) and initial_nodes. ``BAConfig`` checks that
    there are at least two nodes to pair.
    """
    g = Graph(initial_nodes)
    for i in range(initial_nodes):
        j = int(rng.integers(initial_nodes - 1))
        if j >= i:
            j += 1
        if not g.has_edge(i, j):
            g.add_edge(i, j)
    return g


def select_targets(g: Graph, links: int, rng: np.random.Generator) -> set[int]:
    """Choose attachment targets among the current nodes of ``g``.

    Roulette-wheel selection without replacement over the degree sequence as
    it stands on entry. Asking for at least as many links as there are nodes
    degenerates to connecting to everyone.
    """
    count = g.node_count
    if links >= count:
        return set(range(count))
    # Running degree totals; a drawn node's degree is taken out of every
    # total from its own on. The totals are integers below 2**53, exact in a
    # float, and an integer total exceeds r exactly when it exceeds int(r),
    # so the search needs no float copy of them. rng.random() is at most
    # 1 - 2**-53, so r rounds to below the total T for any T < 2**53; then
    # int(r) < cumulative[-1] and the search lands on a node, never past
    # the last one.
    cumulative = g.degree_array().cumsum()
    chosen: set[int] = set()
    for _ in range(links):
        total = int(cumulative[-1])
        if total <= 0:
            raise GraphError("roulette selection ran out of positive-degree candidates")
        r = rng.random() * total
        idx = int(cumulative.searchsorted(int(r), side="right"))
        chosen.add(idx)
        # without replacement
        cumulative[idx:] -= cumulative[idx] - (cumulative[idx - 1] if idx else 0)
    return chosen


def ba_evolve(
    config: BAConfig,
    rng: np.random.Generator,
    observer: Observer | None = None,
) -> Graph:
    """Grow a network to ``config.total_nodes`` and return it.

    ``observer`` is called after the seed wiring with step ``initial_nodes - 1``
    and then after each arrival with the new node's ID as the step, so the
    step doubles as the highest node ID present.
    """
    g = ba_initialize(config.initial_nodes, rng)
    if observer is not None:
        observer(config.initial_nodes - 1, g)
    for step in range(config.initial_nodes, config.total_nodes):
        targets = select_targets(g, config.links_per_node, rng)
        node = g.add_node()
        for v in sorted(targets):
            g.add_edge(node, v)
        if observer is not None:
            observer(step, g)
    return g
