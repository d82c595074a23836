"""Small-world networks: a coupled double ring with random rewiring.

The starting lattice is two rings of N nodes each. Outer nodes are 0..N-1,
inner nodes N..2N-1. Every node begins with degree 4:

  * ring links: i to its ring neighbors, same on the inner ring
  * cross links: outer i to inner N+i and to inner N+((i+1) mod N)

Rewiring sweeps the initial links once in construction order. A link caught
by the probability draw keeps its lower endpoint and moves the other end to a
node picked uniformly among non-neighbors. Links created by the sweep are
never themselves rewired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _MAX_NODES, Graph, Observer


@dataclass(frozen=True)
class WSConfig:
    nodes_per_ring: int
    rewiring_probability: float

    def __post_init__(self) -> None:
        # the double ring has 2 * nodes_per_ring nodes, each allocated up front
        if not 3 <= self.nodes_per_ring <= _MAX_NODES // 2:
            raise ValueError(
                f"nodes_per_ring must be in [3, {_MAX_NODES // 2}], got {self.nodes_per_ring}"
            )
        if not 0.0 <= self.rewiring_probability <= 1.0:
            raise ValueError(
                f"rewiring_probability must be in [0, 1], got {self.rewiring_probability}"
            )


@dataclass(frozen=True)
class RewireEvent:
    """One probability-draw hit during the sweep.

    ``new_edge`` is None when every possible endpoint was already a neighbor
    of the kept node, so the link stayed in place.
    """

    original_edge: tuple[int, int]
    new_edge: tuple[int, int] | None


def _ordered(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _nth_outside(excluded: list[int], j: int) -> int:
    """The j-th (0-based) nonnegative integer not in ``excluded``, which is
    sorted ascending: the j-th entry of the ascending candidate list."""
    for e in excluded:
        if e > j:
            break
        j += 1
    return j


def initial_edges(nodes_per_ring: int) -> list[tuple[int, int]]:
    """Lattice links in construction order, each normalized lower-ID first."""
    n = nodes_per_ring
    edges: list[tuple[int, int]] = []
    for i in range(n):
        edges.append(_ordered(i, (i + 1) % n))
    for i in range(n):
        edges.append(_ordered(n + i, n + (i + 1) % n))
    for i in range(n):
        edges.append(_ordered(i, n + i))
        edges.append(_ordered(i, n + (i + 1) % n))
    return edges


def ws_initialize(config: WSConfig) -> Graph:
    """Build the unrewired double-ring lattice: 2N nodes, 4N links, all degree 4."""
    g = Graph(2 * config.nodes_per_ring)
    for u, v in initial_edges(config.nodes_per_ring):
        g.add_edge(u, v)
    return g


def ws_rewire(
    g: Graph,
    config: WSConfig,
    rng: np.random.Generator,
    observer: Observer | None = None,
) -> list[RewireEvent]:
    """Apply the rewiring sweep to a freshly built lattice, in place.

    Each initial link draws one uniform variate; the link is rewired when the
    draw is at or below the rewiring probability. The replacement endpoint is
    uniform over nodes that are neither the kept endpoint nor any of its
    current neighbors. Candidate exhaustion is recorded as an event whose
    ``new_edge`` is None instead of an error.

    Returns the events in order. ``observer(step, graph)`` runs after each
    completed rewire (not after such an event) with the mutated graph, step
    k after the k-th completed rewire. At probability zero the sweep returns
    immediately and consumes no randomness, so the lattice is untouched by
    construction rather than by chance.
    """
    if g.node_count != 2 * config.nodes_per_ring:
        raise ValueError(
            f"graph has {g.node_count} nodes, expected {2 * config.nodes_per_ring}"
        )
    beta = config.rewiring_probability
    if beta == 0.0:
        return []
    total = g.node_count
    events: list[RewireEvent] = []
    steps = 0
    for u, v in initial_edges(config.nodes_per_ring):
        if rng.random() > beta:
            continue
        # v is a neighbour of u, so excluding u and its neighbours excludes v.
        excluded = sorted([u, *g.neighbors(u)])
        if len(excluded) == total:
            events.append(RewireEvent((u, v), None))
            continue
        w = _nth_outside(excluded, int(rng.integers(total - len(excluded))))
        g.remove_edge(u, v)
        g.add_edge(u, w)
        events.append(RewireEvent((u, v), _ordered(u, w)))
        steps += 1
        if observer is not None:
            observer(steps, g)
    return events


def ws_evolve(
    config: WSConfig,
    rng: np.random.Generator,
    observer: Observer | None = None,
) -> Graph:
    """Build a lattice, apply the rewiring sweep to it and return it.

    ``observer`` sees the pristine lattice as step 0, then ``ws_rewire``
    passes it the graph as step k after the k-th completed rewire; an event
    whose ``new_edge`` is None is not a step.
    """
    g = ws_initialize(config)
    if observer is not None:
        observer(0, g)
    ws_rewire(g, config, rng, observer)
    return g
