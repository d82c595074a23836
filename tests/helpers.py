"""Shared graph builders, edge-list writing and graph comparison, an
independent spectral radius oracle, frozen copies of earlier solver and
selection loops, and the environment of child processes for tests."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from netspectra import Graph, GraphError


def package_env() -> dict[str, str]:
    """This process's environment, with this checkout's ``src`` first on
    ``PYTHONPATH``, so that a child process imports the tested package."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def same_graph(a: Graph, b: Graph) -> bool:
    """Whether ``a`` and ``b`` have the same nodes and the same neighbours
    at every node, whatever order their edges were added in."""
    return [a.neighbors(u) for u in range(a.node_count)] == [
        b.neighbors(u) for u in range(b.node_count)
    ]


def write_edge_list(g: Graph) -> str:
    """Edge-list text that ``parse_edge_list`` (and so ``analyze``) reads
    back as ``g``: a ``# nodes:`` header, then each edge once as ``u v``
    with u < v, in sorted order."""
    lines = [f"# nodes: {g.node_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def cycle_graph(n: int) -> Graph:
    g = Graph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def path_graph(n: int) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def edge_components_by_search(g: Graph) -> int:
    """The number of connected components that hold edges, by a depth-first
    search over ``neighbors``."""
    seen = set()
    count = 0
    for start in range(g.node_count):
        if start in seen or not g.neighbors(start):
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for b in g.neighbors(stack.pop()):
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
    return count


def complete_graph(n: int) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def nearly_bipartite(a: int = 5, b: int = 5) -> Graph:
    """The complete bipartite graph on sides 0..a-1 and a..a+b-1 plus the
    edge (0, 1) inside the first side. Its most negative eigenvalue nearly
    matches the radius in magnitude, so plain power iteration converges
    slowly."""
    g = Graph(a + b)
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v)
    g.add_edge(0, 1)
    return g


def star_graph(n: int) -> Graph:
    """Hub node 0 joined to n - 1 leaves."""
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(0, v)
    return g


def fresh_copy(g: Graph) -> Graph:
    """A new graph with the edges of ``g`` added in its arc order, so its
    arc arrays equal those of ``g`` and a solve on it starts cold, without
    ``g``'s warm vector."""
    h = Graph(g.node_count)
    src, dst = g.arcs()
    for u, v in zip(src[::2].tolist(), dst[::2].tolist()):
        h.add_edge(u, v)
    return h


def disjoint_union(a: Graph, b: Graph) -> Graph:
    g = Graph(a.node_count + b.node_count)
    for u, v in a.edges():
        g.add_edge(u, v)
    for u, v in b.edges():
        g.add_edge(a.node_count + u, a.node_count + v)
    return g


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.node_count, g.node_count), dtype=np.float64)
    for u, v in g.edges():
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def trace_oracle_spectral_radius(g: Graph) -> float:
    """Spectral radius estimate from matrix powers, independent of power iteration.

    Uses trace(A^128) ** (1/128): the 128th power moment of the spectrum is
    dominated by the largest eigenvalue magnitude. Computed by 7 repeated
    squarings with max-entry rescaling, tracking the scale in log space so
    entries never overflow.

    Accurate to well below 1e-3 when one eigenvalue dominates in magnitude.
    A graph whose top magnitude is attained r times (a bipartite graph, or
    tied components) reads high by the factor r ** (1/128), about 0.54% for
    r = 2, so tests that demand tight agreement must use graphs with a
    dominant simple eigenvalue.
    """
    b = adjacency_matrix(g)
    log_scale = 0.0
    for _ in range(7):
        m = float(np.abs(b).max())
        if m == 0.0:
            return 0.0
        b = b / m
        log_scale = 2.0 * (log_scale + np.log(m))
        b = b @ b
    trace = float(np.trace(b))
    if trace <= 0.0:
        return 0.0
    return float(np.exp((np.log(trace) + log_scale) / 128.0))


def reference_power_iteration(
    g: Graph, tolerance: float = 1e-10, max_iterations: int = 100_000
) -> tuple[float, int, bool]:
    """The solver's plain loop as it was before its iterate went unnormalized:
    normalize after every multiply and stop when two consecutive norms agree
    to within ``tolerance``. Starts from all-ones; returns (radius,
    iterations, converged)."""
    n = g.node_count
    src, dst = g.arcs()
    x = np.ones(n, dtype=np.float64)
    prev_norm = -1.0
    for iterations in range(1, max_iterations + 1):
        y = np.bincount(dst, weights=x[src], minlength=n)
        norm = float(np.sqrt(y @ y))
        x = y / norm
        if prev_norm >= 0.0 and abs(norm - prev_norm) <= tolerance:
            return norm, iterations, True
        prev_norm = norm
    return prev_norm, max_iterations, False


def reference_iterate(
    src: np.ndarray,
    dst: np.ndarray,
    x: np.ndarray,
    tolerance: float,
    max_iterations: int,
    shift: float,
) -> tuple[float, np.ndarray, int, bool, float]:
    """An independent oracle for ``spectral._iterate``'s one-kernel loop.
    The kernel is chosen once: on at most 128 nodes with a budget of at
    least 16, M8 = (A + shift*I)**8 when every entry of it is below 2**24,
    else M4 = (A + shift*I)**4; otherwise single multiplies by the sparse
    arcs. Steps continue while one more fits the budget. The dense powers
    are integer matrix powers taken in int64, not the library's float32
    squarings, and M8's exactness is read from all of its entries, not its
    diagonal, so a bit-identical result also checks that those squarings
    and that decision are exact."""
    n = len(x)
    step, m = 1, None
    if n <= 128 and max_iterations >= 16:
        a = np.zeros((n, n), dtype=np.int64)
        a[dst, src] = 1
        a[np.diag_indices(n)] = int(shift)
        a4 = np.linalg.matrix_power(a, 4)
        a8 = a4 @ a4
        step, m = (8, a8) if a8.max() < 2**24 else (4, a4)
        m = m.astype(np.float64)
    xx = x.dot(x)
    prev_norm = -1.0
    residual = math.inf
    iterations = 0
    while iterations + step <= max_iterations:
        if m is None:
            y = np.bincount(dst, x[src], n)
            if shift:
                y += shift * x
        else:
            y = m @ x
        iterations += step
        yy = y.dot(y)
        norm = math.sqrt(yy / xx) if step == 1 else (yy / xx) ** (0.5 / step)
        if prev_norm >= 0.0:
            residual = abs(norm - prev_norm)
            if residual <= tolerance:
                return norm, y / math.sqrt(yy), iterations, True, residual
        prev_norm = norm
        if yy > 1e200:
            y /= math.sqrt(yy)
            yy = 1.0
        x, xx = y, yy
    return prev_norm, x / math.sqrt(xx), iterations, False, residual


def reference_select_targets(degrees: np.ndarray, links: int, rng: np.random.Generator) -> set[int]:
    """``ba.select_targets`` as it was: a float copy of the degrees, one fresh
    cumulative sum per draw and the drawn weight zeroed."""
    count = len(degrees)
    if links >= count:
        return set(range(count))
    weights = np.asarray(degrees).astype(np.float64)
    chosen: set[int] = set()
    for _ in range(links):
        total = weights.sum()
        if total <= 0:
            raise GraphError("roulette selection ran out of positive-degree candidates")
        r = rng.random() * total
        cumulative = np.cumsum(weights)
        idx = int(np.searchsorted(cumulative, r, side="right"))
        if idx >= count:
            idx = count - 1
        chosen.add(idx)
        weights[idx] = 0.0
    return chosen
