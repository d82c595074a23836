"""Fixed reference work that gauges how fast the host runs right now.

Usage:
    python3 perfbench/reference.py

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, for every process alike, while the CPU time of a
fixed job drifts with it. ``run.py`` starts this script as a fresh process
next to every set-up and workload invocation and scales their times by its
time, so that a slow spell of the host cancels out while a change to
netspectra does not: this script imports nothing from netspectra.

The work mimics what the workloads spend their time on: a fresh interpreter
importing numpy, Python loops over adjacency sets, and power iteration by
numpy ``bincount`` on a small dense-spectrum graph (like ``ws-rewire``) and a
1000-node sparse graph (like ``ba-large``). Keep it frozen: changing it moves
every time the benchmark reports.
"""

from __future__ import annotations

import numpy as np


def random_graph(n: int, links: int, rng) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(1, n):
        for v in rng.integers(0, u, links):
            adj[u].add(int(v))
            adj[int(v)].add(u)
    return adj


def radius(adj: list[set[int]], extractions: int, iterations: int) -> float:
    for _ in range(extractions):
        us, vs = [], []
        for u, nbrs in enumerate(adj):
            for v in sorted(nbrs):
                if u < v:
                    us.append(u)
                    vs.append(v)
    n = len(adj)
    src, dst = np.asarray(us, dtype=np.intp), np.asarray(vs, dtype=np.intp)
    x = np.ones(n)
    norm = 0.0
    for _ in range(iterations):
        y = np.bincount(src, weights=x[dst], minlength=n) + np.bincount(
            dst, weights=x[src], minlength=n
        )
        norm = float(np.linalg.norm(y))
        x = y / norm
    return norm


def main() -> None:
    rng = np.random.default_rng(20150409)
    small, large = random_graph(100, 3, rng), random_graph(1000, 2, rng)
    for _ in range(10):
        radius(small, 10, 300)
        radius(large, 6, 50)


if __name__ == "__main__":
    main()
