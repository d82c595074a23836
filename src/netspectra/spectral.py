"""Spectral radius of the adjacency matrix by power iteration.

On graphs of more than 128 nodes the matrix is never materialized. The graph
keeps both directions of every edge as source/destination arc arrays,
updated in place as it mutates, so one multiply is one gather and one
bincount over them: O(edges) per iteration, with memory linear in the graph
even at thousands of nodes. The iterate stays unnormalized between
multiplies and the radius estimate is the growth of its norm, so an
iteration is the gather, the bincount and one dot product. At the sizes
tracked step by step, numpy's per-call overhead, not arithmetic, sets its
cost. On graphs of at most 128 nodes a solve whose budget holds two
eighth-power steps (16 multiplies) therefore steps with a dense power of the
matrix, built once from the arcs by float32 squarings: the eighth power when
all its entries (walk counts) stay below 2**24, so that float32 holds them
exactly, else the fourth. A step is one matrix-vector product that does the
work of eight (or four) multiplies for about the cost of one sparse
multiply. Below a budget of 16 a solve takes single sparse multiplies, so
that from a budget of 2 it compares two estimates. Each solve chooses its
kernel once, before its first step, and steps with it alone until it
converges or another step would pass the budget.

Evolution runs solve after every one-to-few edge change, and a change that
small moves the principal eigenvector little. Each solve on a connected graph
therefore starts from the graph's previous converged iterate. A node added
since takes the value the eigen-equation gives it from its neighbours in that
iterate: their sum over the radius of the solve that stored it. A graph's
first solve and any solve on a disconnected graph start from the all-ones
vector, and so does a solve whose warm start squares to zero on every
endpoint of every edge (edges that moved onto nodes isolated at the last
solve). That rule is applied before the first multiply, so each solve makes
one attempt from one start. Here a graph counts as connected when one
component holds all its edges; isolated nodes do not count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import GraphError, NotConvergedError
from .graph import DegreeStats, Graph, degree_stats

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 100_000

# Squared iterate norm above which _iterate rescales its unnormalized iterate.
# A step of p multiplies grows it by at most n**(2p), n bounding the radius:
# below 1e34 for an M8 step (at most 128 nodes), far below the 1e108 left
# before float64 overflows.
_RESCALE_ABOVE = 1e200

# Node count up to which _iterate steps with a dense power of the matrix.
# At these sizes one dense matrix-vector product costs about as much as one
# sparse multiply while doing the work of eight (or four). At most 256, up
# to which _dense_powers' fourth power is always exact.
_DENSE_MAX_NODES = 128


@dataclass(frozen=True)
class PowerIterationConfig:
    """Stopping rule for power iteration.

    Iteration ends when two consecutive radius estimates (the factors by
    which a multiply grows the iterate's norm) agree to within ``tolerance``,
    or fails when another step would pass ``max_iterations`` multiplies.
    Dense steps, of 8 or 4 multiplies, are taken only on graphs of at most
    128 nodes and with a budget of at least 16; every other solve takes
    single multiplies. A failing solve has therefore taken ``max_iterations
    - max_iterations % p`` multiplies, p its step. Convergence needs two
    estimates, so a budget of 1 never converges.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


class SpectralResult(NamedTuple):
    """Outcome of one power-iteration solve.

    ``spectral_radius`` and ``residual``, the gap between the last two
    radius estimates, are Python floats on every kernel. ``shifted`` is
    always False: no solve shifts the matrix. The field stays because the
    benchmark's probe (``perfbench/probe.py``) reads it for its
    ``spectral.shifted`` count.

    ``iterations`` counts every multiply by the adjacency matrix the solve
    made, all from its one starting vector: the graph's previous converged
    iterate (a warm start) or the all-ones vector. A step with a dense power
    counts as that many multiplies: 8 with the eighth power, 4 with the
    fourth.

    ``principal_eigenvector`` is the final iterate, normalized. The estimates
    converge to the spectral radius for any graph, but on a bipartite graph
    the iterate itself keeps a component of the -radius eigenvector, so the
    vector approximates the principal eigenvector only when the top
    eigenvalue dominates in magnitude.
    """

    spectral_radius: float
    principal_eigenvector: np.ndarray
    iterations: int
    converged: bool
    residual: float
    shifted: bool = False


def _dense_powers(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """The one dense kernel (p, M) of a solve: M = A**p as an n x n float64
    array, A the 0/1 matrix filled from the arc arrays, with p = 8 when M8 is
    exact in float32, else p = 4. The fourth power thus serves only graphs
    whose walk counts pass 2**24.

    A's entries are 0 or 1, so every product and partial sum formed while
    squaring in float32 is a count of walks: a nonnegative integer no larger
    than the entry it adds up to. float32 holds every integer up to 2**24 and
    rounds monotonically, so the first inexact operation gives at least 2**24,
    and so does the entry it feeds. M4's entries are at most n**3 <= 2**24 for
    n <= 256, so M4 is always exact. M8 = M4 @ M4 = M4.T @ M4 is a Gram
    matrix, so by Cauchy-Schwarz its largest entry lies on its diagonal. A
    computed diagonal below 2**24 is therefore exact, the exact M8 lies below
    2**24 everywhere, and so every entry is exact too; a computed diagonal
    entry of 2**24 or more means the exact one is at least that.
    """
    m = np.zeros((n, n), dtype=np.float32)
    m[dst, src] = 1.0
    m = m.dot(m)
    m = m.dot(m)
    m8 = m.dot(m)
    if m8.diagonal().max() < 2**24:
        return 8, m8.astype(np.float64)
    return 4, m.astype(np.float64)


def _iterate(
    src: np.ndarray,
    dst: np.ndarray,
    x: np.ndarray,
    config: PowerIterationConfig,
) -> SpectralResult:
    """Run the norm-convergence loop for the matrix A of the arcs from ``x``.

    The iterate is not normalized between multiplies: with yy_k the squared
    norm of the k-th product (yy_0 that of ``x``), the radius estimate
    sqrt(yy_k / yy_{k-1}) is ``||A u||`` for the unit vector u along the
    previous iterate, so the stopping rule is that of a normalized loop. The
    iterate is rescaled only when its squared norm passes _RESCALE_ABOVE, and
    the result's vector is normalized.

    The kernel is chosen once, before the first step, by one rule: on a
    graph of at most _DENSE_MAX_NODES nodes whose budget holds two
    eighth-power steps (16 multiplies), the dense power M = A**p from
    _dense_powers; otherwise the sparse arcs, so that every budget from 2 up
    compares two estimates. A dense step is one matrix-vector product that
    counts as p multiplies, and its estimate is (yy_k / yy_{k-1}) ** (1 /
    (2p)), the geometric mean of the p growth factors; a sparse step is one
    multiply, a gather and a bincount over the arcs. The loop stops when
    another step would pass ``max_iterations``, so a failing solve has taken
    ``max_iterations - max_iterations % p`` multiplies; a budget of 1 holds
    one estimate and never converges.

    Precondition: ``x`` is nonnegative and x_j ** 2 is nonzero for some arc
    source j, as ``_start_vector`` ensures. Every product is then
    nonnegative and, rounding being monotone, its squared norm is at least
    x_j ** 2 for every arc source j: A x is at least x_j at each neighbour
    of j, and A**4 x or A**8 x at least x_j at j itself, the diagonal of
    those powers being at least 1 on a node with edges. So no product
    vanishes, and every exit returns a real iterate.
    """
    n = len(x)
    budget = config.max_iterations
    tolerance = config.tolerance
    power, m_dot = 1, None
    if n <= _DENSE_MAX_NODES and budget >= 16:
        power, m = _dense_powers(src, dst, n)
        m_dot = m.dot
    bincount = np.bincount
    exponent = 0.5 / power
    last_start = budget - power
    xx = float(x.dot(x))
    norm = math.inf
    iterations = 0
    while iterations <= last_start:
        if m_dot is None:
            y = bincount(dst, x[src], n)
        else:
            y = m_dot(x)
        iterations += power
        yy = float(y.dot(y))
        prev_norm, norm = norm, math.sqrt(yy / xx) if m_dot is None else (yy / xx) ** exponent
        residual = abs(norm - prev_norm)
        if residual <= tolerance:
            return SpectralResult(norm, y / math.sqrt(yy), iterations, True, residual)
        if yy > _RESCALE_ABOVE:
            y /= math.sqrt(yy)
            yy = 1.0
        x, xx = y, yy
    return SpectralResult(norm, x / math.sqrt(xx), iterations, False, residual)


def _start_vector(g: Graph, connected: bool) -> np.ndarray:
    """The start of the next solve on ``g``, which has edges: the graph's last
    converged iterate, with each node added since padded from the
    eigen-equation; all-ones when the graph has none, is not connected, or
    that iterate squares to zero on every arc source.

    A new node v gets sum(x_u for its neighbours u already in the iterate),
    added in ascending node order so that the padding depends only on the
    graph, divided by the radius of the solve that stored it: the value that
    makes row v of A x = radius * x hold on the old entries.

    The last test is ``_iterate``'s precondition: the start is nonnegative,
    so the first product's squared norm is at least x_j ** 2 for any arc
    source j, and a start that passes it cannot vanish. The first source is
    tried alone, in O(1), before all of them.
    """
    n = g.node_count
    if g.warm is not None and connected:
        warm, radius = g.warm
        k = len(warm)
        x = warm if k == n else np.concatenate((warm, np.empty(n - k)))
        for v in range(k, n):
            x[v] = sum(warm[u] for u in g.neighbors(v) if u < k) / radius
        src = g.arcs()[0]
        if x[src[0]] ** 2 or (x[src] ** 2).any():
            return x
    return np.ones(n, dtype=np.float64)


def power_iteration(
    g: Graph, config: PowerIterationConfig = PowerIterationConfig()
) -> SpectralResult:
    """Largest adjacency eigenvalue of ``g`` and its eigenvector.

    Starts from the graph's last converged iterate (``Graph.warm``), or
    from the all-ones vector on the graph's first solve, whenever the graph
    is disconnected, and when the warm start squares to zero on every
    endpoint of every edge (``_start_vector``). The factor by which one
    multiply grows the iterate's Euclidean norm converges to the spectral
    radius, and iteration stops when two consecutive factors agree to
    within the tolerance. For symmetric A the factors only rise, but slowly
    when the most negative eigenvalue nearly matches the radius in
    magnitude. The converged iterate of a connected graph, normalized, and
    the radius become its new ``warm`` pair; a disconnected graph's is
    cleared.

    A solve makes one attempt, one ``_iterate`` call. Raises
    NotConvergedError when it exhausts its budget. The error carries that
    attempt's result, whose iterations never exceed ``max_iterations``.
    """
    n = g.node_count
    if n == 0:
        raise GraphError("power iteration needs at least one node")
    if g.edge_count == 0:
        return SpectralResult(
            spectral_radius=0.0,
            principal_eigenvector=np.ones(n) / np.sqrt(n),
            iterations=0,
            converged=True,
            residual=0.0,
        )
    src, dst = g.arcs()
    # Isolated nodes aside, a disconnected graph's iterate fades on every
    # component but the dominant one, so it is a poor start once another
    # component overtakes: warm starts chain only across connected graphs.
    connected = g.connected()
    result = _iterate(src, dst, _start_vector(g, connected), config)
    if not result.converged:
        raise NotConvergedError(
            f"power iteration did not converge within {config.max_iterations} "
            f"iterations (last residual {result.residual:.3e})",
            result=result,
        )
    g.warm = (result.principal_eigenvector.copy(), result.spectral_radius) if connected else None
    return result


def lambda_ratio(stats: DegreeStats, solve: Callable[[], SpectralResult]) -> float:
    """The spectral radius over the mean degree of a graph with degree
    statistics ``stats``, the radius taken from ``solve()``.

    Raises GraphError for a graph with no edges. A regular graph with edges
    has exactly 1.0, its radius being its common degree, and ``solve`` is
    called only for the other graphs.
    """
    if stats.k_avg == 0:
        raise GraphError("spectral radius ratio undefined: graph has no edges")
    if stats.k_min == stats.k_max:
        return 1.0
    return solve().spectral_radius / stats.k_avg


def spectral_radius_ratio(
    g: Graph,
    config: PowerIterationConfig = PowerIterationConfig(),
    stats: DegreeStats | None = None,
) -> float:
    """Spectral radius divided by mean degree, by ``lambda_ratio``'s rule.

    ``stats`` are the degree statistics of ``g`` as it stands, when the caller
    has them already. A regular graph with edges is not solved: its ratio is
    exactly 1.0.
    """
    if stats is None:
        stats = degree_stats(g)
    return lambda_ratio(stats, lambda: power_iteration(g, config))
