import math

import numpy as np
import pytest

from netspectra import (
    BAConfig,
    Graph,
    GraphError,
    NotConvergedError,
    PowerIterationConfig,
    WSConfig,
    ba_evolve,
    degree_stats,
    power_iteration,
    spectral_radius_ratio,
    ws_evolve,
    ws_rewire,
)
from netspectra import spectral
from netspectra.spectral import _DENSE_MAX_NODES, _dense_powers, _iterate, _start_vector
from netspectra.ws import ws_initialize

from helpers import (
    adjacency_matrix,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_components_by_search,
    erdos_renyi,
    fresh_copy,
    nearly_bipartite,
    path_graph,
    reference_iterate,
    reference_power_iteration,
    star_graph,
    trace_oracle_spectral_radius,
)


def test_known_radii():
    cases = [
        (star_graph(5), 2.0),  # star: sqrt(leaf count)
        (complete_graph(5), 4.0),
        (cycle_graph(5), 2.0),
        (cycle_graph(6), 2.0),
        (path_graph(3), math.sqrt(2)),
    ]
    for g, expected in cases:
        result = power_iteration(g)
        assert result.converged
        assert result.spectral_radius == pytest.approx(expected, abs=1e-8)


def test_single_edge():
    g = Graph(2)
    g.add_edge(0, 1)
    assert power_iteration(g).spectral_radius == pytest.approx(1.0, abs=1e-10)


def test_disconnected_takes_largest_component_radius():
    g = disjoint_union(star_graph(5), path_graph(3))
    assert power_iteration(g).spectral_radius == pytest.approx(2.0, abs=1e-8)


def test_eigenvector_is_unit_norm_and_nonnegative():
    for g in (star_graph(5), cycle_graph(6), erdos_renyi(15, 0.4, np.random.default_rng(3))):
        vec = power_iteration(g).principal_eigenvector
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        assert np.all(vec >= 0)


def test_eigenvector_uniform_on_complete_graph():
    vec = power_iteration(complete_graph(5)).principal_eigenvector
    assert vec == pytest.approx(np.full(5, 1 / math.sqrt(5)))


def test_eigenvector_satisfies_eigen_equation_when_gap_is_clear():
    from helpers import adjacency_matrix

    g = erdos_renyi(12, 0.6, np.random.default_rng(8))
    result = power_iteration(g)
    a = adjacency_matrix(g)
    v = result.principal_eigenvector
    assert np.linalg.norm(a @ v - result.spectral_radius * v) < 1e-5


def test_edgeless_graph_has_zero_radius():
    result = power_iteration(Graph(4))
    assert result.spectral_radius == 0.0
    assert result.converged
    assert result.iterations == 0


def test_zero_node_graph_rejected():
    with pytest.raises(GraphError, match="at least one node"):
        power_iteration(Graph(0))


def test_convergence_diagnostics():
    result = power_iteration(erdos_renyi(20, 0.3, np.random.default_rng(5)))
    assert result.converged
    assert not result.shifted
    assert result.iterations >= 1
    assert result.residual <= 1e-10


@pytest.mark.parametrize("n", [_DENSE_MAX_NODES, _DENSE_MAX_NODES + 1])
def test_radius_and_residual_are_python_floats_on_both_kernels(n):
    result = power_iteration(erdos_renyi(n, 0.1, np.random.default_rng(3)))
    assert type(result.spectral_radius) is float
    assert type(result.residual) is float


def test_matches_trace_oracle_on_dense_random_graphs():
    rng = np.random.default_rng(314)
    for _ in range(20):
        n = int(rng.integers(6, 13))
        g = erdos_renyi(n, float(rng.uniform(0.5, 0.8)), rng)
        oracle = trace_oracle_spectral_radius(g)
        assert power_iteration(g).spectral_radius == pytest.approx(oracle, abs=1e-6)


def test_exhausted_budget_raises_with_partial_result():
    with pytest.raises(NotConvergedError) as exc:
        power_iteration(star_graph(5), PowerIterationConfig(max_iterations=1))
    partial = exc.value.result
    assert partial is not None
    assert partial.converged is False
    assert partial.iterations == 1
    assert partial.spectral_radius > 0
    assert np.linalg.norm(partial.principal_eigenvector) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("budget", range(2, 41))
def test_star_converges_at_every_budget_from_two(budget):
    # The star's radius is 2. From all-ones, one multiply already gives the
    # radius and the next confirms it. Below a budget of 16 the solve takes
    # single sparse multiplies; from 16 it takes two M8 steps. No budget
    # leaves it a single estimate to converge against.
    result = power_iteration(star_graph(5), PowerIterationConfig(max_iterations=budget))
    assert result.converged and not result.shifted
    assert result.spectral_radius == 2.0
    assert result.iterations == (2 if budget < 16 else 16)


@pytest.fixture
def iterate_calls(monkeypatch):
    """One entry, its arguments, per _iterate call that power_iteration makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _iterate(*args)

    monkeypatch.setattr(spectral, "_iterate", counted)
    return calls


def test_slow_solve_fails_after_one_attempt(iterate_calls):
    # The solve needs 104 multiplies here (13 M8 steps), so a budget of 32
    # ends in NotConvergedError after four M8 steps and no second attempt.
    with pytest.raises(NotConvergedError) as exc:
        power_iteration(nearly_bipartite(), PowerIterationConfig(max_iterations=32))
    assert exc.value.result.iterations == 32
    assert len(iterate_calls) == 1


def test_slow_sparse_solve_fails_after_one_attempt(iterate_calls):
    # 130 nodes, past the dense cutoff: single sparse multiplies up to the
    # budget, in one attempt
    g = nearly_bipartite(64, 66)
    assert g.node_count == 130
    with pytest.raises(NotConvergedError) as exc:
        power_iteration(g, PowerIterationConfig(max_iterations=300))
    assert exc.value.result.iterations == 300
    assert len(iterate_calls) == 1


def test_nearly_bipartite_fails_on_a_budget_of_15():
    g = nearly_bipartite()
    with pytest.raises(NotConvergedError):
        power_iteration(g, PowerIterationConfig(max_iterations=15))


def test_failed_solve_reports_unit_eigenvector():
    with pytest.raises(NotConvergedError) as exc:
        power_iteration(nearly_bipartite(), PowerIterationConfig(max_iterations=15))
    vec = exc.value.result.principal_eigenvector
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_nearly_bipartite_converges_unshifted_at_the_default_budget():
    result = power_iteration(nearly_bipartite())
    assert result.converged
    assert not result.shifted
    assert result.spectral_radius == pytest.approx(5.231013288266764, abs=1e-8)


def test_config_validation():
    with pytest.raises(ValueError):
        PowerIterationConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        PowerIterationConfig(max_iterations=0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1.0])
def test_config_rejects_nonpositive_or_nonfinite_tolerance(tolerance):
    with pytest.raises(ValueError):
        PowerIterationConfig(tolerance=tolerance)


def test_ratio_star():
    assert spectral_radius_ratio(star_graph(5)) == pytest.approx(1.25)


def test_ratio_path3():
    assert spectral_radius_ratio(path_graph(3)) == pytest.approx(3 * math.sqrt(2) / 4)


def test_ratio_regular_graph_is_exactly_one():
    # analytic path: the radius of a regular graph equals its degree
    assert spectral_radius_ratio(cycle_graph(4)) == 1.0
    assert spectral_radius_ratio(complete_graph(4)) == 1.0


def test_ratio_needs_edges():
    with pytest.raises(GraphError, match="graph has no edges"):
        spectral_radius_ratio(Graph(3))


def test_ratio_always_at_least_one():
    rng = np.random.default_rng(99)
    for _ in range(25):
        g = erdos_renyi(int(rng.integers(5, 30)), 0.25, rng)
        if g.edge_count == 0:
            continue
        assert spectral_radius_ratio(g) >= 1.0 - 1e-9


def test_ratio_unchanged_by_disjoint_self_union():
    # the ratio does not care about graph size, only degree shape: two
    # copies side by side leave both the radius and the mean degree alone
    g = star_graph(5)
    doubled = disjoint_union(g, g)
    assert abs(spectral_radius_ratio(doubled) - spectral_radius_ratio(g)) <= 1e-6


def test_densifying_a_path_raises_the_radius():
    base = power_iteration(path_graph(5)).spectral_radius
    assert base == pytest.approx(math.sqrt(3.0), abs=1e-8)
    widened = path_graph(5)
    widened.add_edge(0, 2)
    assert power_iteration(widened).spectral_radius > base + 1e-6
    assert power_iteration(star_graph(5)).spectral_radius > base + 1e-6


class WarmVersusCold:
    """Observer that solves each non-regular graph warm, as a run does, and a
    fresh copy of it cold, recording the ratio gap and both iteration counts."""

    def __init__(self):
        self.gaps = []
        self.warm_iterations = 0
        self.cold_iterations = 0

    def __call__(self, g):
        stats = degree_stats(g)
        if stats.k_min == stats.k_max:
            return
        warm = power_iteration(g)
        cold = power_iteration(fresh_copy(g))
        self.gaps.append(abs(warm.spectral_radius - cold.spectral_radius) / stats.k_avg)
        self.warm_iterations += warm.iterations
        self.cold_iterations += cold.iterations

    def verify(self):
        assert len(self.gaps) > 50
        assert max(self.gaps) <= 1e-9
        assert self.warm_iterations < self.cold_iterations


@pytest.mark.parametrize("initial_nodes, seed", [(3, 11), (10, 12)])
def test_warm_start_agrees_with_cold_start_ba(initial_nodes, seed):
    check = WarmVersusCold()
    config = BAConfig(initial_nodes, 300, 2)
    ba_evolve(config, np.random.default_rng(seed), lambda step, g: check(g))
    check.verify()


@pytest.mark.parametrize("beta, seed", [(0.5, 13), (1.0, 14)])
def test_warm_start_agrees_with_cold_start_ws(beta, seed):
    check = WarmVersusCold()
    config = WSConfig(50, beta)
    ws_rewire(ws_initialize(config), config, np.random.default_rng(seed), lambda e, g: check(g))
    check.verify()


def test_solve_after_minor_component_overtakes():
    # A star grows to 10 leaves beside a 4-leaf star, whose share of the
    # iterate fades with every solve; then the small star's leaves are
    # closed into a cycle, making it a wheel of radius 1 + sqrt(5) > sqrt(10).
    # A start taken from the earlier iterates would stop at sqrt(10).
    g = disjoint_union(star_graph(6), star_graph(5))
    for leaves in range(6, 11):
        g.add_edge(g.add_node(), 0)
        assert power_iteration(g).spectral_radius == pytest.approx(math.sqrt(leaves), abs=1e-8)
    for u, v in ((7, 8), (8, 9), (9, 10), (10, 7)):
        g.add_edge(u, v)
    assert power_iteration(g).spectral_radius == pytest.approx(1 + math.sqrt(5), abs=1e-6)


def test_run_that_stays_disconnected_solves_cold():
    # This seed graph has two components, and one link per arrival never
    # joins them (it touches a new node, so it needs no search); every solve
    # must start from all-ones, as on a fresh copy.
    def check(step, g):
        assert g._parts == edge_components_by_search(g) == 2
        warm = power_iteration(g)
        cold = power_iteration(fresh_copy(g))
        assert (warm.spectral_radius, warm.iterations) == (cold.spectral_radius, cold.iterations)

    ba_evolve(BAConfig(40, 120, 1), np.random.default_rng(0), check)


@pytest.mark.parametrize(
    "seed, counts", [(1, {2, 3}), (0, {1, 2})], ids=["stays-split", "merges"]
)
def test_merges_by_addition_keep_the_count_exact(seed, counts):
    # Two links per arrival can join two components of the seed graph, and
    # the addition that does must count the merge by a search between its
    # endpoints. Seed 1 stays at two or three components for every step;
    # seed 0 becomes connected at its third step. While several components
    # hold edges, every solve must start from all-ones, as on a fresh copy.
    seen = set()

    def check(step, g):
        assert g._parts == edge_components_by_search(g)
        seen.add(g._parts)
        warm = power_iteration(g)
        if g._parts > 1:
            cold = power_iteration(fresh_copy(g))
            assert (warm.spectral_radius, warm.iterations) == (cold.spectral_radius, cold.iterations)

    ba_evolve(BAConfig(40, 120, 2), np.random.default_rng(seed), check)
    assert seen == counts


PINNED_GRAPHS = {
    "ws-beta-0.5": lambda: ws_evolve(WSConfig(50, 0.5), np.random.default_rng(21)),
    "ws-beta-1.0": lambda: ws_evolve(WSConfig(50, 1.0), np.random.default_rng(22)),
    "ws-ring-70": lambda: ws_evolve(WSConfig(70, 0.5), np.random.default_rng(25)),
    "ba-300": lambda: ba_evolve(BAConfig(3, 300, 2), np.random.default_rng(23)),
    "erdos-renyi": lambda: erdos_renyi(40, 0.15, np.random.default_rng(24)),
    "erdos-renyi-150": lambda: erdos_renyi(150, 0.05, np.random.default_rng(26)),
    "star": lambda: star_graph(9),
    "nearly-bipartite": nearly_bipartite,
}


@pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
def test_kernel_matches_normalized_reference_loop(name):
    # Above the dense cutoff each step is one sparse multiply, which must
    # reproduce the normalized loop; at or below it, steps multiply by A**8
    # or A**4, so the radius is checked against the dense eigensolver.
    g = PINNED_GRAPHS[name]()
    result = power_iteration(g)
    assert result.converged and not result.shifted
    if g.node_count <= _DENSE_MAX_NODES:
        expected = np.linalg.eigvalsh(adjacency_matrix(g))[-1]
        assert result.spectral_radius == pytest.approx(expected, rel=1e-9)
        return
    radius, iterations, converged = reference_power_iteration(g)
    assert converged
    assert result.spectral_radius == pytest.approx(radius, rel=1e-12)
    assert abs(result.iterations - iterations) <= 1


def joined_cliques(a, b):
    """Cliques on a and b nodes joined by one edge: the radius sits just
    above a - 1 with the second eigenvalue near b - 1, so convergence is slow."""
    g = Graph(a + b)
    for lo, hi in ((0, a), (a, a + b)):
        for u in range(lo, hi):
            for v in range(u + 1, hi):
                g.add_edge(u, v)
    g.add_edge(0, a)
    return g


def assert_radius_survives_rescaling(g):
    # The unnormalized iterate's squared norm grows ~radius**2 per multiply,
    # so over this many multiplies it would overflow float64 several times
    # over without rescaling.
    result = power_iteration(g)
    assert result.iterations >= 60
    assert 2 * result.iterations * math.log10(result.spectral_radius) > 400
    expected = np.linalg.eigvalsh(adjacency_matrix(g))[-1]
    assert result.spectral_radius == pytest.approx(expected, rel=1e-9)
    assert np.linalg.norm(result.principal_eigenvector) == pytest.approx(1.0, abs=1e-12)


def test_rescaled_iterate_keeps_radius():
    # 59 nodes: dense A**4 steps (A**8 passes 2**24); radius ~29.002,
    # second eigenvalue 28
    assert_radius_survives_rescaling(joined_cliques(30, 29))


def test_rescaled_sparse_iterate_keeps_radius():
    # 129 nodes, one past the dense cutoff: sparse multiplies
    g = joined_cliques(65, 64)
    assert g.node_count == _DENSE_MAX_NODES + 1
    assert_radius_survives_rescaling(g)


@pytest.mark.parametrize("n", [_DENSE_MAX_NODES, _DENSE_MAX_NODES + 1])
def test_radius_on_either_side_of_dense_cutoff(n):
    g = ba_evolve(BAConfig(3, n, 2), np.random.default_rng(27))
    assert g.node_count == n
    result = power_iteration(g)
    assert result.converged and not result.shifted
    radius = result.spectral_radius
    assert radius == pytest.approx(np.linalg.eigvalsh(adjacency_matrix(g))[-1], rel=1e-9)
    # Hofmeister's bracket: sqrt(<k**2>) <= radius <= k_max
    degrees = g.degree_array()
    assert math.sqrt(np.mean(degrees.astype(float) ** 2)) <= radius + 1e-12
    assert radius <= degrees.max() + 1e-12
    if n <= _DENSE_MAX_NODES:
        assert result.iterations % dense_step(g, 0.0) == 0  # dense steps only


@pytest.mark.parametrize("max_iterations", range(1, 18))
def test_dense_steps_never_overshoot_budget(max_iterations):
    # The solve needs more than 17 multiplies here, so every budget fails.
    # Walk counts stay below 6**8 < 2**24, so the solve steps with M8 from a
    # budget of 16 and single sparse multiplies below that, and stops when
    # another step would pass the budget.
    config = PowerIterationConfig(max_iterations=max_iterations)
    with pytest.raises(NotConvergedError) as exc:
        power_iteration(nearly_bipartite(), config)
    partial = exc.value.result
    step = 8 if max_iterations >= 16 else 1
    assert partial.iterations <= max_iterations
    assert partial.iterations == max_iterations - max_iterations % step
    assert np.linalg.norm(partial.principal_eigenvector) == pytest.approx(1.0, abs=1e-12)


# The first four IDs read name-budget-multiplies as counted when dense steps
# began at a budget of 4; they are kept so that the test IDs stay stable.
@pytest.mark.parametrize(
    "name, budget, iterations, converged",
    [
        pytest.param("K10", 12, 2, True, id="K10-12-8"),
        pytest.param("K10", 15, 2, True, id="K10-15-8"),
        pytest.param("dense-128", 11, 6, True, id="dense-128-11-8"),
        pytest.param("sparse-129", 11, 11, False, id="sparse-129-11-11"),
        pytest.param("K10", 17, 16, True, id="K10-17-16"),
        pytest.param("dense-128", 17, 12, True, id="dense-128-17-12"),
        pytest.param("nearly-bipartite", 19, 16, False, id="nearly-bipartite-19-16"),
    ],
)
def test_a_solve_never_switches_kernels(name, budget, iterations, converged):
    # Below a budget of 16 a solve takes single sparse multiplies: K10 from
    # all-ones converges in 2 and the dense ER graph on 128 nodes in 6. From
    # 16, K10 and the nearly bipartite graph step with M8 and the ER graph
    # with M4, and none takes a smaller step to spend what is left of its
    # budget. Above 128 nodes single sparse multiplies count up to the budget.
    g = {
        "K10": lambda: complete_graph(10),
        "dense-128": lambda: erdos_renyi(128, 0.9, np.random.default_rng(1)),
        "sparse-129": lambda: joined_cliques(65, 64),
        "nearly-bipartite": nearly_bipartite,
    }[name]()
    config = PowerIterationConfig(max_iterations=budget)
    if converged:
        result = power_iteration(g, config)
        assert result.converged and not result.shifted
    else:
        with pytest.raises(NotConvergedError) as exc:
            power_iteration(g, config)
        result = exc.value.result
    assert result.iterations == iterations


def shifted_arcs(g, shift):
    """The arcs of A + shift*I for shift 0 or 1: those of ``g``, then one
    loop arc (i, i) per node when shift is 1, so that each node adds its own
    entry after its neighbours' sum."""
    src, dst = g.arcs()
    if not shift:
        return src, dst
    loops = np.arange(g.node_count)
    return np.concatenate((src, loops)), np.concatenate((dst, loops))


def dense_step(g, shift):
    """Multiplies per dense step of a solve on ``g`` with a budget of at
    least 16: 8 when (A + shift*I)**8 is exact in float32, else 4."""
    return _dense_powers(*shifted_arcs(g, shift), g.node_count)[0]


def integer_power(g, shift, p):
    a = adjacency_matrix(g).astype(np.int64) + int(shift) * np.eye(g.node_count, dtype=np.int64)
    return np.linalg.matrix_power(a, p)


@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_dense_fourth_power_is_exact_at_the_cutoff(shift):
    # The complete graph has the largest walk counts: (A + I)**4 = n**3 J.
    # Its eighth power reaches 2**24, so only the fourth is kept.
    n = _DENSE_MAX_NODES
    g = complete_graph(n)
    src, dst = shifted_arcs(g, shift)
    power, m4 = _dense_powers(src, dst, n)
    assert power == 4
    assert np.array_equal(m4, integer_power(g, shift, 4))


# Complete graphs on either side of the float32 limit for M8: K10 has A**8
# entries up to (9**8 + 9) / 10 = 4,304,673 and (A + I)**8 = 10**7 J, below
# 2**24 = 16,777,216; K12 has A**8 entries (11**8 - 1) / 12 = 17,863,240
# off the diagonal (one more on it) and (A + I)**8 = 12**7 J, both past it.
EIGHTH_POWER_MAX = {
    (10, 0.0): 4_304_673,
    (10, 1.0): 10**7,
    (12, 0.0): 17_863_241,
    (12, 1.0): 12**7,
}


@pytest.mark.parametrize("n, shift", sorted(EIGHTH_POWER_MAX))
def test_dense_eighth_power_only_when_exact(n, shift):
    g = complete_graph(n)
    src, dst = shifted_arcs(g, shift)
    power, m = _dense_powers(src, dst, n)
    expected = integer_power(g, shift, 8)
    assert expected.max() == EIGHTH_POWER_MAX[n, shift]
    assert power == (8 if expected.max() < 2**24 else 4)
    assert np.array_equal(m, integer_power(g, shift, power))
    # From a non-constant start a budget of 16 holds two M8 steps or four M4
    # steps, so even a solve that fails compares two estimates.
    x = np.random.default_rng(34).random(n) + 0.5
    result = _iterate(src, dst, x, PowerIterationConfig(max_iterations=16))
    assert result.converged or result.iterations == 16
    assert result.iterations % power == 0 and math.isfinite(result.residual)
    result = _iterate(src, dst, x, PowerIterationConfig())
    assert result.converged and result.iterations % power == 0
    expected_radius = np.linalg.eigvalsh(adjacency_matrix(g))[-1]
    assert result.spectral_radius - shift == pytest.approx(expected_radius, rel=1e-9)


def _eighth_power_cases():
    rng = np.random.default_rng(35)
    cases = [erdos_renyi(n, p, rng) for n in (40, 100, 128) for p in (0.03, 0.06, 0.1, 0.2)]
    for n, links in ((60, 2), (100, 3), (100, 5), (128, 5)):
        cases.append(ba_evolve(BAConfig(3, n, links), rng))
    for n in (20, 64, 128):
        hub = star_graph(n)  # a star with a ring through its leaves
        for v in range(1, n):
            hub.add_edge(v, v % (n - 1) + 1)
        cases += [star_graph(n), hub]
    return cases


@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_dense_eighth_power_decision_matches_integer_rule(shift):
    # M8 is kept exactly when the int64 eighth power stays below 2**24, a
    # maximum that lies on its diagonal (a Gram matrix). The cases reject M8
    # both where M4's diagonal alone rules it out (M8[i, i] is at least
    # M4[i, i]**2) and where only the full eighth power does.
    outcomes = {"kept": 0, "ruled out by the diagonal": 0, "ruled out by M8": 0}
    for g in _eighth_power_cases():
        power, m = _dense_powers(*shifted_arcs(g, shift), g.node_count)
        expected = integer_power(g, shift, 8)
        assert expected.max() == expected.diagonal().max()
        if expected.max() < 2**24:
            assert power == 8 and np.array_equal(m, expected)
            outcomes["kept"] += 1
        else:
            assert power == 4
            early = integer_power(g, shift, 4).diagonal().max() >= 2**12
            outcomes["ruled out by the diagonal" if early else "ruled out by M8"] += 1
    assert min(outcomes.values()) >= 1, outcomes


def test_shifted_dense_path_converges():
    g = nearly_bipartite()
    src, dst = shifted_arcs(g, 1.0)
    result = _iterate(src, dst, np.ones(g.node_count), PowerIterationConfig())
    assert result.converged and not result.shifted
    assert result.iterations % dense_step(g, 1.0) == 0
    expected = np.linalg.eigvalsh(adjacency_matrix(g))[-1]
    assert result.spectral_radius - 1.0 == pytest.approx(expected, rel=1e-9)
    assert np.linalg.norm(result.principal_eigenvector) == pytest.approx(1.0, abs=1e-12)


def test_new_nodes_start_from_the_eigen_equation():
    # A triangle with a pendant path: connected and not regular.
    g = Graph(5)
    for u, v in ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)):
        g.add_edge(u, v)
    solved = power_iteration(g)
    vec, radius = solved.principal_eigenvector, solved.spectral_radius
    assert g.warm[1] == radius
    a = g.add_node()
    g.add_edge(a, 0)
    g.add_edge(a, 3)
    b = g.add_node()
    g.add_edge(b, a)  # a was not in the stored iterate, so it adds nothing
    g.add_edge(b, 4)
    x = _start_vector(g, connected=True)
    assert np.array_equal(x[:5], vec)
    assert x[a] == pytest.approx((vec[0] + vec[3]) / radius, rel=1e-15)
    assert x[b] == pytest.approx(vec[4] / radius, rel=1e-15)
    expected = np.linalg.eigvalsh(adjacency_matrix(g))[-1]
    assert power_iteration(g).spectral_radius == pytest.approx(expected, abs=1e-8)
    h = fresh_copy(g)
    assert h.warm is None
    assert np.array_equal(_start_vector(h, connected=True), np.ones(7))


def test_padding_depends_only_on_the_graph():
    # 3, 11 and 19 fall in one bucket of a small set, which would hand them
    # back in insertion order; 0.1 + 0.2 + 0.3 rounds differently in either
    # order. Equal graphs must pad with the same bits: the ascending sum.
    starts = []
    graphs = []
    for order in ((3, 11, 19), (19, 11, 3)):
        g = Graph(20)
        warm = np.zeros(20)
        warm[[3, 11, 19]] = (0.1, 0.2, 0.3)
        g.warm = (warm, 1.0)
        v = g.add_node()
        for u in order:
            g.add_edge(v, u)
        graphs.append(g)
        starts.append(_start_vector(g, connected=True))
    assert graphs[0] == graphs[1]
    assert starts[0].tobytes() == starts[1].tobytes()
    assert starts[0][20] == 0.1 + 0.2 + 0.3


@pytest.mark.parametrize(
    "n, moved, underflow",
    [(4, ((2, 3),), False), (200, ((150, 151), (151, 152)), False), (6, ((4, 5),), True)],
    ids=["dense", "sparse", "underflow"],
)
def test_warm_start_with_no_weight_on_any_edge_restarts_cold(n, moved, underflow, iterate_calls):
    # The solve on edge 0-1 stores an iterate that is zero on every other
    # node. Once the only edges join such nodes the graph is still connected
    # (isolated nodes do not count), but the first multiply would annihilate
    # the warm start, so the solve must start cold, in its one attempt.
    g = Graph(n)
    g.add_edge(0, 1)
    power_iteration(g)
    g.remove_edge(0, 1)
    for u, v in moved:
        g.add_edge(u, v)
    if underflow:
        # Weight on both endpoints of the one edge, but too small to square:
        # the first product's squared norm would still be zero.
        x = np.zeros(n)
        x[[4, 5]] = 1e-170
        g.warm = (x, 1.0)
    assert g.connected()
    iterate_calls.clear()
    warm = power_iteration(g)
    cold = power_iteration(fresh_copy(g))
    assert len(iterate_calls) == 2
    assert warm.converged
    assert warm.spectral_radius == pytest.approx(math.sqrt(len(moved)), abs=1e-9)
    assert (warm.spectral_radius, warm.iterations) == (cold.spectral_radius, cold.iterations)


# (graph, start, max_iterations, shift) cases for the bit-identity guard:
# dense and sparse graphs, warm (non-constant) starts, A + I (shift 1:
# _iterate gets loop arcs, the oracle the shift) and rescaling on both
# kernels (M4 steps on rescaled-dense, whose M8 is not exact). The
# handover-* cases, named before a solve kept one kernel throughout, take
# budgets of 4 to 17: single sparse multiplies below 16 and dense steps from
# 16, where the solve stops once another step would pass the budget.
def _iterate_cases():
    rng = np.random.default_rng(31)
    ws = ws_evolve(WSConfig(50, 0.5), np.random.default_rng(32))
    ba = ba_evolve(BAConfig(3, 300, 2), np.random.default_rng(33))
    bip = nearly_bipartite()
    cases = {
        "dense-cold": (ws, np.ones(100), 100_000, 0.0),
        "dense-warm": (ws, rng.random(100) + 0.5, 100_000, 0.0),
        "sparse-cold": (ba, np.ones(300), 100_000, 0.0),
        "sparse-warm": (ba, rng.random(300) + 0.5, 100_000, 0.0),
        "bipartite-plain": (bip, np.ones(10), 100_000, 0.0),
        "bipartite-shifted": (bip, np.ones(10), 100_000, 1.0),
        "sparse-shifted": (ba, np.ones(300), 100_000, 1.0),
        "rescaled-dense": (joined_cliques(30, 29), np.ones(59), 100_000, 0.0),
        "rescaled-sparse": (joined_cliques(65, 64), np.ones(129), 100_000, 0.0),
    }
    for budget in range(4, 18):
        cases[f"handover-{budget}"] = (ws, np.ones(100), budget, 0.0)
        cases[f"handover-shifted-{budget}"] = (bip, np.ones(10), budget, 1.0)
    return cases


ITERATE_CASES = _iterate_cases()


@pytest.mark.parametrize("name", sorted(ITERATE_CASES))
def test_iterate_is_bit_identical_to_one_loop_reference(name):
    g, x, budget, shift = ITERATE_CASES[name]
    config = PowerIterationConfig(max_iterations=budget)
    result = _iterate(*shifted_arcs(g, shift), x.copy(), config)
    # The oracle applies the shift itself, to A's arcs: equal bits show that
    # the loop arcs give A + shift*I in the same operation order.
    src, dst = g.arcs()
    ref_radius, ref_vec, *ref_rest = reference_iterate(
        src, dst, x.copy(), config.tolerance, budget, shift
    )
    assert result.spectral_radius == ref_radius
    assert np.array_equal(result.principal_eigenvector, ref_vec)
    assert [result.iterations, result.converged, result.residual] == ref_rest
    assert not result.shifted
