"""End-to-end acceptance checks.

Every test here pins its master seed, states its tolerance inline, and prints
one summary line with the measured values when it passes (visible with
pytest -s; pytest -v reports the pass/fail verdict per criterion either way).
The heavy multi-run conditions are computed once in module fixtures and
shared between the tests that grade them.

The degree bound k_avg <= sqrt(<k**2>) <= radius <= k_max has to hold not
just on random graphs but on every graph the other checks generate. The model conditions are
therefore driven through local variants of the library runners whose
observers assert the bound (and, for rewiring, link conservation) at every
recorded step. The checks draw no randomness, so these variants consume the
generator exactly like run_ba_condition and run_ws_condition and their
summaries are identical for the same seeds.
"""

import math
import time

import numpy as np
import pytest

from netspectra import (
    BAConfig,
    WSConfig,
    ba_evolve,
    degree_stats,
    power_iteration,
    snapshot,
    spectral_radius_ratio,
    ws_rewire,
)
from netspectra.experiment import derive_seed
from netspectra.metrics import average_runs, run_correlations, summarize_final
from netspectra.ws import ws_initialize
from netspectra.cli import main

from helpers import erdos_renyi, trace_oracle_spectral_radius

BOUND_TOL = 1e-6
BOUND_SEED = 8101
ORACLE_SEED = 20260819
SMALL_GROWTH_SEEDS = {2: 42, 5: 43, 90: 44}
LARGE_GROWTH_SEED = 42
REWIRE_SWEEP_SEEDS = {0.5: 42, 1.0: 43}
REWIRE_CORR_SEED = 99
LATTICE_EXACT_SEED = 77


def assert_degree_bound(g, radius):
    stats = degree_stats(g)
    assert stats.k_min <= stats.k_avg + BOUND_TOL
    assert stats.k_avg <= radius + BOUND_TOL
    assert radius <= stats.k_max + BOUND_TOL
    # Hofmeister: radius >= ||A 1|| / ||1|| = sqrt(<k**2>)
    degs = g.degree_array()
    assert math.sqrt(int(degs @ degs) / g.node_count) <= radius + BOUND_TOL


def checked_snapshot(g, step):
    """Snapshot a graph, asserting the degree bound on the measured radius."""
    rec = snapshot(g, step)
    radius = rec.lambda_ratio * degree_stats(g).k_avg
    assert_degree_bound(g, radius)
    return rec


def ba_series_checked(config, runs, master_seed):
    """run_ba_condition's runs with the degree bound asserted at every
    recorded step."""
    series = []
    for i in range(runs):
        rng = np.random.default_rng(derive_seed(master_seed, i))
        ts = []
        ba_evolve(config, rng, lambda step, g: ts.append(checked_snapshot(g, step)))
        series.append(ts)
    return series


def ws_series_checked(config, runs, master_seed):
    """run_ws_condition's runs with conservation and the degree bound asserted
    per event.

    Returns the series plus, for each run, how many rewire events the
    observer checked.
    """
    links = 4 * config.nodes_per_ring
    series = []
    checked_counts = []
    for i in range(runs):
        rng = np.random.default_rng(derive_seed(master_seed, i))
        g = ws_initialize(config)
        ts = [checked_snapshot(g, 0)]
        checked = 0

        def observe(step, graph):
            nonlocal checked
            assert graph.edge_count == links
            assert sum(graph.degrees()) == 2 * links
            ts.append(checked_snapshot(graph, step))
            checked += 1

        events = ws_rewire(g, config, rng, observe)
        assert checked == sum(1 for e in events if e.new_edge is not None)
        series.append(ts)
        checked_counts.append(checked)
    return series, checked_counts


@pytest.fixture(scope="module")
def small_growth():
    """links_per_node 2, 5, 90 at 100 nodes, 100 runs each, with wall time."""
    t0 = time.perf_counter()
    results = {}
    for m, seed in SMALL_GROWTH_SEEDS.items():
        series = ba_series_checked(BAConfig(3, 100, m), 100, seed)
        results[m] = (average_runs(series), series)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rewire_sweep():
    """Rewiring at N=50 for probabilities 0.5 and 1.0, 100 runs each, with
    conservation asserted inside the observer at every event."""
    t0 = time.perf_counter()
    results = {}
    for beta, seed in REWIRE_SWEEP_SEEDS.items():
        series, checked_counts = ws_series_checked(WSConfig(50, beta), 100, seed)
        results[beta] = (summarize_final(series), series, checked_counts)
    return results, time.perf_counter() - t0


def test_01_radius_bounded_by_degree_extremes(small_growth, rewire_sweep):
    rng = np.random.default_rng(BOUND_SEED)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        p = float(rng.uniform(0.02, 0.9))
        g = erdos_renyi(n, p, rng)
        assert_degree_bound(g, power_iteration(g).spectral_radius)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[criterion 1] PASS degree bound held on 1000 random graphs in "
          f"{elapsed:.1f}s and on every model graph snapshotted by the "
          f"checked observers (criteria 3, 4, 6, 7, 8)")


def test_02_power_iteration_matches_moment_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ORACLE_SEED)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 13))
        p = float(rng.uniform(0.5, 0.8))
        g = erdos_renyi(n, p, rng)
        oracle = trace_oracle_spectral_radius(g)
        measured = power_iteration(g).spectral_radius
        assert_degree_bound(g, measured)
        worst = max(worst, abs(measured - oracle))
        assert abs(measured - oracle) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[criterion 2] PASS 100 graphs, worst deviation {worst:.2e} "
          f"({elapsed:.1f}s)")


def test_03_small_network_growth_means(small_growth):
    results, elapsed = small_growth
    ratio2 = results[2][0].mean_lambda_ratio
    cv2 = results[2][0].mean_cv
    ratio5 = results[5][0].mean_lambda_ratio
    ratio90 = results[90][0].mean_lambda_ratio
    cv90 = results[90][0].mean_cv
    assert abs(ratio2 - 1.75) <= 0.10
    assert abs(cv2 - 0.97) <= 0.10
    assert abs(ratio5 - 1.45) <= 0.10
    assert abs(ratio90 - 1.00) <= 0.03
    assert abs(cv90 - 0.02) <= 0.02
    assert elapsed < 120.0
    print(f"[criterion 3] PASS m=2: {ratio2:.3f}/{cv2:.3f}, m=5: {ratio5:.3f}, "
          f"m=90: {ratio90:.4f}/{cv90:.4f} ({elapsed:.1f}s)")


def test_04_large_network_growth_means():
    t0 = time.perf_counter()
    series = ba_series_checked(BAConfig(3, 1000, 2), 20, LARGE_GROWTH_SEED)
    summary = average_runs(series)
    elapsed = time.perf_counter() - t0
    assert abs(summary.mean_lambda_ratio - 2.63) <= 0.20
    assert abs(summary.mean_cv - 1.31) <= 0.15
    assert elapsed < 900.0
    print(f"[criterion 4] PASS n=1000 m=2: ratio {summary.mean_lambda_ratio:.3f}, "
          f"cv {summary.mean_cv:.3f} ({elapsed:.1f}s)")


def test_05_growth_tracks_dispersion(small_growth):
    results, _ = small_growth
    summary, series = results[2]
    corr = summary.mean_correlation
    assert corr is not None
    assert corr >= 0.95
    defined = [c for c in run_correlations(series) if c is not None]
    assert len(defined) == len(series)
    print(f"[criterion 5] PASS mean within-run correlation {corr:.4f} over "
          f"{len(series)} runs")


def test_06_unrewired_lattice_is_exactly_regular():
    config = WSConfig(50, 0.0)
    assert spectral_radius_ratio(ws_initialize(config)) == 1.0
    series, checked_counts = ws_series_checked(config, 20, LATTICE_EXACT_SEED)
    assert checked_counts == [0] * 20
    for ts in series:
        assert len(ts) == 1
        assert ts[0].lambda_ratio == 1.0
        assert ts[0].cv == 0.0
    print("[criterion 6] PASS 20 runs at probability 0: ratio 1.0 and cv 0.0 exact")


def test_07_rewired_lattice_means(rewire_sweep):
    results, elapsed = rewire_sweep
    means = {beta: results[beta][0].mean_lambda_ratio for beta in results}
    assert abs(means[0.5] - 1.15) <= 0.05
    assert abs(means[1.0] - 1.25) <= 0.05
    assert elapsed < 120.0
    print(f"[criterion 7] PASS beta=0.5: {means[0.5]:.4f}, beta=1.0: "
          f"{means[1.0]:.4f} ({elapsed:.1f}s)")


def test_08_rewiring_tracks_dispersion_every_run():
    series, _ = ws_series_checked(WSConfig(50, 0.5), 20, REWIRE_CORR_SEED)
    corrs = run_correlations(series)
    assert all(c is not None for c in corrs)
    assert min(corrs) > 0.9
    mean = sum(corrs) / len(corrs)
    assert mean > 0.95
    print(f"[criterion 8] PASS 20 runs: correlations min {min(corrs):.4f}, "
          f"mean {mean:.4f}")


def test_09_rewiring_conserves_links(rewire_sweep):
    results, _ = rewire_sweep
    for beta, (summary, series, checked_counts) in results.items():
        assert summary.runs == 100
        assert len(checked_counts) == 100
        for count, ts in zip(checked_counts, series):
            assert count > 0, f"a run at probability {beta} rewired nothing"
            assert count == len(ts) - 1
    total = sum(sum(counts) for _, _, counts in results.values())
    print(f"[criterion 9] PASS observer asserted 200 links and degree sum 400 "
          f"at each of {total} rewire events across all 200 sweep runs")


def test_10_cli_outputs_are_reproducible(tmp_path):
    commands = {
        "ba": (["ba", "--total", "60", "--links", "2", "--runs", "3",
                "--seed", "11"],
               ("ba_timeseries.csv", "ba_summary.json")),
        "ws": (["ws", "--ring", "20", "--beta", "0.5", "--runs", "3",
                "--seed", "12"],
               ("ws_timeseries.csv", "ws_summary.json")),
    }
    for label, (args, files) in commands.items():
        dir_a = tmp_path / f"{label}_a"
        dir_b = tmp_path / f"{label}_b"
        assert main(args + ["--out", str(dir_a)]) == 0
        assert main(args + ["--out", str(dir_b)]) == 0
        for name in files:
            a = (dir_a / name).read_bytes()
            b = (dir_b / name).read_bytes()
            assert a == b, f"{label}: {name} differs between identical runs"
            assert a, f"{label}: {name} is empty"
    print("[criterion 10] PASS repeated invocations wrote byte-identical outputs")
