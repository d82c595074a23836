"""End-to-end acceptance checks.

Every test here pins its master seed, states its tolerance inline, and prints
one summary line with the measured values when it passes (visible with
pytest -s or -rP; pytest -v reports the pass/fail verdict per criterion either
way). The heavy multi-run conditions are computed once in module fixtures and
shared between the tests that grade them.

The model conditions run through the library's own runner, run_condition,
and are graded on the summaries it returns. The degree bound
k_avg <= sqrt(<k**2>) <= radius <= k_max has to hold not just on random
graphs but on every graph those runs generate, so the module-scoped
checked_snapshots fixture wraps netspectra.experiment.snapshot, which the
runner looks up at every step, and asserts the bound and the degree sum on
each graph it snapshots. The checks draw no randomness, so the wrapped runs
return exactly what the unwrapped runner does for the same seeds.
"""

import math
import time

import numpy as np
import pytest

from netspectra import (
    BAConfig,
    WSConfig,
    degree_stats,
    power_iteration,
    run_condition,
    snapshot,
    spectral_radius_ratio,
)
from netspectra.metrics import run_correlations
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


@pytest.fixture(scope="module")
def checked_snapshots():
    """Wrap the runner's snapshot with the degree-sum and degree-bound checks;
    yields a one-item list counting the graphs checked."""
    checked = [0]

    def checked_snapshot(g, step, config=None):
        rec = snapshot(g, step, config)
        assert int(g.degree_array().sum()) == 2 * g.edge_count
        assert_degree_bound(g, rec.lambda_ratio * degree_stats(g).k_avg)
        checked[0] += 1
        return rec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("netspectra.experiment.snapshot", checked_snapshot)
        yield checked


def run_checked(checked, run, config, runs, master_seed):
    """``run(config, runs, master_seed)``'s summary and series, and its wall
    time; fails if the run returns a record the wrapped snapshot did not
    check."""
    before = checked[0]
    t0 = time.perf_counter()
    summary, series = run(config, runs, master_seed)
    elapsed = time.perf_counter() - t0
    assert checked[0] - before == sum(len(ts) for ts in series)
    return summary, series, elapsed


@pytest.fixture(scope="module")
def small_growth(checked_snapshots):
    """links_per_node 2, 5, 90 at 100 nodes, 100 runs each, keyed by m."""
    return {m: run_checked(checked_snapshots, run_condition, BAConfig(3, 100, m),
                           100, seed)
            for m, seed in SMALL_GROWTH_SEEDS.items()}


@pytest.fixture(scope="module")
def rewire_sweep(checked_snapshots):
    """Rewiring at N=50 for probabilities 0.5 and 1.0, 100 runs each, keyed
    by probability."""
    return {beta: run_checked(checked_snapshots, run_condition, WSConfig(50, beta), 100, seed)
            for beta, seed in REWIRE_SWEEP_SEEDS.items()}


def wall_times(results):
    """Total wall time of a fixture's conditions, and one "key: time" per
    condition."""
    times = {key: elapsed for key, (_, _, elapsed) in results.items()}
    return sum(times.values()), ", ".join(f"{k}: {t:.1f}s" for k, t in times.items())


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
          f"{elapsed:.1f}s and on every graph the runner snapshots "
          f"(criteria 3, 4, 6, 7, 8)")


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
    ratio2 = small_growth[2][0].mean_lambda_ratio
    cv2 = small_growth[2][0].mean_cv
    ratio5 = small_growth[5][0].mean_lambda_ratio
    ratio90 = small_growth[90][0].mean_lambda_ratio
    cv90 = small_growth[90][0].mean_cv
    assert abs(ratio2 - 1.75) <= 0.10
    assert abs(cv2 - 0.97) <= 0.10
    assert abs(ratio5 - 1.45) <= 0.10
    assert abs(ratio90 - 1.00) <= 0.03
    assert abs(cv90 - 0.02) <= 0.02
    elapsed, times = wall_times(small_growth)
    assert elapsed < 120.0
    print(f"[criterion 3] PASS m=2: {ratio2:.3f}/{cv2:.3f}, m=5: {ratio5:.3f}, "
          f"m=90: {ratio90:.4f}/{cv90:.4f} (m={times})")


def test_04_large_network_growth_means(checked_snapshots):
    summary, _, elapsed = run_checked(checked_snapshots, run_condition,
                                      BAConfig(3, 1000, 2), 20, LARGE_GROWTH_SEED)
    assert abs(summary.mean_lambda_ratio - 2.63) <= 0.20
    assert abs(summary.mean_cv - 1.31) <= 0.15
    assert elapsed < 900.0
    print(f"[criterion 4] PASS n=1000 m=2: ratio {summary.mean_lambda_ratio:.3f}, "
          f"cv {summary.mean_cv:.3f} ({elapsed:.1f}s)")


def test_05_growth_tracks_dispersion(small_growth):
    summary, series, _ = small_growth[2]
    corr = summary.mean_correlation
    assert corr is not None
    assert corr >= 0.95
    defined = [c for c in run_correlations(series) if c is not None]
    assert len(defined) == len(series)
    print(f"[criterion 5] PASS mean within-run correlation {corr:.4f} over "
          f"{len(series)} runs")


def test_06_unrewired_lattice_is_exactly_regular(checked_snapshots):
    config = WSConfig(50, 0.0)
    assert spectral_radius_ratio(ws_initialize(config)) == 1.0
    _, series, _ = run_checked(checked_snapshots, run_condition, config, 20,
                               LATTICE_EXACT_SEED)
    assert len(series) == 20
    for ts in series:
        assert len(ts) == 1
        assert ts[0].lambda_ratio == 1.0
        assert ts[0].cv == 0.0
    print("[criterion 6] PASS 20 runs at probability 0: ratio 1.0 and cv 0.0 exact")


def test_07_rewired_lattice_means(rewire_sweep):
    means = {beta: summary.mean_lambda_ratio
             for beta, (summary, _, _) in rewire_sweep.items()}
    assert abs(means[0.5] - 1.15) <= 0.05
    assert abs(means[1.0] - 1.25) <= 0.05
    elapsed, times = wall_times(rewire_sweep)
    assert elapsed < 120.0
    print(f"[criterion 7] PASS beta=0.5: {means[0.5]:.4f}, beta=1.0: "
          f"{means[1.0]:.4f} (beta={times})")


def test_08_rewiring_tracks_dispersion_every_run(checked_snapshots):
    _, series, _ = run_checked(checked_snapshots, run_condition,
                               WSConfig(50, 0.5), 20, REWIRE_CORR_SEED)
    corrs = run_correlations(series)
    assert all(c is not None for c in corrs)
    assert min(corrs) > 0.9
    mean = sum(corrs) / len(corrs)
    assert mean > 0.95
    print(f"[criterion 8] PASS 20 runs: correlations min {min(corrs):.4f}, "
          f"mean {mean:.4f}")


def test_09_rewiring_conserves_links(rewire_sweep):
    # The lattice is record 0 of a run, and each later record follows one
    # completed rewire.
    for beta, (summary, series, _) in rewire_sweep.items():
        assert summary.runs == len(series) == 100
        for ts in series:
            assert len(ts) > 1, f"a run at probability {beta} rewired nothing"
            assert [rec.step for rec in ts] == list(range(len(ts)))
            assert all(rec.edge_count == 200 for rec in ts)
    total = sum(len(ts) - 1 for _, series, _ in rewire_sweep.values() for ts in series)
    print(f"[criterion 9] PASS 200 links in every record, and degree sum 400 "
          f"checked, at each of {total} rewire events across all 200 sweep runs")


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
