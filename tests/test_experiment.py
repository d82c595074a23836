import numpy as np
import pytest

import netspectra.experiment
from netspectra import (
    BAConfig,
    WSConfig,
    ba_evolve,
    derive_seed,
    run_ba_condition,
    run_sweep,
    run_ws_condition,
    snapshot,
)


def test_derive_seed_is_stable():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(42, 0) != derive_seed(43, 0)
    assert 0 <= derive_seed(1, 2, 3) < 2**64


def test_run_seeds():
    # run i of a condition is the model evolved on derive_seed(master, i)
    cfg = BAConfig(initial_nodes=3, total_nodes=20, links_per_node=2)
    _, series = run_ba_condition(cfg, 4, master_seed=7)
    for i, run in enumerate(series):
        alone = []
        rng = np.random.default_rng(derive_seed(7, i))
        ba_evolve(cfg, rng, lambda step, g: alone.append(snapshot(g, step)))
        assert run == alone
    assert len({tuple(r.lambda_ratio for r in run) for run in series}) == 4


def test_experiment_config_validation():
    ba = BAConfig(3, 10, 2)
    with pytest.raises(ValueError):
        run_sweep(ba, (), runs=1, master_seed=0)
    with pytest.raises(ValueError):
        run_sweep(ba, (2,), runs=0, master_seed=0)
    with pytest.raises(ValueError):
        run_sweep(ba, (2,), runs=1, master_seed=-1)
    with pytest.raises(ValueError):
        run_sweep(WSConfig(5, 0.5), (0.5, -0.1), runs=1, master_seed=0)


def test_ba_series_grid_and_reproducibility():
    cfg = BAConfig(initial_nodes=3, total_nodes=20, links_per_node=2)
    _, a = run_ba_condition(cfg, 3, master_seed=5)
    _, b = run_ba_condition(cfg, 3, master_seed=5)
    _, c = run_ba_condition(cfg, 3, master_seed=6)
    assert len(a) == 3
    for run in a:
        assert [r.step for r in run] == list(range(2, 20))
        assert [r.node_count for r in run] == list(range(3, 21))
    assert a == b
    assert a != c


def test_runs_differ_from_each_other():
    cfg = BAConfig(initial_nodes=3, total_nodes=20, links_per_node=2)
    _, series = run_ba_condition(cfg, 2, master_seed=5)
    assert series[0] != series[1]


def test_ws_series_counts_completed_rewires():
    cfg = WSConfig(nodes_per_ring=10, rewiring_probability=0.5)
    _, series = run_ws_condition(cfg, 3, master_seed=9)
    for run in series:
        assert [r.step for r in run] == list(range(len(run)))
        assert run[0].lambda_ratio == 1.0
        assert run[0].cv == 0.0
        assert [r.edge_count for r in run] == [40] * len(run)


def test_ws_series_reproducible():
    cfg = WSConfig(nodes_per_ring=8, rewiring_probability=0.7)
    _, a = run_ws_condition(cfg, 2, master_seed=3)
    _, b = run_ws_condition(cfg, 2, master_seed=3)
    assert a == b


def test_ba_condition_summary_shape():
    cfg = BAConfig(initial_nodes=3, total_nodes=25, links_per_node=2)
    summary, series = run_ba_condition(cfg, 4, master_seed=11)
    assert summary.runs == 4
    assert len(series) == 4
    per_step = summary.per_step
    assert [r.step for r in per_step] == list(range(2, 25))
    assert per_step[-1].lambda_ratio == summary.mean_lambda_ratio
    assert per_step[-1].cv == summary.mean_cv
    assert [r.node_count for r in per_step] == [float(n) for n in range(3, 26)]


def test_ws_condition_summary_shape():
    cfg = WSConfig(nodes_per_ring=8, rewiring_probability=0.5)
    summary, series = run_ws_condition(cfg, 3, master_seed=2)
    assert summary.runs == 3
    assert len(series) == 3
    assert summary.per_step is None
    assert summary.mean_lambda_ratio > 1.0


def test_ba_table_rows():
    rows = run_sweep(BAConfig(3, 30, 2), (2, 3), runs=2, master_seed=21)
    assert [r.param for r in rows] == [2.0, 3.0]
    assert all(r.runs == 2 for r in rows)
    assert all(r.mean_lambda_ratio > 1.0 for r in rows)
    # more links per node means a more even degree sequence
    assert rows[0].mean_cv > rows[1].mean_cv


def test_ba_table_conditions_keyed_by_position():
    both = run_sweep(BAConfig(3, 30, 2), (2, 3), runs=2, master_seed=21)
    alone = run_sweep(BAConfig(3, 30, 2), (2,), runs=2, master_seed=21)
    assert both[0] == alone[0]


def test_ba_table_rejects_fractional_links():
    with pytest.raises(ValueError):
        run_sweep(BAConfig(3, 10, 2), (2.5,), runs=1, master_seed=0)


def test_ba_table_requires_sweep():
    with pytest.raises(ValueError):
        run_sweep(BAConfig(3, 10, 2), (), runs=1, master_seed=0)


def test_ws_sweep_rows():
    rows = run_sweep(WSConfig(10, 0.0), (0.0, 0.6), runs=2, master_seed=33)
    assert [r.param for r in rows] == [0.0, 0.6]
    assert rows[0].mean_lambda_ratio == 1.0
    assert rows[0].mean_cv == 0.0
    assert rows[0].mean_correlation is None
    assert rows[1].mean_lambda_ratio > 1.0
    assert rows[1].mean_correlation is not None


def test_ws_sweep_validates_probability():
    with pytest.raises(ValueError):
        run_sweep(WSConfig(10, 0.0), (1.5,), runs=1, master_seed=0)


@pytest.mark.parametrize(
    "base, values, condition",
    [
        (BAConfig(3, 400, 2), (2, 3, 2.5), "run_ba_condition"),
        (BAConfig(3, 400, 2), (2, 3, 0), "run_ba_condition"),
        (WSConfig(50, 0.0), (0.5, 1.0, 1.5), "run_ws_condition"),
    ],
)
def test_sweep_validates_every_value_before_running(monkeypatch, base, values, condition):
    calls = []
    monkeypatch.setattr(netspectra.experiment, condition, lambda *args: calls.append(args))
    with pytest.raises(ValueError):
        run_sweep(base, values, runs=3, master_seed=0)
    assert calls == []
