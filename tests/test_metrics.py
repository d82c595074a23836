import pytest

from netspectra import (
    AveragedSummary,
    EvolutionRecord,
    SweepRow,
    WSConfig,
    pearson,
    snapshot,
)
from netspectra.metrics import average_runs, run_correlations, summarize_final
from netspectra.ws import ws_initialize

from helpers import star_graph


def make_series(rows):
    """rows: (step, node_count, edge_count, lambda_ratio, cv) tuples."""
    return [EvolutionRecord(*row) for row in rows]


def test_timeseries_accessors():
    # the records are the CSV rows: their fields are the headers, in order
    assert ",".join(EvolutionRecord._fields) == "step,node_count,edge_count,lambda_ratio,cv"
    assert ",".join(SweepRow._fields) == "param,mean_lambda_ratio,mean_cv,mean_correlation,runs"
    ts = make_series([(0, 3, 2, 1.0, 0.1), (1, 4, 4, 1.2, 0.3)])
    assert ts == [(0, 3, 2, 1.0, 0.1), (1, 4, 4, 1.2, 0.3)]
    rec = ts[1]
    assert (rec.step, rec.node_count, rec.edge_count, rec.lambda_ratio, rec.cv) == rec


def test_timeseries_final_of_empty():
    # a run with no records has no final record to summarize
    with pytest.raises(IndexError):
        summarize_final([[]])


def test_snapshot_star():
    rec = snapshot(star_graph(5), step=7)
    assert rec.step == 7
    assert rec.node_count == 5
    assert rec.edge_count == 4
    assert rec.lambda_ratio == pytest.approx(1.25)
    assert type(rec.lambda_ratio) is float  # not a numpy scalar from the dense kernel
    assert rec.cv == pytest.approx(0.75)


def test_pearson_known_value():
    # hand computation: centered products sum to 4, each sum of squares is 5
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_pearson_perfect_and_inverse():
    xs = [1.0, 2.0, 5.0, 9.0]
    assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_pearson_length_checks():
    with pytest.raises(ValueError, match="series lengths differ"):
        pearson([1, 2], [1, 2, 3])
    assert pearson([1], [1]) is None
    assert pearson([], []) is None


def test_pearson_constant_series():
    assert pearson([1, 2, 3], [5, 5, 5]) is None
    assert pearson([5, 5, 5], [1, 2, 3]) is None


def test_run_correlations_marks_undefined():
    varying = make_series([(0, 3, 2, 1.0, 0.1), (1, 4, 4, 1.2, 0.3)])
    flat = make_series([(0, 3, 2, 1.0, 0.1), (1, 4, 4, 1.0, 0.3)])
    short = make_series([(0, 3, 2, 1.0, 0.1)])
    assert run_correlations([varying, flat, short]) == [pytest.approx(1.0), None, None]


def test_average_runs_means():
    a = make_series([(0, 3, 2, 1.0, 0.5), (1, 4, 4, 2.0, 1.5)])
    b = make_series([(0, 3, 3, 3.0, 1.5), (1, 4, 5, 4.0, 2.5)])
    s = average_runs([a, b])
    assert s.runs == 2
    assert s.per_step == [(0, 3.0, 2.5, 2.0, 1.0), (1, 4.0, 4.5, 3.0, 2.0)]
    assert s.mean_lambda_ratio == 3.0
    assert s.mean_cv == 2.0
    assert s.mean_correlation == pytest.approx(1.0)


def test_average_runs_rejects_mismatched_grids():
    a = make_series([(0, 3, 2, 1.0, 0.5), (1, 4, 4, 2.0, 1.5)])
    b = make_series([(0, 3, 2, 1.0, 0.5), (2, 4, 4, 2.0, 1.5)])
    with pytest.raises(ValueError, match="run 1 steps differ from run 0"):
        average_runs([a, b])


def test_average_runs_needs_input():
    with pytest.raises(ValueError):
        average_runs([])


def test_mean_correlation_skips_undefined_runs():
    defined = make_series([(0, 3, 2, 1.0, 0.5), (1, 4, 4, 2.0, 1.5)])
    undefined = make_series([(0, 3, 2, 1.0, 0.5), (1, 4, 4, 1.0, 1.5)])
    s = average_runs([defined, undefined])
    assert s.mean_correlation == pytest.approx(1.0)


def test_mean_correlation_none_when_no_run_defines_one():
    flat = make_series([(0, 6, 12, 1.0, 0.0), (1, 6, 12, 1.0, 0.1)])
    s = average_runs([flat, flat])
    assert s.mean_correlation is None


def test_summarize_final_handles_unequal_lengths():
    a = make_series([(0, 6, 12, 1.0, 0.0), (1, 6, 12, 1.1, 0.2), (2, 6, 12, 1.2, 0.4)])
    b = make_series([(0, 6, 12, 1.0, 0.0), (1, 6, 12, 1.6, 0.6)])
    s = summarize_final([a, b])
    assert s.runs == 2
    assert s.mean_lambda_ratio == pytest.approx(1.4)
    assert s.mean_cv == pytest.approx(0.5)
    assert s.mean_correlation == pytest.approx(1.0)
    assert s.per_step is None


def test_summarize_final_needs_input():
    with pytest.raises(ValueError):
        summarize_final([])


def test_summary_is_frozen():
    s = AveragedSummary(runs=1, mean_lambda_ratio=1.0, mean_cv=0.0, mean_correlation=None)
    with pytest.raises(AttributeError):
        s.runs = 2


def test_pearson_symmetry_and_affine_invariance():
    xs = [0.3, 1.9, 2.2, 4.1, 5.0]
    ys = [2.0, 1.1, 3.7, 3.3, 6.2]
    assert pearson(xs, ys) == pytest.approx(pearson(ys, xs), abs=1e-12)
    rescaled = [3.5 * y + 2.0 for y in ys]
    assert pearson(xs, rescaled) == pytest.approx(pearson(xs, ys), abs=1e-9)


def test_snapshot_fresh_lattice_is_regular():
    for n in (3, 5, 8):
        rec = snapshot(ws_initialize(WSConfig(n, 0.0)), step=0)
        assert rec.lambda_ratio == 1.0
        assert rec.cv == 0.0
