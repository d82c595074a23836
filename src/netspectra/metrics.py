"""Evolution tracking: per-step records, correlation, multi-run averaging.

A run is a list of ``EvolutionRecord``s, one per step; the record is also the
time series' CSV row.

Two degree-based quantities are recorded at every step of a growing or
rewiring network: the spectral radius of the adjacency matrix divided by the
mean degree, and the coefficient of variation of the degree sequence. The
claim under study is that the two move together, so the Pearson correlation
between their trajectories is the headline statistic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graph import Graph, degree_stats
from .spectral import PowerIterationConfig, spectral_radius_ratio


class EvolutionRecord(NamedTuple):
    """State of one network at one step of its evolution, and its CSV row.

    A run is a list of records, steps strictly increasing. Per-step means of
    runs that share a step grid are records too, with float node and edge
    counts.
    """

    step: int
    node_count: float
    edge_count: float
    lambda_ratio: float
    cv: float


def snapshot(
    g: Graph, step: int, config: PowerIterationConfig = PowerIterationConfig()
) -> EvolutionRecord:
    """Measure ``g`` as it stands and stamp the record with ``step``."""
    stats = degree_stats(g)
    return EvolutionRecord(
        step=step,
        node_count=g.node_count,
        edge_count=g.edge_count,
        lambda_ratio=spectral_radius_ratio(g, config, stats),
        cv=stats.cv,
    )


def pearson(xs: list[float], ys: list[float]) -> float | None:
    """Product-moment correlation of two equal-length series.

    None when the correlation is undefined: fewer than two points, or a
    series with zero variance. Raises ValueError for unequal lengths. The
    result is clamped to [-1, 1] to absorb rounding.
    """
    if len(xs) != len(ys):
        raise ValueError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        return None
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def run_correlations(runs: list[list[EvolutionRecord]]) -> list[float | None]:
    """Within-run correlation of lambda_ratio against cv, one entry per run.

    None marks runs where the correlation is undefined (a constant series, or
    fewer than two records).
    """
    return [pearson([r.lambda_ratio for r in run], [r.cv for r in run]) for run in runs]


class AveragedSummary(NamedTuple):
    """Cross-run means of an experiment condition.

    ``mean_lambda_ratio`` and ``mean_cv`` average the final record of each
    run. ``mean_correlation`` averages the within-run correlations, ignoring
    runs where the correlation is undefined; it is None when no run defines
    one. ``per_step`` holds the per-step means and is present only when all
    runs share one step grid (growth runs do, rewiring runs generally do not).
    """

    runs: int
    mean_lambda_ratio: float
    mean_cv: float
    mean_correlation: float | None
    per_step: list[EvolutionRecord] | None = None


def average_runs(runs: list[list[EvolutionRecord]]) -> AveragedSummary:
    """Combine runs that share a common step grid into per-step means.

    Raises ValueError if there are no runs or any run's steps differ from the
    first run's.
    """
    # the final per-step means are these means, to the bit
    summary = summarize_final(runs)
    grid = [r.step for r in runs[0]]
    for i, run in enumerate(runs[1:], start=1):
        if [r.step for r in run] != grid:
            raise ValueError(f"run {i} steps differ from run 0")
    per_step = []
    for step, records in zip(grid, zip(*runs)):
        _, *columns = zip(*records)
        per_step.append(EvolutionRecord(step, *(math.fsum(c) / summary.runs for c in columns)))
    return summary._replace(per_step=per_step)


def summarize_final(runs: list[list[EvolutionRecord]]) -> AveragedSummary:
    """Cross-run means of final records only, for runs on unequal step grids."""
    if not runs:
        raise ValueError("at least one run is required")
    n_runs = len(runs)
    defined = [c for c in run_correlations(runs) if c is not None]
    return AveragedSummary(
        runs=n_runs,
        mean_lambda_ratio=math.fsum(run[-1].lambda_ratio for run in runs) / n_runs,
        mean_cv=math.fsum(run[-1].cv for run in runs) / n_runs,
        mean_correlation=math.fsum(defined) / len(defined) if defined else None,
    )
