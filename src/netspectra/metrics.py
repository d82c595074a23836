"""Evolution tracking: per-step records, correlation, multi-run averaging.

Two degree-based quantities are recorded at every step of a growing or
rewiring network: the spectral radius of the adjacency matrix divided by the
mean degree, and the coefficient of variation of the degree sequence. The
claim under study is that the two move together, so the Pearson correlation
between their trajectories is the headline statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

from .graph import Graph, degree_stats
from .spectral import PowerIterationConfig, spectral_radius_ratio


@dataclass(frozen=True)
class EvolutionRecord:
    """State of one network at one step of its evolution."""

    step: int
    node_count: int
    edge_count: int
    lambda_ratio: float
    cv: float


@dataclass
class Series:
    """Columns of evolution records, one entry per step, steps strictly increasing.

    Holds one run's records, or the per-step means of runs that share a step
    grid (whose node and edge counts are then floats).
    """

    step: list[int] = field(default_factory=list)
    node_count: list[float] = field(default_factory=list)
    edge_count: list[float] = field(default_factory=list)
    lambda_ratio: list[float] = field(default_factory=list)
    cv: list[float] = field(default_factory=list)

    def append(self, record: EvolutionRecord) -> None:
        if self.step and record.step <= self.step[-1]:
            raise ValueError(f"step {record.step} does not follow {self.step[-1]}")
        self.step.append(record.step)
        self.node_count.append(record.node_count)
        self.edge_count.append(record.edge_count)
        self.lambda_ratio.append(record.lambda_ratio)
        self.cv.append(record.cv)

    def __len__(self) -> int:
        return len(self.step)

    def rows(self) -> Iterator[tuple]:
        """Records as (step, node_count, edge_count, lambda_ratio, cv) tuples."""
        return zip(self.step, self.node_count, self.edge_count, self.lambda_ratio, self.cv)


def snapshot(g: Graph, step: int, config: PowerIterationConfig | None = None) -> EvolutionRecord:
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


def run_correlations(series: list[Series]) -> list[float | None]:
    """Within-run correlation of lambda_ratio against cv, one entry per run.

    None marks runs where the correlation is undefined (a constant series, or
    fewer than two records).
    """
    return [pearson(run.lambda_ratio, run.cv) for run in series]


@dataclass(frozen=True)
class AveragedSummary:
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
    per_step: Series | None = None


def _mean_correlation(series: list[Series]) -> float | None:
    defined = [c for c in run_correlations(series) if c is not None]
    if not defined:
        return None
    return math.fsum(defined) / len(defined)


def average_runs(series: list[Series]) -> AveragedSummary:
    """Combine runs that share a common step grid into per-step means.

    Raises ValueError if any run's steps differ from the first run's.
    """
    if not series:
        raise ValueError("average_runs needs at least one run")
    grid = series[0].step
    for i, run in enumerate(series[1:], start=1):
        if run.step != grid:
            raise ValueError(f"run {i} steps differ from run 0")
    n_runs = len(series)

    def mean(column: str) -> list[float]:
        columns = (getattr(run, column) for run in series)
        return [math.fsum(values) / n_runs for values in zip(*columns)]

    per_step = Series(
        list(grid), mean("node_count"), mean("edge_count"), mean("lambda_ratio"), mean("cv")
    )
    # the final per-step means are summarize_final's means, to the bit
    return replace(summarize_final(series), per_step=per_step)


def summarize_final(series: list[Series]) -> AveragedSummary:
    """Cross-run means of final records only, for runs on unequal step grids."""
    if not series:
        raise ValueError("summarize_final needs at least one run")
    n_runs = len(series)
    return AveragedSummary(
        runs=n_runs,
        mean_lambda_ratio=math.fsum(run.lambda_ratio[-1] for run in series) / n_runs,
        mean_cv=math.fsum(run.cv[-1] for run in series) / n_runs,
        mean_correlation=_mean_correlation(series),
    )
