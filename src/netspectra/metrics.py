"""Evolution tracking: per-step records, correlation, multi-run averaging.

Two degree-based quantities are recorded at every step of a growing or
rewiring network: the spectral radius of the adjacency matrix divided by the
mean degree, and the coefficient of variation of the degree sequence. The
claim under study is that the two move together, so the Pearson correlation
between their trajectories is the headline statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import ConstantSeriesError, LengthMismatchError, StepMismatchError
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


class TimeSeries:
    """Evolution records of a single run, ordered by strictly increasing step."""

    def __init__(self) -> None:
        self._records: list[EvolutionRecord] = []

    def append(self, record: EvolutionRecord) -> None:
        if self._records and record.step <= self._records[-1].step:
            raise StepMismatchError(
                f"step {record.step} does not follow {self._records[-1].step}"
            )
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EvolutionRecord]:
        return iter(self._records)

    def __getitem__(self, i: int) -> EvolutionRecord:
        return self._records[i]

    @property
    def final(self) -> EvolutionRecord:
        if not self._records:
            raise IndexError("empty time series has no final record")
        return self._records[-1]

    def steps(self) -> list[int]:
        return [r.step for r in self._records]

    def node_counts(self) -> list[int]:
        return [r.node_count for r in self._records]

    def edge_counts(self) -> list[int]:
        return [r.edge_count for r in self._records]

    def lambda_ratios(self) -> list[float]:
        return [r.lambda_ratio for r in self._records]

    def cvs(self) -> list[float]:
        return [r.cv for r in self._records]


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


def pearson(xs: list[float], ys: list[float]) -> float:
    """Product-moment correlation of two equal-length series.

    Raises LengthMismatchError for unequal lengths or fewer than two points,
    ConstantSeriesError when either series has zero variance. The result is
    clamped to [-1, 1] to absorb rounding.
    """
    if len(xs) != len(ys):
        raise LengthMismatchError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise LengthMismatchError(f"correlation needs at least 2 points, got {n}")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantSeriesError("correlation undefined for a constant series")
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def run_correlations(series: list[TimeSeries]) -> list[float | None]:
    """Within-run correlation of lambda_ratio against cv, one entry per run.

    None marks runs where the correlation is undefined (a constant series, or
    fewer than two records).
    """
    out: list[float | None] = []
    for ts in series:
        try:
            out.append(pearson(ts.lambda_ratios(), ts.cvs()))
        except (ConstantSeriesError, LengthMismatchError):
            out.append(None)
    return out


@dataclass(frozen=True)
class AveragedSummary:
    """Cross-run means of an experiment condition.

    ``mean_lambda_ratio`` and ``mean_cv`` average the final record of each
    run. ``mean_correlation`` averages the within-run correlations, ignoring
    runs where the correlation is undefined; it is None when no run defines
    one. The per-step tuples are present only when all runs share one step
    grid (growth runs do, rewiring runs generally do not).
    """

    runs: int
    mean_lambda_ratio: float
    mean_cv: float
    mean_correlation: float | None
    steps: tuple[int, ...] | None = None
    mean_node_counts: tuple[float, ...] | None = None
    mean_edge_counts: tuple[float, ...] | None = None
    mean_lambda_ratios: tuple[float, ...] | None = None
    mean_cvs: tuple[float, ...] | None = None


def _mean_correlation(series: list[TimeSeries]) -> float | None:
    defined = [c for c in run_correlations(series) if c is not None]
    if not defined:
        return None
    return math.fsum(defined) / len(defined)


def average_runs(series: list[TimeSeries]) -> AveragedSummary:
    """Combine runs that share a common step grid into per-step means.

    Raises StepMismatchError if any run's steps differ from the first run's.
    """
    if not series:
        raise ValueError("average_runs needs at least one run")
    grid = series[0].steps()
    for i, ts in enumerate(series[1:], start=1):
        if ts.steps() != grid:
            raise StepMismatchError(f"run {i} steps differ from run 0")
    n_runs = len(series)
    mean_nodes = []
    mean_edges = []
    mean_ratio = []
    mean_cv = []
    for idx in range(len(grid)):
        mean_nodes.append(math.fsum(ts[idx].node_count for ts in series) / n_runs)
        mean_edges.append(math.fsum(ts[idx].edge_count for ts in series) / n_runs)
        mean_ratio.append(math.fsum(ts[idx].lambda_ratio for ts in series) / n_runs)
        mean_cv.append(math.fsum(ts[idx].cv for ts in series) / n_runs)
    return AveragedSummary(
        runs=n_runs,
        mean_lambda_ratio=mean_ratio[-1],
        mean_cv=mean_cv[-1],
        mean_correlation=_mean_correlation(series),
        steps=tuple(grid),
        mean_node_counts=tuple(mean_nodes),
        mean_edge_counts=tuple(mean_edges),
        mean_lambda_ratios=tuple(mean_ratio),
        mean_cvs=tuple(mean_cv),
    )


def summarize_final(series: list[TimeSeries]) -> AveragedSummary:
    """Cross-run means of final records only, for runs on unequal step grids."""
    if not series:
        raise ValueError("summarize_final needs at least one run")
    n_runs = len(series)
    return AveragedSummary(
        runs=n_runs,
        mean_lambda_ratio=math.fsum(ts.final.lambda_ratio for ts in series) / n_runs,
        mean_cv=math.fsum(ts.final.cv for ts in series) / n_runs,
        mean_correlation=_mean_correlation(series),
    )
