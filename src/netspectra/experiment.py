"""Seeded multi-run experiments over the growth and rewiring models.

Both models evolve through one protocol, ``evolve(config, rng, observer)``,
which reports the starting graph and every later step to the observer; one
runner turns a condition into one ``Series`` of snapshots per run.

Reproducibility scheme: one master seed per experiment. Every run gets its
own generator seeded from the master through a spawn key, so runs are
independent streams, insensitive to execution order, and any single run can
be reproduced in isolation. The generator is numpy's default PCG64.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ba import BAConfig, ba_evolve
from .graph import Graph
from .metrics import AveragedSummary, Series, average_runs, snapshot, summarize_final
from .spectral import PowerIterationConfig
from .ws import WSConfig, ws_evolve

RNG_NAME = "numpy-PCG64"


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable 64-bit child seed for the given master seed and index path."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _run_series(
    evolve: Callable[..., Graph],
    config: BAConfig | WSConfig,
    runs: int,
    master_seed: int,
    power: PowerIterationConfig | None,
) -> list[Series]:
    """Evolve ``runs`` graphs, run i on seed ``derive_seed(master_seed, i)``,
    snapshotting every step the model reports."""
    out: list[Series] = []
    for i in range(runs):
        series = Series()
        rng = np.random.default_rng(derive_seed(master_seed, i))
        evolve(config, rng, lambda step, g: series.append(snapshot(g, step, power)))
        out.append(series)
    return out


def run_ba_condition(
    config: BAConfig,
    runs: int,
    master_seed: int,
    power: PowerIterationConfig | None = None,
) -> tuple[AveragedSummary, list[Series]]:
    """One growth condition, averaged per step across runs.

    Growth runs share the step grid by construction, so per-step means are
    always available here.
    """
    series = _run_series(ba_evolve, config, runs, master_seed, power)
    return average_runs(series), series


def run_ws_condition(
    config: WSConfig,
    runs: int,
    master_seed: int,
    power: PowerIterationConfig | None = None,
) -> tuple[AveragedSummary, list[Series]]:
    """One rewiring condition. Runs complete different numbers of rewires, so
    only final-state means are reported."""
    series = _run_series(ws_evolve, config, runs, master_seed, power)
    return summarize_final(series), series


@dataclass(frozen=True)
class SweepRow:
    """Cross-run summary of one condition in a parameter sweep."""

    param: float
    mean_lambda_ratio: float
    mean_cv: float
    mean_correlation: float | None
    runs: int


def _condition(base: BAConfig | WSConfig, value: float) -> BAConfig | WSConfig:
    if isinstance(base, BAConfig):
        if not float(value).is_integer():
            raise ValueError(f"links-per-node sweep values must be integers, got {value}")
        return dataclasses.replace(base, links_per_node=int(value))
    return dataclasses.replace(base, rewiring_probability=float(value))


def run_sweep(
    base_config: BAConfig | WSConfig,
    values: tuple[float, ...] | list[float],
    runs: int,
    master_seed: int,
    power: PowerIterationConfig | None = None,
) -> list[SweepRow]:
    """Run one condition per value of the swept parameter: links per node for
    growth, rewiring probability for the lattice.

    Every condition is built, and so validated, before the first one runs.
    Condition i runs on master seed ``derive_seed(master_seed, i)``, so adding
    or removing conditions never perturbs the others.
    """
    if not values:
        raise ValueError("at least one sweep value is required")
    conditions = [_condition(base_config, value) for value in values]
    seeds = [derive_seed(master_seed, i) for i in range(len(values))]
    run = run_ba_condition if isinstance(base_config, BAConfig) else run_ws_condition
    rows: list[SweepRow] = []
    for value, config, seed in zip(values, conditions, seeds):
        summary, _ = run(config, runs, seed, power)
        rows.append(
            SweepRow(
                param=float(value),
                mean_lambda_ratio=summary.mean_lambda_ratio,
                mean_cv=summary.mean_cv,
                mean_correlation=summary.mean_correlation,
                runs=summary.runs,
            )
        )
    return rows
