"""Seeded multi-run experiments over the growth and rewiring models.

Both models evolve through one protocol, ``evolve(config, rng, observer)``,
which reports the starting graph and every later step to the observer as
``observer(step, graph)``; one runner turns a condition into one list of
``EvolutionRecord`` snapshots per run.

Reproducibility scheme: one master seed per experiment. Every run gets its
own generator seeded from the master through a spawn key, so runs are
independent streams, insensitive to execution order, and any single run can
be reproduced in isolation. The generator is numpy's default PCG64. The
runners' ``workers`` argument spreads a condition's runs over that many
processes; records come back in run order, so every result is the same for
any worker count.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, NamedTuple

import numpy as np

from .ba import BAConfig, ba_evolve
from .graph import Graph
from .metrics import AveragedSummary, EvolutionRecord, average_runs, snapshot, summarize_final
from .spectral import PowerIterationConfig
from .ws import WSConfig, ws_evolve

RNG_NAME = "numpy-PCG64"


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable 64-bit child seed for the given master seed and index path."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _run_one(
    evolve: Callable[..., Graph], config: BAConfig | WSConfig, master_seed: int,
    power: PowerIterationConfig | None, i: int,
) -> list[EvolutionRecord]:
    """Run i: evolve on seed ``derive_seed(master_seed, i)``, snapshotting
    every step the model reports."""
    records: list[EvolutionRecord] = []
    rng = np.random.default_rng(derive_seed(master_seed, i))
    evolve(config, rng, lambda step, g: records.append(snapshot(g, step, power)))
    return records


def _run_series(
    evolve: Callable[..., Graph],
    config: BAConfig | WSConfig,
    runs: int,
    master_seed: int,
    power: PowerIterationConfig | None,
    workers: int = 1,
) -> list[list[EvolutionRecord]]:
    """The records of runs 0 .. ``runs`` - 1, in run order.

    With more than one worker (capped at ``runs``) the runs are mapped over a
    pool of forked processes, an explicit ``fork`` on every Python version.
    Results are taken in run order, so a failing run raises the error a
    serial loop would; the pool is then stopped, and no worker outlives the
    call.
    """
    run = functools.partial(_run_one, evolve, config, master_seed, power)
    workers = min(workers, runs)
    if workers <= 1:
        return [run(i) for i in range(runs)]
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return list(pool.imap(run, range(runs)))


def run_ba_condition(
    config: BAConfig,
    runs: int,
    master_seed: int,
    power: PowerIterationConfig | None = None,
    *,
    workers: int = 1,
) -> tuple[AveragedSummary, list[list[EvolutionRecord]]]:
    """One growth condition, averaged per step across runs.

    Growth runs share the step grid by construction, so per-step means are
    always available here.
    """
    series = _run_series(ba_evolve, config, runs, master_seed, power, workers)
    return average_runs(series), series


def run_ws_condition(
    config: WSConfig,
    runs: int,
    master_seed: int,
    power: PowerIterationConfig | None = None,
    *,
    workers: int = 1,
) -> tuple[AveragedSummary, list[list[EvolutionRecord]]]:
    """One rewiring condition. Runs complete different numbers of rewires, so
    only final-state means are reported."""
    series = _run_series(ws_evolve, config, runs, master_seed, power, workers)
    return summarize_final(series), series


class SweepRow(NamedTuple):
    """Cross-run summary of one condition in a parameter sweep, and its CSV row."""

    param: float
    mean_lambda_ratio: float
    mean_cv: float
    mean_correlation: float | None
    runs: int


# The config field a sweep sets to each of its values, per model.
SWEPT = {BAConfig: "links_per_node", WSConfig: "rewiring_probability"}


def _condition(base: BAConfig | WSConfig, value: float) -> BAConfig | WSConfig:
    cast = int if isinstance(base, BAConfig) else float
    if cast is int and not float(value).is_integer():
        raise ValueError(f"links-per-node sweep values must be integers, got {value}")
    return dataclasses.replace(base, **{SWEPT[type(base)]: cast(value)})


def sweep_conditions(
    base_config: BAConfig | WSConfig, values: tuple[float, ...] | list[float]
) -> list[BAConfig | WSConfig]:
    """One config per sweep value: ``base_config`` with its swept field set to
    the value, and so checked. Raises ValueError for an empty sweep or for a
    value the swept field does not take."""
    if not values:
        raise ValueError("at least one sweep value is required")
    return [_condition(base_config, value) for value in values]


def run_sweep(
    base_config: BAConfig | WSConfig,
    values: tuple[float, ...] | list[float],
    runs: int,
    master_seed: int,
    power: PowerIterationConfig | None = None,
    *,
    workers: int = 1,
) -> list[SweepRow]:
    """Run one condition per value of the swept parameter: links per node for
    growth, rewiring probability for the lattice.

    Every condition is built by ``sweep_conditions``, and so validated, before
    the first one runs. Condition i runs on master seed
    ``derive_seed(master_seed, i)``, so adding or removing conditions never
    perturbs the others.
    """
    conditions = sweep_conditions(base_config, values)
    run = run_ba_condition if isinstance(base_config, BAConfig) else run_ws_condition
    rows: list[SweepRow] = []
    for i, (value, config) in enumerate(zip(values, conditions)):
        summary, _ = run(config, runs, derive_seed(master_seed, i), power, workers=workers)
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
