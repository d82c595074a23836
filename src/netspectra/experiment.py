"""Seeded multi-run experiments over the growth and rewiring models.

Both models evolve through one protocol, ``evolve(config, rng, observer)``,
which reports the starting graph and every later step to the observer as
``observer(step, graph)``; one runner turns a condition into one list of
``EvolutionRecord`` snapshots per run.

Reproducibility scheme: one master seed per experiment. Every run gets its
own generator seeded from the master through a spawn key, so runs are
independent streams, insensitive to execution order, and any single run can
be reproduced in isolation. The generator is numpy's default PCG64. The
runners' ``workers`` argument splits a condition's runs into that many fixed
round-robin shares, each run by one forked child; records come back in run
order, so every result is the same for any worker count.
"""

from __future__ import annotations

import os
import pickle
import signal
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
    power: PowerIterationConfig, i: int,
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
    power: PowerIterationConfig,
    workers: int = 1,
) -> list[list[EvolutionRecord]]:
    """The records of runs 0 .. ``runs`` - 1, in run order.

    With more than one worker (capped at ``runs``), child ``w`` of that many
    forked children runs the fixed share ``range(w, runs, workers)`` in order
    and stops at its first failure; the caller runs none. The child writes
    ``{run index: records or exception}`` to its own pipe and leaves by
    ``os._exit(0)`` from a ``finally``, so it never returns into the caller's
    stack or flushes its stdio. The caller reads every pipe to the end, then
    reaps the children. Every run below the first failing one has then run,
    so the lowest-numbered exception sent is the one a serial loop would
    raise, and it is raised. A child that exits with a nonzero status (killed,
    say) or sends nothing raises RuntimeError naming every child's exit
    status. No child outlives the call: if the pipes were not all read, every
    child is killed before it is reaped. A child keeps no read end of its own
    pipe, so one whose caller was killed fails its write and exits.
    """
    if (workers := min(workers, runs)) <= 1:
        return [_run_one(evolve, config, master_seed, power, i) for i in range(runs)]
    pipes = {}  # child pid -> the read end of its pipe
    sent: list[bytes] | None = None
    try:
        for w in range(workers):
            r, wr = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(r)  # a write then fails, not blocks, if the caller dies
                    results: dict[int, list[EvolutionRecord] | Exception] = {}
                    try:
                        for i in range(w, runs, workers):
                            results[i] = _run_one(evolve, config, master_seed, power, i)
                    except Exception as exc:
                        results[i] = exc
                    with open(wr, "wb") as pipe:
                        pipe.write(pickle.dumps(results))
                finally:
                    os._exit(0)
            os.close(wr)
            pipes[pid] = open(r, "rb")
        sent = [pipe.read() for pipe in pipes.values()]
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            if sent is None:
                os.kill(pid, signal.SIGKILL)
        status = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pipes}
    if any(status.values()) or not all(sent):
        raise RuntimeError(f"a worker exited without sending its runs: exit statuses {status}")
    results = {i: x for data in sent for i, x in pickle.loads(data).items()}
    if failed := [i for i, x in results.items() if isinstance(x, Exception)]:
        raise results[min(failed)]
    return [results[i] for i in range(runs)]


def run_ba_condition(
    config: BAConfig,
    runs: int,
    master_seed: int,
    power: PowerIterationConfig = PowerIterationConfig(),
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
    power: PowerIterationConfig = PowerIterationConfig(),
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


# The config field that a sweep varies and its rows report, per model.
SWEPT = {BAConfig: "links_per_node", WSConfig: "rewiring_probability"}


def run_sweep(
    conditions: list[BAConfig | WSConfig],
    runs: int,
    master_seed: int,
    power: PowerIterationConfig = PowerIterationConfig(),
    *,
    workers: int = 1,
) -> list[SweepRow]:
    """Run each condition in turn, by ``run_ba_condition`` or
    ``run_ws_condition`` as its type says, and summarize it in one row.

    A row's ``param`` is the condition's value of the field ``SWEPT`` names
    for its type: links per node for growth, rewiring probability for the
    lattice. Condition i runs on master seed ``derive_seed(master_seed, i)``,
    so adding or removing conditions never perturbs the others.
    """
    rows: list[SweepRow] = []
    for i, config in enumerate(conditions):
        run = run_ba_condition if isinstance(config, BAConfig) else run_ws_condition
        summary, _ = run(config, runs, derive_seed(master_seed, i), power, workers=workers)
        rows.append(
            SweepRow(
                param=float(getattr(config, SWEPT[type(config)])),
                mean_lambda_ratio=summary.mean_lambda_ratio,
                mean_cv=summary.mean_cv,
                mean_correlation=summary.mean_correlation,
                runs=summary.runs,
            )
        )
    return rows
