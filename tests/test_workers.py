"""A condition's replicates in worker processes.

``main`` and the runners take a ``workers`` count, and more than one maps a
condition's runs over a pool of forked processes; ``entry``, the command-line
entry point, asks for one worker per CPU the process may run on. These tests
check that no output byte depends on the count, that a run failing in a
worker reaches the caller as it would serially with no process left behind,
and how ``entry`` picks the count, the last without starting any process.
"""

import hashlib
import multiprocessing
import multiprocessing.pool
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netspectra
from netspectra import NotConvergedError, PowerIterationConfig, WSConfig, run_ws_condition
from netspectra.cli import entry, main

from test_golden import GOLDEN

WS_SMALL = ["ws", "--ring", "5", "--beta", "0.5", "--seed", "1"]
# The first solve after a rewire cannot settle in one multiply.
FAILING_WS = [*WS_SMALL, "--runs", "4", "--max-iterations", "1"]


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def run_main(command, out, workers):
    assert main([*command.split(), "--out", str(out)], workers=workers) == 0
    return digests(out)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_do_not_depend_on_worker_count(tmp_path, command):
    serial = run_main(command, tmp_path / "serial", 1)
    assert run_main(command, tmp_path / "pooled", 2) == serial


def test_module_entry_writes_what_main_writes(tmp_path):
    command = "ws --ring 20 --beta 0.5 --runs 3 --seed 12"
    env = dict(os.environ)
    src = str(Path(netspectra.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "netspectra", *command.split(), "--out", str(tmp_path / "cli")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert digests(tmp_path / "cli") == run_main(command, tmp_path / "main", 1)


def test_failing_solve_in_a_worker_exits_3_and_writes_nothing(tmp_path, capfd):
    out = tmp_path / "out"
    assert main([*FAILING_WS, "--out", str(out)], workers=1) == 3
    serial = capfd.readouterr().err
    assert main([*FAILING_WS, "--out", str(out)], workers=2) == 3
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert err == serial
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_failing_solve_in_a_worker_raises_its_result():
    config = WSConfig(nodes_per_ring=5, rewiring_probability=0.5)
    with pytest.raises(NotConvergedError) as info:
        run_ws_condition(config, 4, 1, PowerIterationConfig(max_iterations=1), workers=2)
    assert info.value.result.iterations == 1
    assert multiprocessing.active_children() == []


class PoolStarted(Exception):
    pass


@pytest.fixture
def pools(monkeypatch):
    """The process counts asked of ``multiprocessing``'s pool, which is
    patched to raise PoolStarted instead of starting any process."""
    asked = []

    def refuse(processes, *args, **kwargs):
        asked.append(processes)
        raise PoolStarted

    monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)
    return asked


def set_argv(monkeypatch, tmp_path, runs):
    argv = ["netspectra", *WS_SMALL, "--runs", str(runs), "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)


@pytest.fixture
def many_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4096)), raising=False)


def test_entry_asks_for_no_more_workers_than_runs(tmp_path, monkeypatch, pools, many_cpus):
    set_argv(monkeypatch, tmp_path, 3)
    with pytest.raises(PoolStarted):
        entry()
    assert pools == [3]


def test_one_run_builds_no_pool(tmp_path, monkeypatch, pools, many_cpus):
    set_argv(monkeypatch, tmp_path, 1)
    assert entry() == 0
    assert pools == []


def test_entry_runs_serially_where_affinity_is_unknown(tmp_path, monkeypatch, pools):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    set_argv(monkeypatch, tmp_path, 3)
    assert entry() == 0
    assert pools == []
