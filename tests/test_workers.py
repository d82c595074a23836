"""A condition's replicates in worker processes.

``main`` and the runners take a ``workers`` count, and more than one splits a
condition's runs into that many round-robin shares, each run by one forked
child; ``entry``, the command-line entry point, asks for one worker per CPU
the process may run on. These tests check that no output byte depends on the
count, that a run failing in a worker reaches the caller as it would
serially, that a worker ending without its runs raises instead of hanging,
that no child is left behind on any of these paths, and how ``entry`` picks
the count, the last without starting any process.
"""

import contextlib
import gc
import hashlib
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import netspectra
from netspectra import NotConvergedError, PowerIterationConfig, WSConfig, run_condition
from netspectra import experiment
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


def package_env():
    """This process's environment, with the tested package importable."""
    env = dict(os.environ)
    src = str(Path(netspectra.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs ``seconds`` long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def before_each_run(monkeypatch, hook):
    """Call ``hook(i)`` at the start of run i, in whichever process runs it."""
    real = experiment._run_one

    def run_one(*args):
        hook(args[-1])
        return real(*args)

    monkeypatch.setattr(experiment, "_run_one", run_one)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_do_not_depend_on_worker_count(tmp_path, command):
    serial = run_main(command, tmp_path / "serial", 1)
    assert run_main(command, tmp_path / "pooled", 2) == serial


def test_module_entry_writes_what_main_writes(tmp_path):
    command = "ws --ring 20 --beta 0.5 --runs 3 --seed 12"
    proc = subprocess.run(
        [sys.executable, "-m", "netspectra", *command.split(), "--out", str(tmp_path / "cli")],
        env=package_env(), capture_output=True, text=True, timeout=120,
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
    assert_no_child_left()


def test_failing_solve_in_a_worker_raises_its_result():
    config = WSConfig(nodes_per_ring=5, rewiring_probability=0.5)
    with pytest.raises(NotConvergedError) as info:
        run_condition(config, 4, 1, PowerIterationConfig(max_iterations=1), workers=2)
    assert info.value.result.iterations == 1
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_lowest_failing_run_raises_for_any_worker_count(monkeypatch, workers):
    # with 2 or 3 workers, runs 1 and 2 fail in different children; run 1's
    # error is the one the serial loop raises
    def fail(i):
        if i in (1, 2):
            raise ValueError(f"run {i} failed")

    before_each_run(monkeypatch, fail)
    with pytest.raises(ValueError, match="^run 1 failed$"):
        run_condition(WSConfig(5, 0.5), 4, 1, workers=workers)
    assert_no_child_left()


def test_worker_ending_without_its_runs_raises(monkeypatch):
    parent = os.getpid()

    def die(i):
        if i == 1 and os.getpid() != parent:
            os._exit(9)

    before_each_run(monkeypatch, die)
    with deadline(20), pytest.raises(RuntimeError, match=r"exit statuses \{.*: 9\b"):
        run_condition(WSConfig(5, 0.5), 4, 1, workers=2)
    assert_no_child_left()


def test_interrupted_map_kills_and_reaps_its_workers(monkeypatch):
    parent = os.getpid()

    def stall(i):
        if os.getpid() != parent:
            time.sleep(60)

    before_each_run(monkeypatch, stall)
    start = time.monotonic()
    with pytest.raises(TimeoutError), deadline(1):
        run_condition(WSConfig(5, 0.5), 4, 1, workers=2)
    assert time.monotonic() - start < 10  # the stalled workers were not waited for
    assert_no_child_left()


# Run 0's worker sleeps while the caller waits on its pipe; run 1's worker
# has results larger than a pipe's buffer and blocks writing them.
KILLED_CALLER = """
import time
from netspectra import WSConfig, experiment, run_condition

def run_one(*args):
    if args[-1] == 0:
        time.sleep(2)
    return [b"x" * 2**20]

experiment._run_one = run_one
print("forking", flush=True)
run_condition(WSConfig(5, 0.5), 2, 1, workers=2)
"""


def test_killed_caller_leaves_no_worker_behind():
    proc = subprocess.Popen(
        [sys.executable, "-c", KILLED_CALLER], env=package_env(),
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        assert proc.stdout.readline() == b"forking\n"
        time.sleep(1)
        proc.kill()
        proc.wait()
        # every worker holds the write end of stdout until it exits, so the
        # read sees end of file once no worker is left
        assert select.select([proc.stdout], [], [], 20)[0], "a worker outlived its caller"
        assert proc.stdout.read() == b""
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.stdout.close()


# Reports whether the caller of a run loaded numpy.random. Its import adds
# ~6 MB to the resident set of the process that makes it.
LOADS_NUMPY_RANDOM = """
import sys
from netspectra.cli import main

assert main(sys.argv[2:], workers=int(sys.argv[1])) == 0
print("numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("workers, loaded", [(1, "True"), (2, "False")])
def test_forking_caller_never_loads_numpy_random(tmp_path, workers, loaded):
    # every run is seeded in the process that runs it, so with workers only
    # the children load the generator module
    argv = [str(workers), *WS_SMALL, "--runs", "2", "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", LOADS_NUMPY_RANDOM, *argv],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == loaded


@pytest.mark.parametrize("workers", [2, 3])
def test_uneven_shares_return_the_serial_results(tmp_path, monkeypatch, workers):
    config = WSConfig(10, 0.5)
    serial = run_condition(config, 5, 3)
    log = tmp_path / "runs.log"

    def record(i):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {i}\n")

    before_each_run(monkeypatch, record)
    assert run_condition(config, 5, 3, workers=workers) == serial
    # each run ran once, in one of ``workers`` children and never in the caller
    ran = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert sorted(i for _, i in ran) == list(range(5))
    assert len({pid for pid, _ in ran}) == workers
    assert os.getpid() not in {pid for pid, _ in ran}


# Above any pid_max Linux allows, so no process has one of these pids.
FAKE_PID = 2**30


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls made through ``netspectra.experiment``. Each is
    answered as the parent of a child that has already exited with status 9
    without writing anything, and no process starts: the forked map then
    raises RuntimeError once it has reaped every such child."""
    calls = []
    real_waitpid = os.waitpid

    def fork():
        calls.append(FAKE_PID + len(calls))
        return calls[-1]

    def waitpid(pid, options):
        return (pid, 9 << 8) if pid >= FAKE_PID else real_waitpid(pid, options)

    monkeypatch.setattr(experiment.os, "fork", fork)
    monkeypatch.setattr(experiment.os, "waitpid", waitpid)
    return calls


def set_argv(monkeypatch, tmp_path, runs):
    argv = ["netspectra", *WS_SMALL, "--runs", str(runs), "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    # entry's gc.freeze would exempt this test process's objects from
    # collection for good
    monkeypatch.setattr(gc, "freeze", lambda: None)


@pytest.fixture
def many_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4096)), raising=False)


def test_entry_asks_for_no_more_workers_than_runs(tmp_path, monkeypatch, forks, many_cpus):
    set_argv(monkeypatch, tmp_path, 3)
    with pytest.raises(RuntimeError, match="without sending its runs"):
        entry()
    assert len(forks) == 3


def test_one_run_builds_no_pool(tmp_path, monkeypatch, forks, many_cpus):
    set_argv(monkeypatch, tmp_path, 1)
    assert entry() == 0
    assert forks == []


def test_entry_runs_serially_where_affinity_is_unknown(tmp_path, monkeypatch, forks):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    set_argv(monkeypatch, tmp_path, 3)
    assert entry() == 0
    assert forks == []
