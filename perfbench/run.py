"""netspectra benchmark: the documented CLI, timed end to end and split by layer.

Usage (from the root of a source checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a closed loop with one client and one thread: it starts a fresh
``python3 -m netspectra`` process for the workload, waits for it to exit, and
starts the next, for S seconds. Each round also times a fresh interpreter that
only imports the package (set-up) and ``perfbench/reference.py``, a frozen job
that imports nothing from netspectra. Every time is scaled by the reference
times next to it, so a slow spell of a shared host cancels out and a change to
netspectra does not. The program is run from the checkout's ``src/``; a
checkout without it is an error.

Before timing, an untimed verify pass runs the invocation of the run's first
CLI seed in-process under ``perfbench/probe.py``: it counts steps, compares
sampled snapshots against a dense eigenvalue oracle and the
sqrt(<k^2>) <= lambda <= k_max bracket, and its output files are what every
timed invocation of that seed must reproduce byte for byte. With ``--trace 1`` the same probe run, timed apart from its
oracle work, gives the per-layer split and the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). A fuller record of
the run goes to ``.perfbench_work/report-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = Path(__file__).resolve().parent / "probe.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# Reported times are scaled to a host on which reference.py takes REF_S, its
# median on a shared 2-core x86 VM: time x REF_S / reference time.
REF_S = 0.35

# Every run must end well inside the 180 s a run is allowed.
BUDGET_S = 165.0
MIN_ROUNDS = 2

# Solver iterations, and so the work per step, vary from graph to graph: over
# seeds, total iterations of one invocation spread ~3% with 30 WS replicates
# but ~13% with 2 BA replicates and ~9% with 5. Host-speed scaling needs short
# invocations (see README.md), so ba-large runs 2 replicates and rotates
# its rounds over `cli_seeds` CLI seeds derived from the benchmark seed, and
# the run's median covers 2 x cli_seeds graphs. Only BA rotates: its step
# count is fixed by its arguments, while a WS invocation's depends on the
# graphs and is counted by the probe for one seed. One invocation takes
# 2-5 s on a 2-core x86 VM. Sample strides put a handful of snapshots, up to
# the largest graph sizes, under the oracle.
WORKLOADS = {
    # n=1000, m=2: edge extraction and many solver iterations per solve.
    "ba-large": {
        "args": ["ba", "--initial", "3", "--total", "1000", "--links", "2"],
        "runs": 2,
        "cli_seeds": 6,
        "stride": 400,
    },
    # N=50, beta=0.5: remove-then-add rewiring on a small graph whose nearly
    # regular spectra need many iterations per solve.
    "ws-rewire": {
        "args": ["ws", "--ring", "50", "--beta", "0.5"],
        "runs": 30,
        "cli_seeds": 1,
        "stride": 250,
    },
}

END_TO_END = {
    "steps_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, probe layer it depends on; None if always there).
PER_LAYER = {
    "setup.import_s": ("s", None),
    "cli.self_s": ("s", "cli"),
    "cli.bytes_written": ("bytes", None),
    "experiment.self_s": ("s", "experiment"),
    "metrics.steps": ("count", "metrics.snapshot"),
    "metrics.snapshot_self_s": ("s", "metrics.snapshot"),
    "metrics.aggregate_s": ("s", "metrics.aggregate"),
    "spectral.ratio_self_s": ("s", "spectral.ratio"),
    "spectral.solve_s": ("s", "spectral.solve"),
    "spectral.solves": ("count", "spectral.solve"),
    "spectral.regular_shortcuts": ("count", "spectral.ratio"),
    "spectral.shifted": ("count", "spectral.solve"),
    "spectral.iterations": ("count", "spectral.solve"),
    "spectral.iterations_per_solve": ("count", "spectral.solve"),
    "spectral.iterations_max": ("count", "spectral.solve"),
    "spectral.edge_visits": ("count", "spectral.solve"),
    "spectral.oracle_err_max": ("abs", "spectral.solve"),
    "graph.edges_s": ("s", "graph.edges"),
    "graph.edges_calls": ("count", "graph.edges"),
    "graph.degree_stats_s": ("s", "graph.degree_stats"),
    "graph.degree_stats_calls": ("count", "graph.degree_stats"),
    "ba.select_targets_s": ("s", "ba.select_targets"),
    "ba.select_targets_calls": ("count", "ba.select_targets"),
    "ba.evolve_self_s": ("s", "ba.evolve"),
    "ws.rewire_self_s": ("s", "ws.rewire"),
    "ws.rewires": ("count", "ws.rewire"),
    "ws.skipped": ("count", "ws.rewire"),
    "trace.overhead": ("ratio", None),
    "trace.unattributed_s": ("s", None),
    "trace.attributed_frac": ("ratio", None),
}

# Counts that repeat exactly for one commit and seed; the baseline for count claims.
EXACT_COUNTS = (
    "spectral.iterations",
    "spectral.solves",
    "spectral.regular_shortcuts",
    "spectral.edge_visits",
    "graph.degree_stats_calls",
    "metrics.steps",
)

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict[str, str], err_path: Path, deadline: float):
    """Run one child to completion; return (exit code, wall s, peak RSS MB).

    The child's own rusage comes from wait4, so the peak RSS is that process's
    alone. A child still running at ``deadline`` is killed and raises
    ChildTimeout.
    """
    with open(os.devnull, "wb") as null, open(err_path, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_DUP2, null.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, max(0.1, deadline - time.monotonic()))
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        # Timeout, SIGTERM or interrupt: stop the child before leaving.
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def check_outputs(files: dict[str, bytes], spec: dict, seed: int) -> list[str]:
    """Problems with one invocation's CSV and JSON; empty when they are right."""
    try:
        return _output_problems(files, spec, seed)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed outputs: {exc!r}"]


def _output_problems(files: dict[str, bytes], spec: dict, seed: int) -> list[str]:
    model = spec["args"][0]
    csv_name, json_name = f"{model}_timeseries.csv", f"{model}_summary.json"
    if sorted(files) != sorted([csv_name, json_name]):
        return [f"expected {csv_name} and {json_name}, found {sorted(files)}"]
    problems = []
    lines = files[csv_name].decode().splitlines()
    if lines[0] != "step,node_count,edge_count,lambda_ratio,cv":
        problems.append(f"unexpected CSV header {lines[0]!r}")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    steps = [int(r[0]) for r in rows]
    opts = dict(zip(spec["args"][1::2], spec["args"][2::2]))
    if model == "ba":
        first, total = int(opts["--initial"]) - 1, int(opts["--total"])
        if steps != list(range(first, total)):
            problems.append("BA steps are not initial-1 .. total-1")
        if any(r[1] != r[0] + 1 for r in rows):
            problems.append("BA node counts do not equal step + 1")
    else:
        if steps != list(range(len(rows))):
            problems.append("WS steps are not 0 .. records-1")
        if any(r[1] != 2 * int(opts["--ring"]) for r in rows):
            problems.append("WS node counts differ from 2 x ring")
    for r in rows:
        if not all(math.isfinite(x) for x in r) or r[2] <= 0:
            problems.append(f"non-finite or empty row at step {int(r[0])}")
            break
        # lambda >= k_avg on every graph with edges; cv is a ratio of a SD.
        if r[3] < 1.0 - 1e-9 or r[4] < 0.0:
            problems.append(f"lambda_ratio {r[3]!r} or cv {r[4]!r} out of range")
            break
    summary = json.loads(files[json_name])
    results = summary.get("results", {})
    if summary.get("model") != model or summary.get("runs") != spec["runs"]:
        problems.append("summary model or runs do not echo the command")
    if summary.get("master_seed") != seed:
        problems.append("summary master_seed does not echo --seed")
    mean_ratio = results.get("mean_lambda_ratio")
    if not (isinstance(mean_ratio, float) and math.isfinite(mean_ratio) and mean_ratio >= 1.0 - 1e-9):
        problems.append("summary mean_lambda_ratio missing or below 1")
    if model == "ba" and rows and mean_ratio != rows[-1][3]:
        problems.append("summary mean_lambda_ratio differs from the last CSV row")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_probe(spec, seed, stride, out_dir, report_path, env, deadline):
    """Run the in-process probe; return (report, outputs, wall s)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, str(PROBE), str(report_path), str(stride), "--"]
    argv += spec["args"] + ["--runs", str(spec["runs"]), "--seed", str(seed), "--out", str(out_dir)]
    err_path = out_dir.parent / "probe.err"
    code, wall, _ = spawn(argv, env, err_path, deadline)
    if code != 0:
        raise BenchError(f"probe exited {code}: {err_path.read_text()[-2000:]}")
    report = json.loads(report_path.read_text())
    if report["exit_code"] != 0:
        raise BenchError(f"netspectra exited {report['exit_code']} under the probe")
    if not Path(report["module_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"netspectra imported from {report['module_file']}, not {SRC}")
    for hook in report["absent_hooks"]:
        print(f"warning: hook {hook} not found; a layer left with no hook is omitted",
              file=sys.stderr)
    return report, read_outputs(out_dir), wall


def layer_values(report: dict) -> dict[str, float]:
    """Per-layer metrics read from one probe report, absent layers included."""
    layers, counts = report["layers"], report["counts"]

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    solves = calls("spectral.solve")
    return {
        "setup.import_s": report["import_s"],
        "cli.self_s": self_s("cli"),
        "experiment.self_s": self_s("experiment"),
        "metrics.steps": calls("metrics.snapshot"),
        "metrics.snapshot_self_s": self_s("metrics.snapshot"),
        "metrics.aggregate_s": self_s("metrics.aggregate"),
        "spectral.ratio_self_s": self_s("spectral.ratio"),
        "spectral.solve_s": self_s("spectral.solve"),
        "spectral.solves": solves,
        "spectral.regular_shortcuts": counts.get("spectral.regular_shortcuts", 0),
        "spectral.shifted": counts.get("spectral.shifted", 0),
        "spectral.iterations": counts.get("spectral.iterations", 0),
        "spectral.iterations_per_solve": counts.get("spectral.iterations", 0) / max(1, solves),
        "spectral.iterations_max": report["iterations_max"],
        "spectral.edge_visits": counts.get("spectral.edge_visits", 0),
        "spectral.oracle_err_max": report["oracle"]["err_max"],
        "graph.edges_s": self_s("graph.edges"),
        "graph.edges_calls": calls("graph.edges"),
        "graph.degree_stats_s": self_s("graph.degree_stats"),
        "graph.degree_stats_calls": calls("graph.degree_stats"),
        "ba.select_targets_s": self_s("ba.select_targets"),
        "ba.select_targets_calls": calls("ba.select_targets"),
        "ba.evolve_self_s": self_s("ba.evolve"),
        "ws.rewire_self_s": self_s("ws.rewire"),
        "ws.rewires": counts.get("ws.rewires", 0),
        "ws.skipped": counts.get("ws.skipped", 0),
    }


def keep_present(values: dict[str, float], layers) -> dict[str, float]:
    """Drop metrics of layers whose hooks are all gone, in PER_LAYER order."""
    return {
        name: values[name]
        for name, (_, layer) in PER_LAYER.items()
        if name in values and (layer is None or layer in layers)
    }


def probe_counts(report: dict) -> dict[str, int]:
    values = keep_present(layer_values(report), report["layers"])
    return {name: values[name] for name in EXACT_COUNTS if name in values}


def per_layer_metrics(trace: dict, traced_wall: float, untraced_wall: float,
                      bytes_written: int) -> dict[str, float]:
    values = layer_values(trace)
    attributed = trace["import_s"] + sum(v["self_s"] for v in trace["layers"].values())
    values.update({
        "cli.bytes_written": bytes_written,
        "trace.overhead": traced_wall / untraced_wall,
        "trace.unattributed_s": traced_wall - attributed,
        "trace.attributed_frac": attributed / traced_wall,
    })
    return keep_present(values, trace["layers"])


def machine_info(verify: dict) -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": verify["python"],
        "numpy": verify["numpy"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + BUDGET_S
    spec = WORKLOADS[workload]
    if not (SRC / "netspectra" / "__init__.py").is_file():
        raise BenchError(f"no netspectra sources under {SRC}")
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _measure(workload, spec, seed, seconds, trace, work, env, deadline)
    except ChildTimeout:
        raise BenchError(f"a child process ran past the run's {BUDGET_S:.0f} s budget") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, spec, seed, seconds, trace, work, env, deadline) -> dict:
    attempted = failed = 0
    problems: list[str] = []

    # Round i runs CLI seed cli_seeds[i % len(cli_seeds)]; with one CLI seed
    # it is the benchmark seed.
    cli_seeds = [seed * spec["cli_seeds"] + j for j in range(spec["cli_seeds"])]
    # Verify pass, outside the timed loop; it also warms the bytecode cache.
    verify, verify_outputs, probe_wall = run_probe(
        spec, cli_seeds[0], spec["stride"], work / "verify-out", work / "verify.json", env, deadline
    )
    attempted += 1
    verify_problems = check_outputs(verify_outputs, spec, cli_seeds[0])
    oracle = verify["oracle"]
    if oracle["samples"] == 0 or oracle["bad"]:
        verify_problems.append(
            f"oracle: {oracle['bad']} of {oracle['samples']} sampled snapshots disagree"
        )
    counts = probe_counts(verify)
    if "metrics.steps" not in counts:
        raise BenchError("cannot count steps: the metrics.snapshot hook is absent")
    steps = counts["metrics.steps"]
    if spec["args"][0] == "ba":
        opts = dict(zip(spec["args"][1::2], spec["args"][2::2]))
        per_run = int(opts["--total"]) - int(opts["--initial"]) + 1
        if steps != spec["runs"] * per_run:
            verify_problems.append(f"probe counted {steps} steps, expected {spec['runs'] * per_run}")
    if verify_problems:
        failed += 1
        problems += verify_problems

    # Outputs each CLI seed must reproduce: the verify pass's for the first,
    # the first checked invocation's for the others.
    expected = {cli_seeds[0]: verify_outputs}
    setup_argv = [sys.executable, "-c", "import netspectra.cli"]
    reference_argv = [sys.executable, str(REFERENCE)]

    def time_reference() -> float:
        code, ref_wall, _ = spawn(reference_argv, env, work / "reference.err", deadline)
        if code != 0:
            raise BenchError(f"reference.py failed: {(work / 'reference.err').read_text()[-2000:]}")
        return ref_wall

    # refs[i] runs just before round i's set-up and workload; one more closes
    # the loop, so each workload invocation sits between refs[i] and refs[i+1].
    walls, setups, rss, refs, wall_rounds = [], [], [], [], []
    t_start = time.monotonic()
    last_round = 0.0
    # Start a round only if, judged by the last one, it ends within the
    # measuring time (and within the run's budget).
    while len(setups) < MIN_ROUNDS or time.monotonic() - t_start + last_round <= seconds:
        round_start = time.monotonic()
        if round_start + last_round > deadline:
            break
        i = len(refs)
        refs.append(time_reference())
        code, setup_wall, _ = spawn(setup_argv, env, work / "setup.err", deadline)
        if code != 0:
            raise BenchError(f"importing netspectra failed: {(work / 'setup.err').read_text()[-2000:]}")
        setups.append(setup_wall)
        shutil.rmtree(work / "out", ignore_errors=True)
        attempted += 1
        cli_seed = cli_seeds[i % len(cli_seeds)]
        cli = [sys.executable, "-m", "netspectra", *spec["args"], "--runs", str(spec["runs"]),
               "--seed", str(cli_seed), "--out", str(work / "out")]
        code, wall, peak = spawn(cli, env, work / "cli.err", deadline)
        last_round = time.monotonic() - round_start
        if code != 0:
            failed += 1
            problems.append(f"netspectra exited {code}: {(work / 'cli.err').read_text()[-500:]}")
        else:
            walls.append(wall)
            rss.append(peak)
            wall_rounds.append(i)
            outputs = read_outputs(work / "out")
            if cli_seed not in expected:
                new_problems = check_outputs(outputs, spec, cli_seed)
                if new_problems:
                    failed += 1
                    problems += new_problems
                expected[cli_seed] = outputs
            elif outputs != expected[cli_seed]:
                failed += 1
                problems.append(f"output bytes differ from the first run of CLI seed {cli_seed}")
    refs.append(time_reference())
    if not walls:
        raise BenchError("no workload invocation succeeded: " + "; ".join(problems[:3]))

    # Scale each time by the reference runs next to it (see reference.py).
    setups_n = [s * REF_S / r for s, r in zip(setups, refs)]
    walls_n = [w * REF_S / ((refs[i] + refs[i + 1]) / 2) for w, i in zip(walls, wall_rounds)]
    setup_med = statistics.median(setups_n)
    samples = {
        "steps_per_s": [steps / (w - setup_med) for w in walls_n],
        "wall_s": walls_n,
        "setup_s": setups_n,
        "peak_rss_mb": rss,
    }
    stats = {name: quartiles(vals) for name, vals in samples.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "command": ["netspectra", *spec["args"], "--runs", str(spec["runs"]),
                    "--seed", ",".join(map(str, cli_seeds))],
        "machine": machine_info(verify),
        "steps": steps,
        "counts": counts,
        "oracle": oracle,
        "samples": samples,
        "raw": {"wall_s": walls, "setup_s": setups, "reference_s": refs},
        "problems": problems,
    }

    if trace:
        # The verify pass is also the traced run; its oracle time is not
        # part of the traced wall.
        traced_wall = probe_wall - oracle["seconds"]
        bytes_written = sum(len(b) for b in verify_outputs.values())
        # Untraced walls of the CLI seed the probe ran.
        untraced = [w for w, i in zip(walls, wall_rounds) if i % len(cli_seeds) == 0] or walls
        metrics = per_layer_metrics(verify, traced_wall, statistics.median(untraced), bytes_written)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        record["probe"] = verify
    else:
        metrics = {name: stats[name][1] for name in END_TO_END}
        units = END_TO_END
    record["metrics"] = metrics
    return {
        "record": record,
        "stats": stats,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def print_report(result: dict) -> None:
    rec = result["record"]
    m = rec["machine"]
    print(f"workload {rec['workload']}: {' '.join(rec['command'])}")
    print(f"  closed loop, 1 client, 1 thread; fresh process per invocation; seed {rec['seed']}")
    print(f"  machine {m['platform']} ({m['cpus']} CPUs); python {m['python']}; numpy {m['numpy']}")
    print(f"  steps per invocation {rec['steps']}; exact counts {rec['counts']}")
    print(f"  times below are scaled to a host where reference.py takes {REF_S} s")
    for name, (q1, med, q3) in result["stats"].items():
        n = len(rec["samples"][name])
        print(f"  {name:<12} median {med:.6g} {END_TO_END[name]}  q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    for name, values in rec["raw"].items():
        q1, med, q3 = quartiles(values)
        print(f"  unscaled {name:<12} median {med:.6g} s  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    oracle = rec["oracle"]
    print(
        f"  verify: oracle_err_max {oracle['err_max']:.3g} over {oracle['samples']} sampled snapshots "
        f"(solver tolerance 1e-10; pass/fail 1e-6 x radius)"
    )
    print(f"  failed_frac {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.3g}")
    for problem in rec["problems"]:
        print(f"  FAILED: {problem}")
    if rec["trace"]:
        for name, entry in result["metrics"].items():
            print(f"  {name:<30} {entry['value']:.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    rec = result["record"]
    WORK.mkdir(exist_ok=True)
    name = f"report-{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
    (WORK / name).write_text(json.dumps(rec, indent=1) + "\n")
    print_report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
