"""Command-line front end.

Four subcommands: ``analyze`` reports spectral and degree statistics for a
graph read from an edge-list file, ``ba`` and ``ws`` run seeded multi-run
experiments on the growth and rewiring models, ``sweep`` runs either model
across a list of parameter values. Experiment commands write CSV and JSON
into the output directory; given the same flags and seed they write the same
bytes.

Exit codes: 0 success, 1 usage error or unwritable output, 2 unreadable or
malformed input file, 3 power iteration failed to converge. ``main`` builds
the solver settings that every command takes, maps every error to its code
and prints it as one line on stderr.

``main`` runs a condition's replicates in ``workers`` processes, each a
forked child running a fixed round-robin share of the runs while the
caller waits. The default of one keeps every run in the caller's process,
where in-process hooks see it; ``entry``, behind ``python -m netspectra``
and the ``netspectra`` script, asks for one per CPU the process may run on
(``os.sched_getaffinity``). No output depends on the count.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

from .ba import BAConfig
from .errors import EdgeListParseError, NotConvergedError
from .experiment import RNG_NAME, SWEPT, run_condition, run_sweep
from .graph import degree_stats, parse_edge_list
from .spectral import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    PowerIterationConfig,
    lambda_ratio,
    power_iteration,
)
from .ws import WSConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NOCONVERGE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this tool reserves 2 for
    # input-file problems, so usage errors are remapped to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _InputError(Exception):
    """The input file cannot be read or parsed; the message names the file."""


def _fmt(x: float | int | None) -> str:
    """A report value or CSV cell: empty for None, an int as it is, and a
    real as the shortest decimal that round-trips."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _csv(rows: Sequence[NamedTuple]) -> str:
    """One line per named-tuple row, under a header of the rows' field names."""
    lines = [",".join(rows[0]._fields)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(
    head: dict, args: argparse.Namespace, seed: int, power: PowerIterationConfig, tail: dict
) -> str:
    """Summary JSON: ``head``, the settings every experiment echoes, ``tail``."""
    doc = {
        **head,
        "runs": args.runs,
        "master_seed": seed,
        "rng": RNG_NAME,
        "power": dataclasses.asdict(power),
        **tail,
    }
    return json.dumps(doc, indent=2) + "\n"


def _finish(out: Path, files: dict[str, str], report: list[str]) -> int:
    """Write every output file, then print the report and the paths written.

    Each file is written through a temporary file in ``out`` and then renamed
    into place, so no output path ever holds a partial file.
    """
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in files]
    for path, text in zip(paths, files.values()):
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    for line in report + [f"wrote {path}" for path in paths]:
        print(line)
    return EXIT_OK


def _corr(x: float | None) -> str:
    return "undefined" if x is None else format(x, ".6g")


def _master_seed(args: argparse.Namespace) -> int:
    """Master seed of an experiment command, with ``--seed`` and ``--runs``
    checked. Omitting ``--seed`` draws a fresh seed and prints it on stdout,
    so the commands call this after every other check: a seed is printed only
    for a run that goes ahead.
    """
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {args.seed}")
    if args.runs < 1:
        raise ValueError(f"runs must be >= 1, got {args.runs}")
    seed = args.seed
    if seed is None:
        import secrets  # only a command without --seed pays for its import

        seed = secrets.randbits(63)
        print(f"master seed (generated): {seed}")
    return seed


def _add_power_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="power iteration convergence tolerance (default %(default)g)",
    )
    p.add_argument(
        "--max-iterations",
        type=int,
        default=DEFAULT_MAX_ITERATIONS,
        help="power iteration budget per solve (default %(default)s)",
    )


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--runs", type=int, default=1, help="independent runs (default 1)")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed; omitted means a fresh random seed, printed on stdout",
    )
    p.add_argument(
        "--out",
        type=Path,
        default=Path("."),
        help="directory for CSV/JSON outputs (default current directory)",
    )
    _add_power_flags(p)


def cmd_analyze(args: argparse.Namespace, power: PowerIterationConfig, workers: int) -> int:
    try:
        text = args.path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {args.path}: {exc}") from exc
    try:
        g = parse_edge_list(text)
    except EdgeListParseError as exc:
        raise _InputError(f"{args.path}: {exc}") from exc
    if g.node_count == 0:
        raise _InputError(f"{args.path}: graph has no nodes")

    stats = degree_stats(g)
    print(f"nodes: {g.node_count}")
    print(f"edges: {g.edge_count}")
    print(f"degree min/avg/max: {stats.k_min} {_fmt(stats.k_avg)} {stats.k_max}")
    print(f"degree sd: {_fmt(stats.k_sd)}")
    if stats.k_avg == 0:
        print("degree cv: undefined (no edges)")
        print("spectral radius: 0.0")
        print("lambda ratio: undefined (no edges)")
        return EXIT_OK
    print(f"degree cv: {_fmt(stats.cv)}")

    try:
        result = power_iteration(g, power)
    except NotConvergedError as exc:
        best = exc.result
        print(f"spectral radius (not converged): {_fmt(best.spectral_radius)}")
        print(f"iterations: {best.iterations}")
        print(f"residual: {_fmt(best.residual)}")
        raise

    print(f"spectral radius: {_fmt(result.spectral_radius)}")
    print(f"lambda ratio: {_fmt(lambda_ratio(stats, lambda: result))}")
    print(f"iterations: {result.iterations}")
    print(f"residual: {_fmt(result.residual)}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace, power: PowerIterationConfig, workers: int) -> int:
    """``ba`` and ``ws``: one condition's time series and cross-run means."""
    config: BAConfig | WSConfig
    if args.command == "ba":
        config = BAConfig(
            initial_nodes=args.initial, total_nodes=args.total, links_per_node=args.links
        )
        label = f"n0={config.initial_nodes} n={config.total_nodes} m={config.links_per_node}"
    else:
        config = WSConfig(nodes_per_ring=args.ring, rewiring_probability=args.beta)
        label = f"ring={config.nodes_per_ring} beta={config.rewiring_probability}"
    seed = _master_seed(args)
    summary, series = run_condition(config, args.runs, seed, power, workers=workers)

    # Rewiring runs differ in length and have no per-step means, so their
    # time series file holds the first run only; the JSON carries the
    # cross-run means either way.
    table = series[0] if summary.per_step is None else summary.per_step
    results = {
        "mean_lambda_ratio": summary.mean_lambda_ratio,
        "mean_cv": summary.mean_cv,
        "mean_correlation": summary.mean_correlation,
    }
    head = {"model": args.command, "config": dataclasses.asdict(config)}
    files = {
        f"{args.command}_timeseries.csv": _csv(table),
        f"{args.command}_summary.json": _json(head, args, seed, power, {"results": results}),
    }
    report = [
        f"{args.command}: {label} runs={args.runs} seed={seed}",
        f"mean lambda ratio: {summary.mean_lambda_ratio:.6g}",
        f"mean cv: {summary.mean_cv:.6g}",
        f"mean correlation: {_corr(summary.mean_correlation)}",
    ]
    return _finish(args.out, files, report)


def cmd_sweep(args: argparse.Namespace, power: PowerIterationConfig, workers: int) -> int:
    """``sweep``: one condition per value of the swept parameter, a row each.

    Each value is read and built into its condition, and so checked, before
    the seed is drawn. The echoed config leaves out the swept field, which
    the rows report.
    """
    if args.model == "ba":
        if args.initial is None or args.total is None:
            raise ValueError("model 'ba' needs --initial and --total")
        if args.ring is not None:
            raise ValueError("model 'ba' takes no --ring")
    else:
        if args.ring is None:
            raise ValueError("model 'ws' needs --ring")
        if args.initial is not None or args.total is not None:
            raise ValueError("model 'ws' takes no --initial or --total")
    conditions: list[BAConfig | WSConfig] = []
    for entry in filter(str.strip, args.values.split(",")):
        try:
            value = float(entry)
        except ValueError:
            message = f"--values must be comma-separated numbers, got {entry.strip()!r}"
            raise ValueError(message) from None
        if args.model == "ws":
            conditions.append(WSConfig(args.ring, value))
        elif value.is_integer():
            conditions.append(BAConfig(args.initial, args.total, int(value)))
        else:
            raise ValueError(f"links-per-node sweep values must be integers, got {value}")
    if not conditions:
        raise ValueError("at least one sweep value is required")
    seed = _master_seed(args)
    rows = run_sweep(conditions, args.runs, seed, power, workers=workers)

    swept = SWEPT[type(conditions[0])]
    config = {k: v for k, v in dataclasses.asdict(conditions[0]).items() if k != swept}
    head = {"model": args.model, "config": config, "sweep": [row.param for row in rows]}
    tail = {"rows": [row._asdict() for row in rows]}
    files = {
        f"sweep_{args.model}.csv": _csv(rows),
        f"sweep_{args.model}_summary.json": _json(head, args, seed, power, tail),
    }
    report = [f"sweep: model={args.model} values={args.values} runs={args.runs} seed={seed}"]
    report += [
        f"  param={row.param:g} mean_lambda_ratio={row.mean_lambda_ratio:.6g} "
        f"mean_cv={row.mean_cv:.6g} mean_correlation={_corr(row.mean_correlation)}"
        for row in rows
    ]
    return _finish(args.out, files, report)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netspectra",
        description="Spectral radius ratio tracking for evolving networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="degree and spectral report for an edge-list file")
    p_an.add_argument("path", type=Path, help="edge-list file (two IDs per line)")
    _add_power_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_ba = sub.add_parser("ba", help="grow scale-free networks and track the ratio")
    p_ba.add_argument("--initial", type=int, default=3, help="seed nodes (default 3)")
    p_ba.add_argument("--total", type=int, required=True, help="final node count")
    p_ba.add_argument("--links", type=int, required=True, help="links added per new node")
    _add_run_flags(p_ba)
    p_ba.set_defaults(func=cmd_run)

    p_ws = sub.add_parser("ws", help="rewire double-ring lattices and track the ratio")
    p_ws.add_argument("--ring", type=int, required=True, help="nodes per ring")
    p_ws.add_argument("--beta", type=float, required=True, help="rewiring probability")
    _add_run_flags(p_ws)
    p_ws.set_defaults(func=cmd_run)

    p_sw = sub.add_parser("sweep", help="run one model across several parameter values")
    p_sw.add_argument("--model", choices=("ba", "ws"), required=True)
    p_sw.add_argument(
        "--values",
        required=True,
        help="comma-separated parameter values (links per node, or rewiring probability)",
    )
    p_sw.add_argument("--initial", type=int, default=None, help="seed nodes (ba)")
    p_sw.add_argument("--total", type=int, default=None, help="final node count (ba)")
    p_sw.add_argument("--ring", type=int, default=None, help="nodes per ring (ws)")
    _add_run_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None, *, workers: int = 1) -> int:
    args = build_parser().parse_args(argv)
    # The one map from errors to exit codes; each is reported in one line.
    try:
        power = PowerIterationConfig(tolerance=args.tolerance, max_iterations=args.max_iterations)
        return args.func(args, power, workers)
    except _InputError as exc:
        message, code = str(exc), EXIT_INPUT
    except NotConvergedError as exc:
        message, code = f"error: {exc}", EXIT_NOCONVERGE
    except ValueError as exc:
        message, code = f"error: {exc}", EXIT_USAGE
    except OSError as exc:
        message, code = f"error: cannot write output: {exc}", EXIT_USAGE
    print(message, file=sys.stderr)
    return code


def entry() -> int:
    """``main`` on the command line, with one worker per CPU this process may
    run on (one where the platform cannot say).

    It first freezes every object that start-up created, the imported modules
    above all (``gc.freeze``): the cyclic collector of this process and of
    each forked worker then no longer walks them, and a worker does not copy
    the pages that walk would write to."""
    gc.freeze()
    affinity = getattr(os, "sched_getaffinity", None)
    return main(workers=len(affinity(0)) if affinity else 1)
