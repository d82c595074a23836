"""Command-line front end.

Four subcommands: ``analyze`` reports spectral and degree statistics for a
graph read from an edge-list file, ``ba`` and ``ws`` run seeded multi-run
experiments on the growth and rewiring models, ``sweep`` runs either model
across a list of parameter values. Experiment commands write CSV and JSON
into the output directory; given the same flags and seed they write the same
bytes.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input file,
3 power iteration failed to converge.
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import sys
from pathlib import Path
from typing import Sequence

from .ba import BAConfig
from .errors import (
    DuplicateEdgeError,
    EdgeListParseError,
    NotConvergedError,
    SelfLoopError,
)
from .experiment import (
    RNG_NAME,
    ExperimentConfig,
    run_ba_condition,
    run_ba_table,
    run_ws_condition,
    run_ws_sweep,
)
from .graph import degree_stats, parse_edge_list
from .spectral import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    PowerIterationConfig,
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


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips; always at least full precision."""
    return repr(float(x))


def _csv_cell(x: float | int | None) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return _fmt(x)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))  # type: ignore[arg-type]
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, obj: object) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {args.seed}")
        return args.seed
    seed = secrets.randbits(63)
    print(f"master seed (generated): {seed}")
    return seed


def _power_config(args: argparse.Namespace) -> PowerIterationConfig:
    return PowerIterationConfig(
        tolerance=args.tolerance, max_iterations=args.max_iterations
    )


def _power_json(power: PowerIterationConfig) -> dict:
    return {"tolerance": power.tolerance, "max_iterations": power.max_iterations}


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


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        power = _power_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        text = args.path.read_text()
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        g = parse_edge_list(text)
    except (EdgeListParseError, SelfLoopError, DuplicateEdgeError) as exc:
        print(f"{args.path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if g.node_count == 0:
        print(f"{args.path}: graph has no nodes", file=sys.stderr)
        return EXIT_INPUT

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
        print("power iteration did not converge", file=sys.stderr)
        return EXIT_NOCONVERGE

    if stats.k_min == stats.k_max:
        ratio = 1.0  # regular graph: radius equals the common degree
    else:
        ratio = result.spectral_radius / stats.k_avg
    print(f"spectral radius: {_fmt(result.spectral_radius)}")
    print(f"lambda ratio: {_fmt(ratio)}")
    print(f"iterations: {result.iterations}")
    print(f"residual: {_fmt(result.residual)}")
    print(f"shifted: {'yes' if result.shifted else 'no'}")
    return EXIT_OK


def _summary_results(summary) -> dict:
    return {
        "mean_lambda_ratio": summary.mean_lambda_ratio,
        "mean_cv": summary.mean_cv,
        "mean_correlation": summary.mean_correlation,
    }


def cmd_ba(args: argparse.Namespace) -> int:
    try:
        seed = _resolve_seed(args)
        config = BAConfig(
            initial_nodes=args.initial,
            total_nodes=args.total,
            links_per_node=args.links,
        )
        power = _power_config(args)
        if args.runs < 1:
            raise ValueError(f"runs must be >= 1, got {args.runs}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        summary, _ = run_ba_condition(config, args.runs, seed, power)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONVERGE

    assert summary.steps is not None
    rows = list(
        zip(
            summary.steps,
            summary.mean_node_counts,
            summary.mean_edge_counts,
            summary.mean_lambda_ratios,
            summary.mean_cvs,
        )
    )
    csv_path = args.out / "ba_timeseries.csv"
    _write_csv(csv_path, ("step", "node_count", "edge_count", "lambda_ratio", "cv"), rows)
    json_path = args.out / "ba_summary.json"
    _write_json(
        json_path,
        {
            "model": "ba",
            "config": {
                "initial_nodes": config.initial_nodes,
                "total_nodes": config.total_nodes,
                "links_per_node": config.links_per_node,
            },
            "runs": args.runs,
            "master_seed": seed,
            "rng": RNG_NAME,
            "power": _power_json(power),
            "results": _summary_results(summary),
        },
    )
    print(
        f"ba: n0={config.initial_nodes} n={config.total_nodes} m={config.links_per_node} "
        f"runs={args.runs} seed={seed}"
    )
    print(f"mean lambda ratio: {summary.mean_lambda_ratio:.6g}")
    print(f"mean cv: {summary.mean_cv:.6g}")
    corr = summary.mean_correlation
    print(f"mean correlation: {'undefined' if corr is None else format(corr, '.6g')}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def cmd_ws(args: argparse.Namespace) -> int:
    try:
        seed = _resolve_seed(args)
        config = WSConfig(nodes_per_ring=args.ring, rewiring_probability=args.beta)
        power = _power_config(args)
        if args.runs < 1:
            raise ValueError(f"runs must be >= 1, got {args.runs}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        summary, series = run_ws_condition(config, args.runs, seed, power)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONVERGE

    # Rewiring runs differ in length, so the time series file holds the first
    # run only; the JSON carries the cross-run means.
    rows = [
        (r.step, r.node_count, r.edge_count, r.lambda_ratio, r.cv) for r in series[0]
    ]
    csv_path = args.out / "ws_timeseries.csv"
    _write_csv(csv_path, ("step", "node_count", "edge_count", "lambda_ratio", "cv"), rows)
    json_path = args.out / "ws_summary.json"
    _write_json(
        json_path,
        {
            "model": "ws",
            "config": {
                "nodes_per_ring": config.nodes_per_ring,
                "rewiring_probability": config.rewiring_probability,
            },
            "runs": args.runs,
            "master_seed": seed,
            "rng": RNG_NAME,
            "power": _power_json(power),
            "results": _summary_results(summary),
        },
    )
    print(
        f"ws: ring={config.nodes_per_ring} beta={config.rewiring_probability} "
        f"runs={args.runs} seed={seed}"
    )
    print(f"mean lambda ratio: {summary.mean_lambda_ratio:.6g}")
    print(f"mean cv: {summary.mean_cv:.6g}")
    corr = summary.mean_correlation
    print(f"mean correlation: {'undefined' if corr is None else format(corr, '.6g')}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        seed = _resolve_seed(args)
        values = tuple(float(v) for v in args.values.split(",") if v.strip() != "")
        if not values:
            raise ValueError("at least one sweep value is required")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"sweep values must be finite, got {args.values}")
        power = _power_config(args)
        if args.model == "ba":
            if args.initial is None or args.total is None:
                raise ValueError("model 'ba' needs --initial and --total")
            base = BAConfig(
                initial_nodes=args.initial,
                total_nodes=args.total,
                links_per_node=max(1, int(values[0])),
            )
            config = ExperimentConfig(
                model="ba",
                runs=args.runs,
                master_seed=seed,
                ba=base,
                sweep=values,
                power=power,
            )
        else:
            if args.ring is None:
                raise ValueError("model 'ws' needs --ring")
            base = WSConfig(nodes_per_ring=args.ring, rewiring_probability=0.0)
            config = ExperimentConfig(
                model="ws",
                runs=args.runs,
                master_seed=seed,
                ws=base,
                sweep=values,
                power=power,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        rows = run_ba_table(config) if args.model == "ba" else run_ws_sweep(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONVERGE

    csv_rows = [
        (row.param, row.mean_lambda_ratio, row.mean_cv, row.mean_correlation, row.runs)
        for row in rows
    ]
    csv_path = args.out / f"sweep_{args.model}.csv"
    _write_csv(
        csv_path,
        ("param", "mean_lambda_ratio", "mean_cv", "mean_correlation", "runs"),
        csv_rows,
    )
    json_path = args.out / f"sweep_{args.model}_summary.json"
    model_cfg: dict
    if args.model == "ba":
        model_cfg = {"initial_nodes": args.initial, "total_nodes": args.total}
    else:
        model_cfg = {"nodes_per_ring": args.ring}
    _write_json(
        json_path,
        {
            "model": args.model,
            "config": model_cfg,
            "sweep": list(values),
            "runs": args.runs,
            "master_seed": seed,
            "rng": RNG_NAME,
            "power": _power_json(power),
            "rows": [
                {
                    "param": row.param,
                    "mean_lambda_ratio": row.mean_lambda_ratio,
                    "mean_cv": row.mean_cv,
                    "mean_correlation": row.mean_correlation,
                    "runs": row.runs,
                }
                for row in rows
            ],
        },
    )
    print(f"sweep: model={args.model} values={args.values} runs={args.runs} seed={seed}")
    for row in rows:
        corr = "undefined" if row.mean_correlation is None else format(row.mean_correlation, ".6g")
        print(
            f"  param={row.param:g} mean_lambda_ratio={row.mean_lambda_ratio:.6g} "
            f"mean_cv={row.mean_cv:.6g} mean_correlation={corr}"
        )
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


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
    _add_power_flags(p_ba)
    p_ba.set_defaults(func=cmd_ba)

    p_ws = sub.add_parser("ws", help="rewire double-ring lattices and track the ratio")
    p_ws.add_argument("--ring", type=int, required=True, help="nodes per ring")
    p_ws.add_argument("--beta", type=float, required=True, help="rewiring probability")
    _add_run_flags(p_ws)
    _add_power_flags(p_ws)
    p_ws.set_defaults(func=cmd_ws)

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
    _add_power_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
