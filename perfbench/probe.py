"""Run one netspectra CLI invocation in-process with span hooks installed.

Usage:
    python3 perfbench/probe.py REPORT.json SAMPLE_STRIDE -- <netspectra CLI args>

The hooks wrap the package's public functions from outside the package: each
call opens a span, and a layer's self time is its spans' durations minus the
time covered by hooked callees. A hook is resolved by module and name and
patched at every module attribute that holds the function, because callers
look functions up in their own module namespace (``degree_stats`` is bound
separately in ``netspectra.metrics`` and ``netspectra.spectral``). A hook whose
name no longer resolves is reported as absent instead of failing the run.

With SAMPLE_STRIDE > 0, every SAMPLE_STRIDE-th snapshot is captured and,
after the CLI has returned, checked: the radius it implies (lambda_ratio
times the mean degree) against a dense ``numpy.linalg.eigvalsh`` oracle and
the bracket sqrt(<k^2>) <= lambda <= k_max, and its cv against the degree
sequence. Capture uses the unwrapped edge iterator so counts are the same
with and without sampling.

The report is JSON: import time, per-layer self seconds and calls, counters,
oracle results and the seconds they took (so a caller timing this process can
leave them out), absent hooks, the CLI exit code and the module path.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

# Layer name -> the (module, qualified name) hooks whose calls it owns.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "cli": [("netspectra.cli", "main")],
    "experiment": [
        ("netspectra.experiment", "run_ba_condition"),
        ("netspectra.experiment", "run_ws_condition"),
        ("netspectra.experiment", "run_ba_series"),
        ("netspectra.experiment", "run_ws_series"),
    ],
    "metrics.snapshot": [("netspectra.metrics", "snapshot")],
    "metrics.aggregate": [
        ("netspectra.metrics", "average_runs"),
        ("netspectra.metrics", "summarize_final"),
    ],
    "spectral.ratio": [("netspectra.spectral", "spectral_radius_ratio")],
    "spectral.solve": [("netspectra.spectral", "power_iteration")],
    "graph.edges": [("netspectra.graph", "Graph.edges")],
    "graph.degree_stats": [("netspectra.graph", "degree_stats")],
    "ba.select_targets": [("netspectra.ba", "select_targets")],
    "ba.evolve": [("netspectra.ba", "ba_evolve"), ("netspectra.ba", "ba_initialize")],
    "ws.rewire": [("netspectra.ws", "ws_rewire"), ("netspectra.ws", "ws_initialize")],
}

# Oracle pass/fail: relative to the radius. Deliberately much looser than the
# solver's configured tolerance; the measured error is reported unclipped so a
# gap between the two stays visible.
ORACLE_RTOL = 1e-6


class Tracer:
    """Span bookkeeping: self seconds and call counts per layer, plus counters."""

    def __init__(self, sample_stride: int) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.iterations_max = 0
        self.sample_stride = sample_stride
        self.samples: list[tuple[int, list[tuple[int, int]], list[int], object]] = []
        self.raw_edges = None  # the unwrapped Graph.edges, for sampling
        self._child_s: list[float] = []  # time covered by callees, one per open span

    def wrap(self, layer: str, fn, observe=None):
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            solves_before = self.calls["spectral.solve"]
            start = perf()
            self._child_s.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, types.GeneratorType):
                    # A lazy result does its work in the caller's loop; drain it
                    # here so that work is charged to this span.
                    result = iter(list(result))
            finally:
                elapsed = perf() - start
                self.self_s[layer] += elapsed - self._child_s.pop()
                self.calls[layer] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
            if observe is not None:
                observe(result, args, solves_before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # Observers run after the span closes; their cost is tracing overhead.

    def observe_solve(self, result, args, solves_before) -> None:
        g = args[0]
        self.counts["spectral.iterations"] += result.iterations
        self.counts["spectral.edge_visits"] += result.iterations * g.edge_count
        self.counts["spectral.shifted"] += int(result.shifted)
        self.iterations_max = max(self.iterations_max, result.iterations)

    def observe_snapshot(self, record, args, solves_before) -> None:
        stride = self.sample_stride
        if stride and self.raw_edges and self.calls["metrics.snapshot"] % stride == 0:
            g = args[0]
            self.samples.append((g.node_count, list(self.raw_edges(g)), g.degrees(), record))

    def observe_ratio(self, result, args, solves_before) -> None:
        if self.calls["spectral.solve"] == solves_before:
            self.counts["spectral.regular_shortcuts"] += 1

    def observe_rewire(self, events, args, solves_before) -> None:
        skipped = sum(1 for e in events if e.new_edge is None)
        self.counts["ws.rewires"] += len(events) - skipped
        self.counts["ws.skipped"] += skipped


def _resolve(module_name: str, qualname: str):
    """Return (owner, attribute, function) for a hook, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except AttributeError:
        return None


def install(tracer: Tracer) -> tuple[set[str], list[str]]:
    """Patch every hook in LAYERS; return the layers with at least one hook
    in place and the hooks that did not resolve."""
    observers = {
        "power_iteration": tracer.observe_solve,
        "snapshot": tracer.observe_snapshot,
        "spectral_radius_ratio": tracer.observe_ratio,
        "ws_rewire": tracer.observe_rewire,
    }
    present = set()
    absent = []
    for layer, hooks in LAYERS.items():
        for module_name, qualname in hooks:
            found = _resolve(module_name, qualname)
            if found is None:
                absent.append(f"{module_name}.{qualname}")
                continue
            present.add(layer)
            owner, attr, fn = found
            wrapped = tracer.wrap(layer, fn, observers.get(attr))
            if qualname == "Graph.edges":
                tracer.raw_edges = fn
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            # Rebind at every name a caller may look the function up by.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "netspectra" and not mod_name.startswith("netspectra."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapped)
    return present, absent


def check_samples(samples) -> tuple[float, int]:
    """Oracle error max and the number of samples outside tolerance or bracket."""
    import numpy as np

    err_max = 0.0
    bad = 0
    for n, edges, degrees, record in samples:
        a = np.zeros((n, n))
        if edges:
            us, vs = np.asarray(edges).T
            a[us, vs] = 1.0
            a[vs, us] = 1.0
        oracle = float(np.linalg.eigvalsh(a)[-1])
        k = np.asarray(degrees, dtype=np.float64)
        k_avg = float(k.mean())
        radius = record.lambda_ratio * k_avg
        err = abs(radius - oracle)
        err_max = max(err_max, err)
        slack = ORACLE_RTOL * max(1.0, oracle)
        lower = math.sqrt(float(np.mean(k * k)))
        cv = float(k.std()) / k_avg
        if (
            err > slack
            or not lower - slack <= radius <= float(k.max()) + slack
            or abs(record.cv - cv) > 1e-12 * max(1.0, cv)
        ):
            bad += 1
    return err_max, bad


def main(argv: list[str]) -> int:
    report_path, stride, sep, *cli_args = argv
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    import netspectra.cli  # noqa: F401  (timed: interpreter ready to run)

    import_s = time.perf_counter() - start
    tracer = Tracer(int(stride))
    present, absent = install(tracer)
    cli_main = getattr(sys.modules["netspectra.cli"], "main", None)
    if cli_main is None:
        print("netspectra.cli.main is missing", file=sys.stderr)
        return 2
    code = cli_main(cli_args)
    oracle_start = time.perf_counter()
    err_max, bad = check_samples(tracer.samples)
    oracle_s = time.perf_counter() - oracle_start
    import numpy

    report = {
        "exit_code": code,
        "module_file": netspectra.cli.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "import_s": import_s,
        "absent_hooks": absent,
        "layers": {
            layer: {"self_s": tracer.self_s[layer], "calls": tracer.calls[layer]}
            for layer in LAYERS
            if layer in present
        },
        "counts": dict(tracer.counts),
        "iterations_max": tracer.iterations_max,
        "oracle": {
            "samples": len(tracer.samples),
            "err_max": err_max,
            "bad": bad,
            "seconds": oracle_s,
        },
    }
    Path(report_path).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
