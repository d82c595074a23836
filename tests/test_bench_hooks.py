"""The benchmark probe's view of the package.

``perfbench/probe.py`` finds its layers by module and function name and
rebinds module globals to time them, so a function captured at import time
(in a closure default or a dict) escapes it. It also reads ``.new_edge`` from
``ws_rewire``'s events and ``.lambda_ratio``/``.cv`` from ``snapshot``'s
records. These tests run the probe on small invocations from this checkout
and check that every layer is hooked, every step is counted and the sampled
snapshots agree with its dense eigenvalue oracle.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import package_env

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "perfbench" / "probe.py"
SRC = ROOT / "src"

# Hooks the package no longer defines; their layers stay hooked through the
# condition functions.
RETIRED_HOOKS = {
    "netspectra.experiment.run_ba_series",
    "netspectra.experiment.run_ws_series",
}


def probe_layers():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def run_probe(tmp_path, cli_args):
    report_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(report_path), "1", "--", *cli_args,
         "--out", str(tmp_path / "out")],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    assert report["exit_code"] == 0
    assert Path(report["module_file"]).resolve().is_relative_to(SRC.resolve())
    assert set(probe_layers()) <= set(report["layers"])
    assert set(report["absent_hooks"]) <= RETIRED_HOOKS
    assert report["oracle"]["samples"] > 0
    assert report["oracle"]["bad"] == 0
    # Each snapshot takes its degree statistics once and then either solves
    # or takes the regular-graph shortcut; a hooked function that a caller
    # reaches without going through its module global drops out of these.
    layers, counts = report["layers"], report["counts"]
    snapshots = layers["metrics.snapshot"]["calls"]
    assert layers["graph.degree_stats"]["calls"] == snapshots
    solves = layers["spectral.solve"]["calls"]
    assert solves + counts.get("spectral.regular_shortcuts", 0) == snapshots
    return report


def test_probe_hooks_every_layer_on_growth(tmp_path):
    report = run_probe(
        tmp_path, ["ba", "--total", "30", "--links", "2", "--runs", "2", "--seed", "3"]
    )
    # initial nodes default to 3: the seed graph plus 27 arrivals per run
    assert report["layers"]["metrics.snapshot"]["calls"] == 2 * (30 - 3 + 1)


@pytest.mark.parametrize("beta", ["0.5", "0"])
def test_probe_hooks_every_layer_on_rewiring(tmp_path, beta):
    report = run_probe(
        tmp_path, ["ws", "--ring", "6", "--beta", beta, "--runs", "2", "--seed", "1"]
    )
    # the pristine lattice plus one snapshot per completed rewire, per run
    rewires = report["counts"].get("ws.rewires", 0)
    assert report["layers"]["metrics.snapshot"]["calls"] == 2 + rewires
