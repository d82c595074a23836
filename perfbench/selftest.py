"""Quick self-test of the benchmark; exits 0 when every check passes.

Usage (from the root of a source checkout):
    python3 perfbench/selftest.py

Checks that BENCHMARK.json and perfbench/run.py agree on workloads, metric
names and units; that a short run of one workload prints, as its last line,
every end-to-end metric (``--trace 0``) and every per-layer metric
(``--trace 1``) with its unit, and nothing else; and that a directory holding
only BENCHMARK.json and perfbench/ makes the benchmark fail without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

QUICK_WORKLOAD = "ws-rewire"


def check(ok: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", QUICK_WORKLOAD,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    failures: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS", failures)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(declared[0] == run.END_TO_END, "end-to-end names and units match", failures)
    check(declared[1] == {n: u for n, (u, _) in run.PER_LAYER.items()},
          "per-layer names and units match", failures)

    for trace in (0, 1):
        proc = bench(ROOT, trace)
        check(proc.returncode == 0, f"--trace {trace} exits 0 ({proc.stderr[-300:]!r})", failures)
        if proc.returncode != 0:
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"--trace {trace} result has exactly the four keys", failures)
        check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
              f"--trace {trace} run is correct with no failures", failures)
        metrics = result["metrics"]
        check(sorted(metrics) == sorted(declared[trace]),
              f"--trace {trace} prints every declared metric and no other", failures)
        for name, entry in metrics.items():
            value = entry.get("value")
            check(entry.get("unit") == declared[trace].get(name)
                  and isinstance(value, (int, float)) and math.isfinite(value),
                  f"{name} = {value} {entry.get('unit')}", failures)

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, 0)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "a directory without the sources fails without a result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
