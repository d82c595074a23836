"""Byte-identity gate for the experiment commands and ``analyze``.

Each command runs in-process and every file it writes, or for ``analyze``
its stdout, is compared, by SHA-256, with the digest recorded for it. A
refactor must leave these bytes alone; a change that moves numerics on
purpose updates the digests and says so in CHANGES.md. A mismatch prints the
command's new entry in the format of ``GOLDEN``, ready to paste over the old
one.
"""

import hashlib
import json
import platform
import subprocess
import sys

import numpy as np
import pytest

from netspectra import BAConfig, ba_evolve
from netspectra.cli import main

from helpers import package_env, write_edge_list

# Which solver kernel each command gates: every solve of the first four
# commands is on at most 128 nodes, where steps multiply by the dense M8 =
# A**8 whenever it is exact in float32 (all solves of the m = 2 BA and the
# WS commands). The m = 5 condition of the BA sweep is the one that falls
# back to M4 = A**4 (105 of its 343 solves), and the last command grows past
# 128 nodes onto the sparse kernel (64 of its 316 solves).
GOLDEN = {
    "ba --total 60 --links 2 --runs 3 --seed 11": {
        "ba_summary.json": "b290a9e1d2dad1fd2b87718ec143830af6e9953c5b5ba30b18c67a302ae28967",
        "ba_timeseries.csv": "4e54cb054b59cdfdd132e1199c8e991d57504cec5b9ce42510c3d68396585d48",
    },
    "ws --ring 20 --beta 0.5 --runs 3 --seed 12": {
        "ws_summary.json": "6237c60c6d94601692d6dd5ee43dbf3e812a3d1534d9969562ae7fb70e16ce8b",
        "ws_timeseries.csv": "5f534f4b1ad586ff03f58c7d4f2ab6c86cd63ebb5086b763dce8888bee37e5b0",
    },
    "sweep --model ba --values 2,5 --initial 3 --total 60 --runs 3 --seed 13": {
        "sweep_ba.csv": "be27b4551bcf872650a088d6da36f1201ea90222043bb95848fc55a9c988759a",
        "sweep_ba_summary.json": "dc47b5ee4b71bb260924dc63c8270588643bb1bf9fa8de3f7c5a2f343e7608a9",
    },
    "sweep --model ws --values 0,0.5,1.0 --ring 20 --runs 3 --seed 14": {
        "sweep_ws.csv": "aa50f2c6e0d725132c3c56cf588bc4902f38c459fb3dcb9236f72b1fac10ab6e",
        "sweep_ws_summary.json": "476d0b05aec73817afff0844755af0c903c4ef4491d02adba6f375e2ff202e0b",
    },
    "ba --initial 3 --total 160 --links 2 --runs 2 --seed 21": {
        "ba_summary.json": "85ff3d1f747d45493f85f71eef9a627b116c1b0c0d5aa5606ac1fb164c5533d2",
        "ba_timeseries.csv": "061a7905af9eb24b509a1a23686c4921d1b0916487e53848843e2f8d8b7e1979",
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_match_recorded_digests(tmp_path, command):
    assert main([*command.split(), "--out", str(tmp_path)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == GOLDEN[command], "digests differ; this command's entry is now:\n" + (
        _golden_entry(command, digests)
    )


def _golden_entry(command, digests):
    """``digests`` as ``command``'s entry in the ``GOLDEN`` literal above."""
    lines = [f'    "{command}": {{']
    lines += [f'        "{name}": "{digest}",' for name, digest in sorted(digests.items())]
    lines.append("    },")
    return "\n".join(lines)


# ``analyze`` on a 200-node BA graph saved by write_edge_list: parsing, the
# graph it builds and a cold solve on the sparse kernel. The input's own
# digest tells a change in the BA draws apart from one in ``analyze``.
ANALYZE_INPUT = "eafadcc88c69dc482d9dd571ac62d29699cda87456adb8eab7208a9d2f5ff4da"
ANALYZE_STDOUT = "d52aa97b05381fac7de00d235b938c9a22c40c95e0577011275f86c4ac06130c"


def test_analyze_output_matches_recorded_digest(tmp_path, capsys):
    text = write_edge_list(ba_evolve(BAConfig(3, 200, 2), np.random.default_rng(15)))
    assert hashlib.sha256(text.encode()).hexdigest() == ANALYZE_INPUT
    path = tmp_path / "ba200.txt"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_STDOUT, out


# The digests hold for the BLAS kernel this host loads. OpenBLAS built with
# DYNAMIC_ARCH picks its kernel for the CPU at load time, and another kernel
# may round a float64 matrix-vector product, and so a solved radius, in its
# last bits. This test measures that spread instead of gating bytes: each
# listed kernel reruns the GOLDEN commands in a child process, every field
# that no radius feeds must come out exactly as on the default kernel, and
# the three that do within 1e-14.
KERNELS = ("Prescott", "Haswell")
RADIUS_FIELDS = {"lambda_ratio", "mean_lambda_ratio", "mean_correlation"}

_RUN_COMMANDS = """
import sys
from netspectra.cli import main
for i, command in enumerate(sys.argv[2:]):
    assert main([*command.split(), "--out", f"{sys.argv[1]}/{i}"]) == 0
"""


def _kernel_skip_reason(kernel):
    """Why OPENBLAS_CORETYPE cannot select ``kernel`` here, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return "OpenBLAS kernel names are x86-64's"
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return "numpy does not report its BLAS"
    if "openblas" not in config["Build Dependencies"]["blas"]["name"].lower():
        return "numpy's BLAS is not OpenBLAS"
    found = set(config["SIMD Extensions"]["found"])
    if kernel == "Haswell" and not found & {"AVX2", "X86_V3"}:
        return "the CPU lacks AVX2"
    return None


def _run_commands(out, kernel):
    """Run every GOLDEN command in one child process on OpenBLAS ``kernel``
    (None: the one it picks itself), writing into numbered subdirectories."""
    env = package_env()
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, str(out), *sorted(GOLDEN)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def _fields(path):
    """(name, value) of every CSV cell or JSON scalar in ``path``, in file
    order; a JSON list's items take the name of the key that holds it."""
    if path.suffix == ".csv":
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        return [pair for row in rows for pair in zip(header, row)]
    pairs = []

    def walk(name, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(key, item)
        elif isinstance(value, list):
            for item in value:
                walk(name, item)
        else:
            pairs.append((name, value))

    walk(None, json.loads(path.read_text()))
    return pairs


@pytest.fixture(scope="module")
def default_kernel_outputs(tmp_path_factory):
    return _run_commands(tmp_path_factory.mktemp("default"), None)


@pytest.mark.parametrize("kernel", KERNELS)
def test_other_blas_kernels_move_only_radius_fields(tmp_path, request, kernel):
    reason = _kernel_skip_reason(kernel)
    if reason:
        pytest.skip(reason)
    base_dir = request.getfixturevalue("default_kernel_outputs")
    _run_commands(tmp_path, kernel)
    files = sorted(p.relative_to(base_dir) for p in base_dir.rglob("*.*"))
    assert files == sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.*"))
    assert len(files) == 2 * len(GOLDEN)
    for name in files:
        base, other = _fields(base_dir / name), _fields(tmp_path / name)
        assert [field for field, _ in base] == [field for field, _ in other], name
        for (field, a), (_, b) in zip(base, other):
            if field in RADIUS_FIELDS and a not in (None, ""):
                assert abs(float(a) - float(b)) <= 1e-14, (name, field, a, b)
            else:
                assert a == b, (name, field, a, b)
