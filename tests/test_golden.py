"""Byte-identity gate for the experiment commands.

Each command runs in-process and every file it writes is compared, by
SHA-256, with the digest recorded for it. A refactor must leave these bytes
alone; a change that moves numerics on purpose updates the digests and says
so in CHANGES.md. A mismatch prints the command's new entry in the format of
``GOLDEN``, ready to paste over the old one.
"""

import hashlib

import pytest

from netspectra.cli import main

# Every command but the last stays at or below the solver's dense cutoff of
# 128 nodes; the last grows past it, so both kernels are gated.
GOLDEN = {
    "ba --total 60 --links 2 --runs 3 --seed 11": {
        "ba_summary.json": "b7a0675a24c6431655e34bbbba07740db74656ec4fa99ab8d3b275dd9f982898",
        "ba_timeseries.csv": "e0f6987cd86b2f7b2ccab07d02fc2869f26b44f037a83865c8554561ff83263e",
    },
    "ws --ring 20 --beta 0.5 --runs 3 --seed 12": {
        "ws_summary.json": "be2f711c965dcad9499a32351c220d4519143c3cb1d1f2e6cc6871a61f1160cf",
        "ws_timeseries.csv": "d587714be432f777da5e7dc1fc26cd7600425523e717a86879c4a7bf38d08ad4",
    },
    "sweep --model ba --values 2,5 --initial 3 --total 60 --runs 3 --seed 13": {
        "sweep_ba.csv": "eb0ef3e660a7e559c839f21ae03c0620f5b1ad4fbf3ab6ca497696fa381c5c2c",
        "sweep_ba_summary.json": "faf64e5fcd65d784e25176b28291cc31ae5cea82698f2cd63db5291aea1859c4",
    },
    "sweep --model ws --values 0,0.5,1.0 --ring 20 --runs 3 --seed 14": {
        "sweep_ws.csv": "0fcd80174c5b1eca52b93d1deb19663677c2d84c2a5ea4eb2cc3c1d7b2f2f6ef",
        "sweep_ws_summary.json": "f56063edd8cf20876a8c5e29dcd82218b2381199100ba4cd9a2a58f236a5f9cc",
    },
    "ba --initial 3 --total 160 --links 2 --runs 2 --seed 21": {
        "ba_summary.json": "c60d3c8bd0f935e291281c4b49e2b34a5d05b3bdfcd75e16d687c4e090881541",
        "ba_timeseries.csv": "521edd960ef8949cc10c6d68b44131a7b1bb638174e3cd4d7267e602a05b8ec8",
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
