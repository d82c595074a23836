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

GOLDEN = {
    "ba --total 60 --links 2 --runs 3 --seed 11": {
        "ba_summary.json": "5f1b0c6dfef586841f6d2b8d6df33a674b39b709e071dbe6e40d5f61017311a4",
        "ba_timeseries.csv": "926a2174ed7420c00c43f28ff3760648bbcc0cbb6c585bb003aa8b09de165f6a",
    },
    "ws --ring 20 --beta 0.5 --runs 3 --seed 12": {
        "ws_summary.json": "b399a26955f3021463cc5b6d2825ff16d766f932277f81fc0e1940fe349a5328",
        "ws_timeseries.csv": "5359e26c264c4ce324abc4d8a48edbbea042fb3446b882a873993e086c2a5b6d",
    },
    "sweep --model ba --values 2,5 --initial 3 --total 60 --runs 3 --seed 13": {
        "sweep_ba.csv": "319fbe19652e24cd5fa9305714c36703f9236771f8d289dec1cb03e511f0dd66",
        "sweep_ba_summary.json": "975afc28b4616402780f09d3987ef004cf84929f164dadb433dcd92a25677b36",
    },
    "sweep --model ws --values 0,0.5,1.0 --ring 20 --runs 3 --seed 14": {
        "sweep_ws.csv": "b1f541c44bfaad408952b1d9a4be1a907aa4e4faab8227e50b73158a04949a84",
        "sweep_ws_summary.json": "42660be8824998cfc82194215689bce99df472727b56fe728e9bda16764ff23e",
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
