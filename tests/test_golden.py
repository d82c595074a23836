"""Byte-identity gate for the experiment commands.

Each command runs in-process and every file it writes is compared, by
SHA-256, with the digest recorded for it. A refactor must leave these bytes
alone; a change that moves numerics on purpose updates the digests and says
so in CHANGES.md.
"""

import hashlib

import pytest

from netspectra.cli import main

GOLDEN = {
    "ba --total 60 --links 2 --runs 3 --seed 11": {
        "ba_timeseries.csv": "cfd84e7581304d27e316dee48b6b2b42eb0154ee2744565cb72c817d7ae41904",
        "ba_summary.json": "381acedca878d2c803eff090ba26480d3060b29df7dff84c6844ffdcdc5ed596",
    },
    "ws --ring 20 --beta 0.5 --runs 3 --seed 12": {
        "ws_timeseries.csv": "fd8568f4d0d577ca52fecd534c4590e20b1305e5443f552ebaa2a54a57db01f0",
        "ws_summary.json": "9b017cf5e739650a8229d78af77ff86377c66d3c1dfcbfe824b6395c14d63529",
    },
    "sweep --model ba --values 2,5 --initial 3 --total 60 --runs 3 --seed 13": {
        "sweep_ba.csv": "52722cb6df551d841794a40b6f19b445f772095f7d429dc82d3bf9493ffccc6c",
        "sweep_ba_summary.json": "dbb8e9b81e1ab95248df689588fefb3daab72fc2e788ebb51211d9036339c759",
    },
    "sweep --model ws --values 0,0.5,1.0 --ring 20 --runs 3 --seed 14": {
        "sweep_ws.csv": "3d381a297dc9da4ebcc87809586781810d649988bc2e64a6805e3853133cd96f",
        "sweep_ws_summary.json": "86ad8b96b4ee7c7b40b08d5685caee7bb5ebad424097ebbddb35bdbc63ad5d0d",
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_outputs_match_recorded_digests(tmp_path, command):
    assert main([*command.split(), "--out", str(tmp_path)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == GOLDEN[command]
