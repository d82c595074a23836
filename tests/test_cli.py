import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from netspectra import Graph, GraphError, parse_edge_list, snapshot, write_edge_list
from netspectra import cli
from netspectra.cli import main

from helpers import nearly_bipartite, path_graph, star_graph


def write_graph(tmp_path, g, name="graph.txt"):
    p = tmp_path / name
    p.write_text(write_edge_list(g))
    return p


def get_field(out, label):
    for line in out.splitlines():
        if line.startswith(label + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no line {label!r} in output:\n{out}")


def csv_ratio(path):
    """The lambda_ratio cell a time series CSV would hold for the graph in
    ``path``: the shortest decimal that round-trips the snapshot's ratio."""
    return repr(snapshot(parse_edge_list(path.read_text()), 0).lambda_ratio)


def test_analyze_star(tmp_path, capsys):
    path = write_graph(tmp_path, star_graph(5))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert get_field(out, "nodes") == "5"
    assert get_field(out, "edges") == "4"
    assert float(get_field(out, "spectral radius")) == pytest.approx(2.0, abs=1e-8)
    assert float(get_field(out, "lambda ratio")) == pytest.approx(1.25, abs=1e-8)
    assert float(get_field(out, "degree cv")) == pytest.approx(0.75)
    assert get_field(out, "shifted") == "no"
    assert get_field(out, "lambda ratio") == csv_ratio(path)


def test_analyze_star_converges_on_a_small_budget(tmp_path, capsys):
    # Below a budget of 16 the solve takes single multiplies, and the star
    # converges after two of them.
    path = write_graph(tmp_path, star_graph(5))
    assert main(["analyze", str(path), "--max-iterations", "5"]) == 0
    out = capsys.readouterr().out
    assert get_field(out, "iterations") == "2"
    assert get_field(out, "shifted") == "no"
    assert float(get_field(out, "spectral radius")) == 2.0


def test_analyze_regular_graph_reports_unit_ratio(tmp_path, capsys):
    g = Graph(4)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        g.add_edge(u, v)
    path = write_graph(tmp_path, g)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert get_field(out, "lambda ratio") == "1.0" == csv_ratio(path)


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe0 1\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {path}: ")
    assert len(err.splitlines()) == 1


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n0 1 2\n")
    assert main(["analyze", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_analyze_self_loop_file(tmp_path, capsys):
    path = tmp_path / "loop.txt"
    path.write_text("0 0\n")
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n2 2\n", "line 2: self-loop 2-2"),
        ("0 1\n1 0\n", "line 2: duplicate edge 1-0"),
        # int() reads '1_0' as 10
        ("0 1\n1_0 2\n", "line 2: node IDs must be decimal integers: '1_0 2'"),
    ],
    ids=["self-loop", "duplicate", "underscore-id"],
)
def test_analyze_rejected_edge_reports_file_and_line(tmp_path, capsys, text, message):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1000000\n", "line 1: node ID exceeds the limit of 1000000 nodes: '0 1000000'"),
        ("# nodes: 99999999\n0 1\n", "line 1: node count exceeds the limit of 1000000"),
        # int() refuses strings of more than 4,300 digits
        ("# nodes: " + "9" * 5000 + "\n0 1\n", "line 1: node count exceeds the limit of 1000000"),
    ],
    ids=["id", "header", "header-5000-digits"],
)
def test_analyze_node_count_past_limit_exits_2_without_allocating(tmp_path, capsys, text, message):
    # A graph of a million nodes takes ~220 MB; the rejection must come
    # before any of it is allocated.
    path = tmp_path / "huge.txt"
    path.write_text(text)
    tracemalloc.start()
    try:
        code = main(["analyze", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {message}\n"
    assert peak < 1_000_000


def test_analyze_edgeless_graph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nodes: 3\n")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "undefined (no edges)" in out


def test_analyze_nonconvergence_exits_3(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(3))
    assert main(["analyze", str(path), "--max-iterations", "1"]) == 3
    captured = capsys.readouterr()
    assert "not converged" in captured.out
    assert "did not converge" in captured.err


def test_analyze_reports_shifted_retry(tmp_path, capsys):
    # plain iteration needs 92 multiplies on this graph, the +I retry 24
    path = write_graph(tmp_path, nearly_bipartite())
    assert main(["analyze", str(path), "--max-iterations", "32"]) == 0
    out = capsys.readouterr().out
    assert get_field(out, "shifted") == "yes"
    assert float(get_field(out, "spectral radius")) == pytest.approx(5.231013288266764, abs=1e-8)


def test_ba_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["ba", "--total", "30", "--links", "2", "--runs", "2", "--seed", "7",
         "--out", str(out_dir)]
    )
    assert code == 0
    csv_text = (out_dir / "ba_timeseries.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "step,node_count,edge_count,lambda_ratio,cv"
    assert len(lines) == 1 + 28  # steps 2..29
    assert lines[1].split(",")[0] == "2"

    summary = json.loads((out_dir / "ba_summary.json").read_text())
    assert summary["model"] == "ba"
    assert summary["config"] == {
        "initial_nodes": 3, "total_nodes": 30, "links_per_node": 2,
    }
    assert summary["runs"] == 2
    assert summary["master_seed"] == 7
    assert summary["rng"] == "numpy-PCG64"
    assert summary["power"]["tolerance"] == 1e-10
    assert summary["results"]["mean_lambda_ratio"] > 1.0
    assert 0.9 <= summary["results"]["mean_correlation"] <= 1.0


def test_ba_deterministic_across_invocations(tmp_path):
    args = ["ba", "--total", "25", "--links", "2", "--runs", "2", "--seed", "5"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(dir_a)]) == 0
    assert main(args + ["--out", str(dir_b)]) == 0
    for name in ("ba_timeseries.csv", "ba_summary.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_ws_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["ws", "--ring", "10", "--beta", "0.5", "--runs", "2", "--seed", "3",
         "--out", str(out_dir)]
    )
    assert code == 0
    lines = (out_dir / "ws_timeseries.csv").read_text().splitlines()
    assert lines[0] == "step,node_count,edge_count,lambda_ratio,cv"
    # first data row is the pristine lattice
    assert lines[1] == "0,20,40,1.0,0.0"

    summary = json.loads((out_dir / "ws_summary.json").read_text())
    assert summary["model"] == "ws"
    assert summary["config"] == {"nodes_per_ring": 10, "rewiring_probability": 0.5}
    assert summary["results"]["mean_lambda_ratio"] > 1.0


def test_ws_beta_zero_summary(tmp_path):
    out_dir = tmp_path / "out"
    code = main(
        ["ws", "--ring", "8", "--beta", "0", "--runs", "3", "--seed", "1",
         "--out", str(out_dir)]
    )
    assert code == 0
    summary = json.loads((out_dir / "ws_summary.json").read_text())
    assert summary["results"]["mean_lambda_ratio"] == 1.0
    assert summary["results"]["mean_cv"] == 0.0
    assert summary["results"]["mean_correlation"] is None
    lines = (out_dir / "ws_timeseries.csv").read_text().splitlines()
    assert lines[1:] == ["0,16,32,1.0,0.0"]


def test_sweep_ba(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["sweep", "--model", "ba", "--values", "2,3", "--initial", "3",
         "--total", "25", "--runs", "2", "--seed", "5", "--out", str(out_dir)]
    )
    assert code == 0
    lines = (out_dir / "sweep_ba.csv").read_text().splitlines()
    assert lines[0] == "param,mean_lambda_ratio,mean_cv,mean_correlation,runs"
    assert len(lines) == 3
    assert lines[1].startswith("2.0,")
    assert lines[2].startswith("3.0,")

    summary = json.loads((out_dir / "sweep_ba_summary.json").read_text())
    assert [row["param"] for row in summary["rows"]] == [2.0, 3.0]
    assert summary["sweep"] == [2.0, 3.0]
    assert summary["master_seed"] == 5


def test_sweep_ws_zero_beta_has_empty_correlation(tmp_path):
    out_dir = tmp_path / "out"
    code = main(
        ["sweep", "--model", "ws", "--values", "0.0,1.0", "--ring", "8",
         "--runs", "2", "--seed", "5", "--out", str(out_dir)]
    )
    assert code == 0
    lines = (out_dir / "sweep_ws.csv").read_text().splitlines()
    assert lines[1] == "0.0,1.0,0.0,,2"
    summary = json.loads((out_dir / "sweep_ws_summary.json").read_text())
    assert summary["rows"][0]["mean_correlation"] is None


def test_usage_errors_exit_1(tmp_path, capsys):
    # argparse-level: missing required flag
    with pytest.raises(SystemExit) as exc:
        main(["ba", "--links", "2"])
    assert exc.value.code == 1
    # argparse-level: no subcommand
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    # config-level: values out of range
    assert main(["ws", "--ring", "8", "--beta", "1.5", "--seed", "1"]) == 1
    assert main(["ba", "--total", "2", "--links", "1", "--initial", "3", "--seed", "1"]) == 1
    assert main(["ba", "--total", "10", "--links", "2", "--runs", "0", "--seed", "1"]) == 1
    # sweep-level: unusable values
    capsys.readouterr()
    assert main(["sweep", "--model", "ba", "--values", "x,y", "--initial", "3",
                 "--total", "10", "--seed", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: --values must be comma-separated numbers, got 'x'\n"
    )
    assert main(["sweep", "--model", "ws", "--values", "0.5", "--seed", "1"]) == 1
    assert main(["sweep", "--model", "ba", "--values", "2.5", "--initial", "3",
                 "--total", "10", "--seed", "1", "--out", str(tmp_path)]) == 1
    # sweep-level: a flag of the other model is refused, not dropped
    capsys.readouterr()
    assert main(["sweep", "--model", "ws", "--values", "0.5", "--ring", "8", "--initial", "3",
                 "--total", "50", "--seed", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: model 'ws' takes no --initial or --total\n"
    assert main(["sweep", "--model", "ws", "--values", "0.5", "--ring", "8", "--total", "50",
                 "--seed", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: model 'ws' takes no --initial or --total\n"
    assert main(["sweep", "--model", "ba", "--values", "2", "--initial", "3", "--total", "50",
                 "--ring", "8", "--seed", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: model 'ba' takes no --ring\n"
    assert list(tmp_path.iterdir()) == []


def test_graph_error_escaping_a_command_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise GraphError("edge 0-1 not present")

    monkeypatch.setattr(cli, "run_ba_condition", refuse)
    assert main([*BA_SMALL, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: edge 0-1 not present\n"
    assert list(tmp_path.iterdir()) == []


def test_generated_seed_not_printed_for_a_failed_check(tmp_path, capsys):
    assert main(["ba", "--total", "10", "--links", "2", "--runs", "0",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == ""


def test_generated_seed_is_printed(tmp_path, capsys):
    code = main(["ws", "--ring", "6", "--beta", "0", "--runs", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "master seed (generated):" in out
    seed = int(get_field(out, "master seed (generated)"))
    summary = json.loads((tmp_path / "ws_summary.json").read_text())
    assert summary["master_seed"] == seed


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "netspectra", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


WS_SMALL = ["ws", "--ring", "5", "--beta", "0.5", "--seed", "1", "--max-iterations", "50"]


@pytest.mark.parametrize(
    "args",
    [
        [*WS_SMALL, "--tolerance", "nan"],
        [*WS_SMALL, "--tolerance", "inf"],
        [*WS_SMALL, "--tolerance", "0"],
        [*WS_SMALL, "--tolerance", "-1"],
        ["analyze", "graph.txt", "--tolerance", "nan"],
        ["analyze", "graph.txt", "--max-iterations", "0"],
        ["ba", "--initial", "1", "--total", "10", "--links", "2", "--seed", "1"],
        ["ws", "--ring", "2", "--beta", "0.5", "--seed", "1"],
        ["sweep", "--model", "ws", "--ring", "2", "--values", "0.5", "--seed", "1"],
        # a double ring of 1,000,002 nodes, past the graph's 10**6-node limit
        ["ws", "--ring", "500001", "--beta", "0", "--runs", "1", "--seed", "1"],
        ["sweep", "--model", "ws", "--ring", "500001", "--values", "0", "--seed", "1"],
        # a 1,000,001-node seed graph, rejected before it is allocated
        ["ba", "--initial", "1000001", "--total", "1000001", "--links", "1", "--runs", "1",
         "--seed", "1"],
        ["ba", "--total", "10", "--links", "2", "--seed", "-5"],
        ["ws", "--ring", "5", "--beta", "0.5", "--seed", "-5"],
        ["sweep", "--model", "ba", "--initial", "3", "--total", "10", "--values", "inf",
         "--seed", "1"],
        # without --seed: every check runs before a seed is drawn and printed
        ["ba", "--initial", "1", "--total", "10", "--links", "2"],
        ["sweep", "--model", "ws", "--values", "0.5"],
        ["sweep", "--model", "ba", "--values", "2,x", "--initial", "3", "--total", "10"],
        ["sweep", "--model", "ba", "--values", "2.5", "--initial", "3", "--total", "10"],
    ],
    ids=lambda args: " ".join(args),
)
def test_bad_parameters_exit_1_with_one_line(tmp_path, args):
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert list(tmp_path.iterdir()) == []  # nothing written


BA_SMALL = ["ba", "--total", "10", "--links", "2", "--seed", "1"]
WS_TINY = ["ws", "--ring", "5", "--beta", "0.5", "--seed", "1"]


@pytest.mark.parametrize("command", [BA_SMALL, WS_TINY], ids=["ba", "ws"])
@pytest.mark.parametrize("out", ["afile", "afile/x"])
def test_out_naming_a_file_exits_1_with_one_line(tmp_path, command, out):
    (tmp_path / "afile").write_text("keep me\n")
    proc = run_cli([*command, "--out", out], tmp_path)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: cannot write ")
    assert (tmp_path / "afile").read_text() == "keep me\n"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    (tmp_path / "ba_summary.json").mkdir()
    assert main([*BA_SMALL, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ba_summary.json", "ba_timeseries.csv"]
    assert (tmp_path / "ba_summary.json").is_dir()


def test_outputs_replace_existing_files(tmp_path):
    (tmp_path / "ws_summary.json").write_text("stale\n")
    assert main([*WS_TINY, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "ws_summary.json").read_text())
    assert summary["master_seed"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ws_summary.json", "ws_timeseries.csv"]

