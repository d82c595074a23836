"""Property tests: edge-list round trips, the graph's count of edge
components, the CLI's exit-code contract, the solver's radius on graphs small
enough for its dense steps and its use of small budgets."""

import contextlib
import io
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from netspectra import (  # noqa: E402
    Graph,
    NotConvergedError,
    PowerIterationConfig,
    parse_edge_list,
    power_iteration,
    write_edge_list,
)
from netspectra.cli import main  # noqa: E402

from helpers import adjacency_matrix, edge_components_by_search, erdos_renyi  # noqa: E402


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n)
    for u, v in edges:
        if draw(st.booleans()):
            u, v = v, u
        g.add_edge(u, v)
    return g


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_edge_list_round_trip(g):
    text = write_edge_list(g)
    parsed = parse_edge_list(text)
    assert parsed == g
    assert parsed.node_count == g.node_count
    assert parsed.edge_count == g.edge_count
    assert write_edge_list(parsed) == text


@settings(max_examples=60, deadline=None)
@given(graphs(), st.randoms(use_true_random=False), st.lists(st.sampled_from(["", "# note", "  "])))
def test_edge_order_comments_and_blank_lines_do_not_matter(g, random, extra):
    header, *body = write_edge_list(g).splitlines()
    lines = body + extra
    random.shuffle(lines)
    assert parse_edge_list("\n".join([header, *lines])) == g


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60))
def test_component_count_is_exact_after_every_mutation(n, ops):
    # each pair toggles its edge: removals split and end components,
    # additions start, extend and merge them
    g = Graph(n)
    for u, v in ops:
        u, v = u % n, v % n
        if u == v:
            continue
        if g.has_edge(u, v):
            g.remove_edge(u, v)
        else:
            g.add_edge(u, v)
        assert g._parts == edge_components_by_search(g)
        assert g.connected() == (g._parts <= 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 128),
    st.floats(0.0, 1.0) | st.just(1.0),
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
)
@example(n=12, p=1.0, seed=0, budget=40)  # K12: M8 is not exact, M4 steps
@example(n=10, p=1.0, seed=0, budget=40)  # K10: M8 steps
@example(n=128, p=0.9, seed=1, budget=11)  # single multiplies: converges in 6
@example(n=128, p=0.9, seed=1, budget=16)  # M4 steps: converges in 12
def test_radius_on_dense_kernel_graphs(n, p, seed, budget):
    # Up to 128 nodes every solve with a budget of 16 or more steps with a
    # dense kernel; dense graphs have walk counts past 2**24 and so step with
    # M4 instead of M8. Below a budget of 16 a solve takes single sparse
    # multiplies. A solve never changes kernel, so a failing one stops at the
    # last multiple of its step within the budget.
    g = erdos_renyi(n, p, np.random.default_rng(seed))
    try:
        result = power_iteration(g, PowerIterationConfig(max_iterations=budget))
    except NotConvergedError as exc:
        a8 = np.linalg.matrix_power(adjacency_matrix(g).astype(np.int64), 8)
        step = (8 if a8.max() < 2**24 else 4) if budget >= 16 else 1
        assert exc.result.iterations <= budget
        assert exc.result.iterations == budget - budget % step
        return
    assert result.iterations <= budget
    radius = result.spectral_radius
    expected = np.linalg.eigvalsh(adjacency_matrix(g))[-1]
    assert radius == pytest.approx(expected, rel=1e-9, abs=1e-12)
    # Hofmeister's bracket: sqrt(<k**2>) <= radius <= k_max
    degrees = g.degree_array().astype(float)
    assert math.sqrt(np.mean(degrees**2)) <= radius + 1e-12
    assert radius <= degrees.max() + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(5, 130),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
)
@example(n=10, p=1.0, seed=0, budget=12)  # K10: one M8 step would fit
@example(n=128, p=0.9, seed=1, budget=5)  # one M4 step would fit
def test_every_budget_from_two_compares_two_estimates(n, p, seed, budget):
    # A budget of 2 or more holds two estimates on every kernel: two single
    # multiplies below a budget of 16, two dense steps of 8 or 4 from 16. So
    # a solve either converges or fails after its plain attempt compared
    # two estimates, leaving a finite residual.
    g = erdos_renyi(n, p, np.random.default_rng(seed))
    try:
        result = power_iteration(g, PowerIterationConfig(max_iterations=budget))
    except NotConvergedError as exc:
        assert math.isfinite(exc.result.residual)
        return
    assert result.converged


def run_main(argv):
    """``main(argv)`` with stdout and stderr captured; returns (code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_contract(code, err, failure_codes):
    if code == 0:
        assert err == ""
    else:
        assert code in failure_codes
        assert len(err.splitlines()) == 1, err
        assert "Traceback" not in err


@st.composite
def edge_list_bytes(draw):
    """A graph's edge list, shuffled, with at most one line damaged; or bytes
    that are not UTF-8."""
    if draw(st.integers(0, 9)) == 0:
        return b"\xff" + draw(st.binary(max_size=16))
    lines = write_edge_list(draw(graphs())).splitlines()
    if lines[1:] and draw(st.booleans()):
        lines.pop(0)  # no header: the node count is inferred
    lines = draw(st.permutations(lines))
    if draw(st.booleans()):
        # IDs stay small, because an ID or a '# nodes:' header sizes the graph
        node_id = st.integers(-2, 14).map(str) | st.sampled_from(["x", "1.5", "007", "-0"])
        bad = draw(
            st.tuples(node_id, node_id).map(" ".join)
            | st.lists(node_id, min_size=1, max_size=3).map("\t".join)
            | st.integers(0, 14).map(lambda n: f"# nodes: {n}")
            | st.sampled_from(["# comment", "", "#nodes:3", "# nodes: x"])
        )
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines).encode()


@settings(max_examples=80, deadline=None)
@given(edge_list_bytes(), st.none() | st.integers(0, 40))
def test_analyze_exit_code_contract(content, max_iterations):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.txt"
        path.write_bytes(content)
        argv = ["analyze", str(path)]
        if max_iterations is not None:
            argv.append(f"--max-iterations={max_iterations}")
        code, err = run_main(argv)
    # 1: bad --max-iterations; 2: unreadable or malformed file; 3: no convergence
    assert_contract(code, err, {1, 2, 3})
    if code == 2:
        assert err.startswith(f"{path}: ") or err.startswith(f"cannot read {path}: ")


UNIT = st.floats(0.0, 1.0)
NOT_UNIT = st.floats(allow_nan=True, allow_infinity=True).filter(lambda x: not 0.0 <= x <= 1.0)
# flag -> (values in range, values out of range)
EXPERIMENT_FLAGS = {
    "ba": {
        "--initial": (st.integers(2, 5), st.integers(-1, 1)),
        "--total": (st.integers(5, 14), st.integers(-2, 1)),
        "--links": (st.integers(1, 4), st.integers(-1, 0)),
    },
    "ws": {
        "--ring": (st.integers(3, 8), st.integers(-1, 2)),
        "--beta": (UNIT, NOT_UNIT),
    },
    "sweep": {
        "--model": (st.sampled_from(["ba", "ws"]), st.nothing()),
        "--values": (
            st.lists(st.sampled_from(["0", "1", "1.0"]), min_size=1, max_size=3).map(",".join),
            st.lists(st.integers(-1, 4) | NOT_UNIT | UNIT, max_size=3).map(
                lambda vs: ",".join(map(str, vs))
            ),
        ),
        "--initial": (st.integers(2, 5), st.integers(-1, 1)),
        "--total": (st.integers(5, 14), st.integers(-2, 1)),
        "--ring": (st.integers(3, 8), st.integers(-1, 2)),
    },
}
COMMON_FLAGS = {
    "--runs": (st.integers(1, 2), st.integers(-1, 0)),
    "--seed": (st.integers(0, 2**70), st.integers(-3, -1)),
    "--tolerance": (
        st.sampled_from([1e-10, 1e-6, 0.5]),
        st.sampled_from([0.0, -1.0, math.nan, math.inf]),
    ),
    "--max-iterations": (st.integers(1, 40), st.integers(-1, 0)),
}
# Flags argparse insists on, and those a sweep needs for either model; the
# rest may be left out.
REQUIRED = {
    "ba": {"--total", "--links"},
    "ws": {"--ring", "--beta"},
    "sweep": {"--model", "--values", "--initial", "--total", "--ring"},
}


@st.composite
def experiment_argv(draw):
    """An experiment command with every value in range but at most one."""
    command = draw(st.sampled_from(sorted(EXPERIMENT_FLAGS)))
    flags = {**EXPERIMENT_FLAGS[command], **COMMON_FLAGS}
    present = [f for f in flags if f in REQUIRED[command] or draw(st.booleans())]
    broken = draw(st.none() | st.sampled_from([f for f in present if f != "--model"]))
    argv = [command]
    for flag in present:
        valid, invalid = flags[flag]
        # --flag=value, so that argparse reads a value such as -inf as a value
        argv.append(f"{flag}={draw(invalid if flag == broken else valid)}")
    return argv


@settings(max_examples=80, deadline=None)
@given(experiment_argv())
def test_experiment_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, err = run_main([*argv, f"--out={out}"])
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    # 1: a parameter out of range; 3: no convergence within --max-iterations
    assert_contract(code, err, {1, 3})
    if code == 0:
        assert len(written) == 2
    else:
        assert err.startswith("error: ")
        assert written == []
