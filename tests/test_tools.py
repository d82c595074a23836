import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines_tool)

INIT = '''\
"""Package docstring
over two lines."""

# a comment

X = 1  # code with a trailing comment counts
'''

MOD = '''\
"""Module docstring."""

import os
"""Not a docstring: it follows code."""


class A:
    """Class docstring,
    two lines."""

    y = """a string value
over two lines"""

    def f(self):
        """Function docstring."""
        "a string statement after the docstring"
        return (
            1
        )


async def g():
    """Async function docstring."""

    # a comment inside
    return None
'''


def write_package(root: Path) -> None:
    sub = root / "pkg" / "sub"
    sub.mkdir(parents=True)
    (root / "pkg" / "__init__.py").write_text(INIT)
    (root / "pkg" / "empty.py").write_text("")
    (root / "pkg" / "notes.txt").write_text("x = 1\n")
    (sub / "mod.py").write_text(MOD)


def test_code_lines_skips_docstrings_comments_and_blanks():
    assert code_lines_tool.code_lines(INIT) == 1
    # import, the string after it, class, y's 2 lines, def, the string
    # statement, return's 3 lines, async def and its return
    assert code_lines_tool.code_lines(MOD) == 12
    assert code_lines_tool.code_lines("") == 0
    assert code_lines_tool.code_lines('"""Only a docstring."""\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path):
    write_package(tmp_path)
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines() == [
        "     1  pkg/__init__.py",
        "     0  pkg/empty.py",
        "    12  pkg/sub/mod.py",
        "    13  total",
    ]


def package_report(capsys) -> list[str]:
    """The lines ``tools/code_lines.py`` prints for the package sources."""
    assert code_lines_tool.main(["code_lines.py"]) == 0
    return capsys.readouterr().out.splitlines()


def count(line: str) -> int:
    return int(line.split()[0].replace(",", ""))


def test_code_lines_defaults_to_the_package_sources(capsys):
    lines = package_report(capsys)
    assert any(line.endswith("  netspectra/spectral.py") for line in lines)
    assert lines[-1].endswith("  total")
    assert count(lines[-1]) == sum(count(line) for line in lines[:-1])


def test_package_sources_stay_within_1000_code_lines(capsys):
    # ROADMAP aim 2: the same numbers from the least code
    assert count(package_report(capsys)[-1]) <= 1_000


def test_src_imports_only_numpy_and_stdlib():
    # scipy, pytest and the like serve the tests and the benchmark only
    allowed = {"numpy", "netspectra"} | set(sys.stdlib_module_names)
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
