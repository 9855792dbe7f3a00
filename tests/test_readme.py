"""The README's Python API example and command lines run against the package; its comments state true values."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from eprkit.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def api_block() -> str:
    match = re.search(r"## Python API\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert match, "README has no Python API block"
    return match.group(1)


def test_python_api_block_runs_and_its_comments_hold():
    block = api_block()
    namespace = {}
    shown = {}  # source of each bare expression -> its value
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README", "eval")
            shown[ast.get_source_segment(block, stmt.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module(body=[stmt], type_ignores=[]), "README", "exec"), namespace)

    comments = {}  # the code before each comment -> the comment
    for line in block.splitlines():
        if "#" in line:
            code, note = line.split("#", 1)
            comments[code.strip()] = note.strip()
    assert comments["report.branch_for(0.0).a1.mean"] == "0.6"
    assert shown["report.branch_for(0.0).a1.mean"] == pytest.approx(0.6, abs=1e-12)
    assert comments["report.chain_for(0.0, 1.0).a2_predicted"] == "-1.0, with zero spread"
    assert shown["report.chain_for(0.0, 1.0).a2_predicted"] == pytest.approx(-1.0, abs=1e-12)
    assert namespace["report"].chain_for(0.0, 1.0).a2_stdev <= 1e-10
    assert comments["dist = conditional_distribution(sc.initial_state, sc.obs_a, 0.0)"] == "{+1: 0.8, -1: 0.2}"
    dist = namespace["dist"]
    assert dist.probability_of(1.0) == pytest.approx(0.8, abs=1e-12)
    assert dist.probability_of(-1.0) == pytest.approx(0.2, abs=1e-12)
    assert comments["compare_empirical(record, sc).within_3sigma"] == "True"
    assert shown["compare_empirical(record, sc).within_3sigma"] is True


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    match = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert match, "README has no Command line block"
    commands = [shlex.split(line, comments=True) for line in match.group(1).splitlines() if line.startswith("epr ")]
    assert [argv[1] for argv in commands] == ["demo-pauli", "verify", "analyze", "sample"]
    monkeypatch.chdir(tmp_path)  # each --out lands in a fresh directory, and verify reads demo-pauli's file there
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, shlex.join(argv)
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0, shlex.join(argv)
    assert capsys.readouterr().out.endswith("all invariants satisfied\n")
