"""The README's examples run: its Python block, and every `riccati` line of its shell blocks."""

import re
import shlex
from pathlib import Path

import pytest

from riccatikit import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_python_example_runs():
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})


COMMANDS = [line.split(" #")[0].rstrip() for block in blocks("sh") for line in block.splitlines() if line.startswith("riccati ")]


def test_shell_examples_are_found():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_shell_example_exits_0(tmp_path, line):
    argv = shlex.split(line)[1:]
    out = argv.index("--out")
    argv[out + 1] = str(tmp_path)
    assert cli.main(argv) == 0
