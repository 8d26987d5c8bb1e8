"""The README's command-line and library examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from mzqkd.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


COMMANDS = [line for block in fenced_blocks("sh") for line in block.splitlines()
            if line.startswith("mzqkd ")]


def test_readme_has_one_example_per_subcommand():
    assert sorted(shlex.split(line)[1] for line in COMMANDS) == [
        "bb84", "compensate", "design", "gterm", "oracle-check", "spectra", "sweep"]


@pytest.mark.parametrize("line", COMMANDS, ids=[shlex.split(line)[1] for line in COMMANDS])
def test_command_example_exits_0(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


def test_library_example_runs():
    [example] = fenced_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    share, shape = out.getvalue().splitlines()
    assert float(share) > 0.999
    assert shape == "(1, 2, 10)"
