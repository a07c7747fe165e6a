"""The command line's help and usage errors, byte for byte.

``cli_golden.json`` holds, for each argument vector, the exact stdout,
stderr and exit code of ``superres.cli.main`` at an 80-column terminal.
The parser is built per command, so these pin that every help text and
every usage error reads as it did when the parser held every subcommand.
"""

import json
from pathlib import Path

import pytest

from superres.cli import main

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


def run(argv, capsys):
    """``(stdout, stderr, exit code)`` of ``main(argv)``; ``argv`` None
    reads ``sys.argv`` as the console script does."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    # argparse wraps help to the terminal width, read from COLUMNS first
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]) or "-")
def test_bytes_and_exit_code(case, capsys):
    assert run(case["argv"], capsys) == (case["stdout"], case["stderr"], case["code"])


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]) or "-")
def test_console_script_reads_sys_argv(case, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["superres", *case["argv"]])
    assert run(None, capsys) == (case["stdout"], case["stderr"], case["code"])


def test_console_script_runs_a_command(monkeypatch, capsys):
    argv = ["figure", "fig1c", "--n-steps", "3", "--format", "json"]
    expected = run(argv, capsys)
    assert expected[2] == 0 and expected[0].startswith("[\n  {\n")
    monkeypatch.setattr("sys.argv", ["superres", *argv])
    assert run(None, capsys) == expected
