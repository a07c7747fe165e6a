"""The command line's help and usage errors, byte for byte.

``cli_golden.json`` holds, for each argument vector, the exact stdout,
stderr and exit code of ``superres.cli.main`` at an 80-column terminal.
The parser is built per command, so these pin that every help text and
every usage error reads as it did when the parser held every subcommand.
``OUTPUT_PINS`` pins the bytes of the default outputs at ``sigma = 1``.
"""

import hashlib
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


# sha256 of each output file at sigma = 1, the figures on 20 x 20 grids (fig1c
# on 20 steps of its one axis); a change that moves any byte updates the pin
# and says why
OUTPUT_PINS = {
    "figure fig1a": "fcabf91055a106b974702fb47c5994f0789ce4e0871f6672976415f4291dee7f",
    "figure fig1b": "b3f2e82928c9ae8b8a25406ced0942e8f657651b0cf0ab924baafe1a69d7a2ba",
    "figure fig1c": "cb87cf4aed92eba672a8c0df1f324abfb64dbd7ec330213ea1d22c342f4c67fb",
    "figure fig2a": "2cac5efeb3e301a81cf42e5c3b2279ddaaddc2f349d72bf13b4998999c087ab9",
    "figure fig2b": "d6a35cb69abaf281a654b52312feee9de2e60b1b728d2e09a053b7c127446fcb",
    "figure fig2b --format json":
        "d89e14a5d5ee429c21544c35c8c2383323d1a9f606be4ae67b48bd44ffa4a939",
    "verify": "1af67547d4994a7a2fec0691dbb6474ae3a04f1df3fdc4ca7e9391b63d318e23",
    # oracle outputs: fig1c's two blocks through concat, with deltas
    "figure fig1c --oracle": "7b5ab83f8fda35b346145832a0082d5ab952cd7c728413dec19770ea81c9df28",
    "qfim --oracle --nuisance concurrence --s-steps 6 --n-steps 6 --format json":
        "9fe88a976522965a3f9ff00f03f67e9240c9292060300c8ffbfdac697492d64f",
    "verify --format json": "20aaa48a6f9a765ec28794f8af60181a447e722825dcd5dd176d444a4774dfa5",
    # the oracle at the smallest and largest benchmarked grids, over every
    # nuisance row of single mode, and at sigma != 1
    "verify --grid-points 1024": "d476b681fb69c282f0f5aabc0cbcaec8e9bc196277fd433e17b2500875162e4e",
    "verify --grid-points 16384 --s-steps 6 --n-steps 6":
        "4f814fe55402be00a4576ed70ceebc0ba5b4270c1fec970e56c0e353817312e9",
    "single --oracle --s-steps 6 --n-steps 6":
        "2500d9c7ac4822f3e84c83fd7555f550c80ea3fdf02e19b94e6fa8a61453cead",
    "verify --sigma 2.5 --format json":
        "78d0c75a741c126218440bdc68ba65aed6adee75119410d331ada65b04ff5346",
    # the oracle where 1 - d^2 is ~1e-300, the tiny-s edge of its reach
    "verify --s-min 1e-150 --s-max 1e-150 --s-steps 1 --format json":
        "1dcda5f840916b5577e29baf89a73014640f36546b2a55699fa175769b8bdcfa",
}


@pytest.mark.parametrize("argv", OUTPUT_PINS)
def test_default_output_bytes(argv, tmp_path, capsys):
    args = argv.split()
    if args[0] == "figure":
        args += (["--s-steps", "20"] if args[1] != "fig1c" else []) + ["--n-steps", "20"]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_PINS[argv]
