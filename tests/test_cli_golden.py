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
    "verify": "47f220066674b05e7af65df291f6ae7796927de4a3d08d1bcd712b87c850b903",
    # oracle outputs: fig1c's two blocks through concat, with deltas
    "figure fig1c --oracle": "77f29c2cbbeea13c80ba35746422137d16d8224cfc9ddf24744d133d81800583",
    "qfim --oracle --nuisance concurrence --s-steps 6 --n-steps 6 --format json":
        "55ee2db295c613ec6ea05da6e90aae2242a9d87d5f7be6d79243087e8412a396",
    "verify --format json": "14e763ae38ad175b7ac6576a3d246ecd0bd885e38a3efa3a421940c2258e0ba4",
    # the oracle at the smallest and largest benchmarked grids, over every
    # nuisance row of single mode, and at sigma != 1 on a given halfwidth
    "verify --grid-points 1024": "6fee6c7b86d1503b6474f0cfa190d32d002853fb220c0b5c0a00ee0005599cbd",
    "verify --grid-points 16384 --s-steps 6 --n-steps 6":
        "d2b991f317b2c4592375fcc9135c42924dc75a1e04ded53c47cab712d89cd498",
    "single --oracle --s-steps 6 --n-steps 6":
        "fe2ad90175254e588ce90eedccc7c6517a0a05ba8ab6da6ac5b8e6b18fd13f1d",
    "verify --sigma 2.5 --grid-halfwidth 30 --format json":
        "685d921c75f10eb557d51ceaff95930ad4afe49effd7cab78f3f280797a3e534",
}


@pytest.mark.parametrize("argv", OUTPUT_PINS)
def test_default_output_bytes(argv, tmp_path, capsys):
    args = argv.split()
    if args[0] == "figure":
        args += (["--s-steps", "20"] if args[1] != "fig1c" else []) + ["--n-steps", "20"]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_PINS[argv]
