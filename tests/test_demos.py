"""Every demo script runs to completion, quietly, against the sources."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import SRC_ENV

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # in a scratch directory: with matplotlib present a demo saves its plot
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=SRC_ENV, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
