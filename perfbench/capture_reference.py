#!/usr/bin/env python3
"""Capture the figure-output reference that the figures workload checks
against.

    python3 perfbench/capture_reference.py

Runs every figure operation of the workload on the sources under ``src``
and writes ``perfbench/figures_reference.json``: per output the exact
header, row count, status and blank-pattern digests, exact column sums, the
digest of the bytes, and a fixed pool of rows (see tables.pick_pool).  It
was run on the commit named in the file; rerun it only to move the
reference to another commit, and say so where the change is described.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import tables
import workloads as wl

HERE = Path(__file__).resolve().parent

POOL_SEED = 2302


def main() -> int:
    root = HERE.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip() or None
    rng = random.Random(POOL_SEED)
    outputs = {}
    workdir = HERE / "out" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    for op in wl.FIGURE_OPS:
        subprocess.run([sys.executable, "-c", wl.CLI, *op.argv(workdir)], env=env, check=True)
        path = workdir / op.out
        if op.fmt == "json":
            header, rows = tables.read_json(path, outputs["fig2b"]["header"])
        else:
            header, rows = tables.read_csv(path)
        ref = tables.summarize(header, rows)
        ref["bytes_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        ref["pool"] = [{"i": i, "row": rows[i]}
                       for i in tables.pick_pool(rows, op.axis, rng)]
        outputs[op.label] = ref
        path.unlink()
    out = {"captured_from": commit, "cell_rtol": tables.CELL_RTOL, "outputs": outputs}
    (HERE / "figures_reference.json").write_text(json.dumps(out, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
