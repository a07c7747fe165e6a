#!/usr/bin/env python3
"""Benchmark of the superres package: figure surfaces, the grid referee and
scalar point queries, end to end and per module.

    python3 perfbench/run.py --workload figures|referee|point_queries \
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the ``src`` directory next
to ``perfbench``.  With ``--trace 0`` the run measures the end-to-end
metrics of BENCHMARK.json with nothing wrapped; with ``--trace 1`` it drives
the same operations in process, with spans around every public function
(see tracing.py), and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it is a summary with
the run's provenance and details.  Work files go to ``perfbench/out``.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# one BLAS thread, for every child and for numpy in this process
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HARD_LIMIT_S = 165.0       # children are killed past this point of the run
SETUP_REPS = 15
WORKLOADS = ("figures", "referee", "point_queries")


class Context:
    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.python = sys.executable
        self.workdir = HERE / "out"
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", **BLAS_ENV}
        self.t0 = time.monotonic()
        self.spawner = wl.Spawner(self.python)
        self.setup_samples: list[float] = []

    def time_left(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - self.t0))

    def setup_once(self) -> float:
        """Seconds from a fresh interpreter until superres.cli is imported
        and its parser built."""
        argv = [self.python, "-c", "from superres.cli import build_parser; build_parser()"]
        seconds, rc, _, err = self.spawner.run(argv, self.env, self.time_left(),
                                               self.workdir / "stderr.txt")
        if rc != 0:
            raise RuntimeError(f"importing superres.cli failed (exit {rc}): {err[-500:]}")
        return seconds

    def between_passes(self, elapsed: float) -> None:
        """Called after each pass of an untraced run: takes the next set-up
        sample when it is due, so that the SETUP_REPS samples spread over
        the run instead of sharing the machine's state at its start."""
        if len(self.setup_samples) < SETUP_REPS * min(1.0, elapsed / self.seconds):
            self.setup_samples.append(self.setup_once())

    def setup_s(self) -> float:
        """Median set-up time, after taking the samples still missing."""
        while len(self.setup_samples) < SETUP_REPS:
            self.setup_samples.append(self.setup_once())
        return wl.median(self.setup_samples)


def provenance(ctx: Context, args) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_env": BLAS_ENV, "child_env": {"PYTHONHASHSEED": "0"},
    }


# ------------------------------------------------------------ untraced runs


def untraced(workload: str, ctx: Context, pkg):
    if workload == "point_queries":
        return wl.measure_point_queries(pkg, ctx)
    ops = wl.FIGURE_OPS if workload == "figures" else wl.REFEREE_OPS
    bench = wl.CliWorkload(workload, ops, ctx.seed)
    run = bench.measure(ctx)
    metrics, detail = bench.metrics(run)
    attempted, failed, errors = wl.count_failures(run.verdicts)
    return metrics, detail, attempted, failed, errors == 0


# -------------------------------------------------------------- traced runs


def _cli_pass(bench, ctx, pkg, tracer):
    """One in-process pass over the ops; returns wall seconds, verdicts and
    per-op (rows, out_of_reach rows, output bytes)."""
    verdicts, shape = [], {}
    t0 = time.perf_counter()
    for op in bench.ops:
        path = ctx.workdir / op.out
        path.unlink(missing_ok=True)
        tracer.op = op.label
        rc, err, _ = wl.run_in_process(pkg.cli.main, op.argv(ctx.workdir))
        v = bench.check(op, rc, err, path)
        verdicts.append(v)
        shape[op.label] = (v.rows, v.out_of_reach, path.stat().st_size if path.exists() else 0)
    return time.perf_counter() - t0, verdicts, shape


def full_size_fig2a(ctx: Context, pkg, tracer) -> dict:
    """One traced fig2a at the preset's own 200 x 200 size: its qfim calls
    for its rows, the count the roadmap's profile states (59,714 for
    40,000)."""
    path = ctx.workdir / "fig2a_full.csv"
    tracer.op = "fig2a.full"
    tracer.install(pkg)
    try:
        rc, err, _ = wl.run_in_process(pkg.cli.main, ["figure", "fig2a", "--out", str(path)])
    finally:
        tracer.uninstall()
    calls = sum(r[0] for (_, name, _), r in tracer.take().items()
                if name == "qfim_two_param.qfim")
    with path.open() as fh:
        rows = sum(1 for _ in fh) - 1
    path.unlink()
    return {"exit": rc, "stderr": err[-300:], "rows": rows, "qfim_calls": calls}


def traced(workload: str, ctx: Context, pkg, import_s: float):
    """An untraced in-process pass (warm-up and output check), then pairs of
    traced and untraced passes until ctx.seconds have elapsed, at least two
    pairs; the traced passes' counts must agree."""
    tracer = tracing.Tracer()
    t_start = time.perf_counter()
    if workload == "point_queries":
        queries = wl.make_queries(ctx.seed)
        ops, op_rows, rows = [], {}, len(queries)

        def run_pass():
            t0 = time.perf_counter()
            _, outcomes = wl.query_pass(pkg, queries)
            return time.perf_counter() - t0, outcomes, {}

        _, outcomes, shape0 = run_pass()
        merged, failures = wl.point_failures(pkg, queries, outcomes)
        attempted, failed = len(merged), sum(m != "ok" for m in merged)
        errors = sum(m.startswith("error") for m in merged)
    else:
        ops = wl.FIGURE_OPS if workload == "figures" else wl.REFEREE_OPS
        bench = wl.CliWorkload(workload, ops, ctx.seed)

        def run_pass():
            return _cli_pass(bench, ctx, pkg, tracer)

        _, verdicts, shape0 = run_pass()
        op_rows = {label: r for label, (r, _, _) in shape0.items()}
        rows = sum(op_rows.values())
        labelled = list(zip([op.label for op in ops], verdicts))

    passes, untraced_walls = [], []
    while len(passes) < 2 or time.perf_counter() - t_start < ctx.seconds:
        tracer.install(pkg)
        try:
            traced_pass = run_pass()
        finally:
            tracer.uninstall()
        passes.append((traced_pass[0], tracer.take(), traced_pass[2]))
        untraced_pass = run_pass()
        untraced_walls.append(untraced_pass[0])
        if workload != "point_queries":     # CLI passes recheck their outputs
            for _, verdicts, _ in (traced_pass, untraced_pass):
                labelled += zip([op.label for op in ops], verdicts)

    if workload != "point_queries":
        attempted, failed, errors = wl.count_failures(labelled)
        failures = wl.failure_summary(labelled)
    full_fig2a = full_size_fig2a(ctx, pkg, tracer) if workload == "figures" else None
    if full_fig2a and full_fig2a["exit"] != 0:
        errors += 1

    first = passes[0][1]
    repeat_ok = all(tracing.counts(sp) == tracing.counts(first) and sh == passes[0][2]
                    for _, sp, sh in passes[1:]) and (not shape0 or shape0 == passes[0][2])
    per_pass = [tracing.layer_metrics(sp, rows, ops, op_rows) for _, sp, _ in passes]
    metrics = {name: wl.median([m[name] for m in per_pass]) for name in per_pass[0]}
    # counts repeat exactly, so take them from the first pass
    for name in per_pass[0]:
        if name.endswith(("calls_per_row", "useful_share")):
            metrics[name] = per_pass[0][name]
    metrics["sweep.emit_bytes"] = sum(b for _, _, b in shape0.values())
    metrics["sweep.out_of_reach_share"] = (
        sum(o for _, o, _ in shape0.values()) / rows if shape0 else 0.0)
    metrics["cli.import_s"] = import_s
    # best against best, as for the end-to-end times
    metrics["trace.overhead_s"] = min(w for w, _, _ in passes) - min(untraced_walls)

    spans_out = ctx.workdir / f"spans-{workload}-{ctx.seed}.json"
    spans_out.write_text(json.dumps([
        {"op": op, "name": name, "parent": parent, "calls": r[0], "raised": r[1],
         "total_ns": r[2], "self_ns": r[3]}
        for (op, name, parent), r in sorted(first.items(), key=lambda kv: -kv[1][2])
    ], indent=1))
    qfim_calls = {label: sum(r[0] for (op, name, _), r in first.items()
                             if op == label and name == "qfim_two_param.qfim")
                  for label in op_rows}
    detail = {
        "traced_passes": len(passes),
        "untraced_pass_s": untraced_walls,
        "traced_pass_s": [w for w, _, _ in passes],
        "counts_repeat": repeat_ok,
        "rows_per_pass": rows,
        "op_rows": op_rows,
        "qfim_calls_per_op": qfim_calls,
        "fig2a_full_size": full_fig2a,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "spans_file": str(spans_out.relative_to(ROOT)),
    }
    return metrics, detail, attempted, failed, errors == 0 and repeat_ok


# -------------------------------------------------------------------- main


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {HARD_LIMIT_S + 5:.0f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "superres" / "__init__.py").is_file():
        print(f"perfbench: no superres sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    os.environ.update(BLAS_ENV)       # before numpy is first imported
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(int(HARD_LIMIT_S) + 5)
    (HERE / "out").mkdir(exist_ok=True)
    ctx = Context(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    try:
        ctx.setup_once()          # warm-up: writes the bytecode cache
        t0 = time.perf_counter()
        importlib.import_module("superres.cli")
        import_s = time.perf_counter() - t0
        pkg = importlib.import_module("superres")
        if Path(pkg.__file__).resolve().parent != SRC / "superres":
            raise RuntimeError(f"imported superres from {pkg.__file__}, not {SRC}")
        if args.trace:
            run = traced(args.workload, ctx, pkg, import_s)
        else:
            run = untraced(args.workload, ctx, pkg)
            setup_s = ctx.setup_s()
    finally:
        signal.alarm(0)
        ctx.spawner.close()
        for op in wl.FIGURE_OPS + wl.REFEREE_OPS:
            (ctx.workdir / op.out).unlink(missing_ok=True)
    metrics, detail, attempted, failed, correct = run
    if not args.trace:
        metrics["setup_s"] = setup_s
        detail["setup_samples_s"] = ctx.setup_samples
    if set(metrics) != set(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(wanted)}")
    summary = {"provenance": provenance(ctx, args), "detail": detail}
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    (ctx.workdir / f"result-{args.workload}-t{args.trace}-{args.seed}.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=1))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
