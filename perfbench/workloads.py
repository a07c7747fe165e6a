"""The three workloads: what they run, how their outputs are checked, and
the end-to-end metrics of an untraced run.

figures        every figure preset through ``superres figure`` to CSV, plus
               fig2b to JSON (closed-form math and emit; the oracle is idle).
referee        ``superres verify`` at 1024, 4096 and 16384 grid points plus
               ``single --oracle`` and ``qfim --oracle`` surfaces (the grid
               oracle does most of the work).
point_queries  seeded scalar calls into the closed forms, in process, one
               caller at a time (no sweep, no emit).

Load is a closed loop with one client: the next operation starts when the
previous one has returned.  The CLI workloads run each operation once in a
fresh interpreter, then time it in process (CliWorkload.measure).  A failed
operation is either an *accuracy* failure (``verify`` exit 3, a cross-chart
disagreement beyond the stated tolerance) or an *error* (unexpected exit
code or exception, NaN, output differing from the seed reference); both
count in ``failed``, and only errors make a run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import re
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tables import check_table, read_csv, read_json

CLI = "import sys; from superres.cli import main; sys.exit(main())"
REFERENCE = Path(__file__).with_name("figures_reference.json")

# the documented CSV columns, stated here rather than imported from the
# package so that a change to them shows as a failed check
FIELDS = ["s", "sigma", "theta", "gamma", "C", "d", "f_tot", "f_ss", "f_tt", "f_st",
          "h_s", "h_nuisance"]
DELTAS = ["delta_f_tot", "delta_f_ss", "delta_f_tt", "delta_f_st"]
REFEREE_HEADER = FIELDS + DELTAS + ["status"]
VERIFY_TOLERANCE = 1e-6
VERIFY_LINE = re.compile(r"verify: (\d+) points, max relative QFIM delta (\S+) "
                         r"\(tolerance \S+\): (PASS|FAIL)")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``out`` is the output file name in the work dir."""

    label: str
    args: tuple[str, ...]
    out: str
    fmt: str = "csv"
    grid: int = 4096
    ok_codes: tuple[int, ...] = (0,)
    axis: int = 200                  # rows per block of the inner (nuisance) axis

    def argv(self, workdir: Path) -> list[str]:
        return [*self.args, "--out", str(workdir / self.out)]


# The surface presets run on 50 x 50 grids rather than their default
# 200 x 200, so that each timed operation is short (at most ~0.15 s) and a
# run repeats it ~45 times (see the README, Noise).  fig1c is two 200-point
# lines and keeps its size.
FIGURE_STEPS = 50
_GRID = ("--s-steps", str(FIGURE_STEPS), "--n-steps", str(FIGURE_STEPS))
FIGURE_OPS = [
    Op("fig1a", ("figure", "fig1a", *_GRID), "fig1a.csv", axis=FIGURE_STEPS),
    Op("fig1b", ("figure", "fig1b", *_GRID), "fig1b.csv", axis=FIGURE_STEPS),
    Op("fig1c", ("figure", "fig1c"), "fig1c.csv"),
    Op("fig2a", ("figure", "fig2a", *_GRID), "fig2a.csv", axis=FIGURE_STEPS),
    Op("fig2b", ("figure", "fig2b", *_GRID), "fig2b.csv", axis=FIGURE_STEPS),
    Op("fig2b.json", ("figure", "fig2b", *_GRID, "--format", "json"), "fig2b.json",
       fmt="json", axis=FIGURE_STEPS),
]


def _s_axis(steps: int) -> tuple[str, ...]:
    return ("--s-min", "1e-3", "--s-max", "5", "--s-steps", str(steps))


# verify at 16384 grid points runs on 6 x 6 (s, theta) points rather than
# 12 x 12, so that no operation takes much longer than ~0.4 s (README, Noise)
REFEREE_OPS = [
    Op(f"verify.n{n}", ("verify", *_s_axis(steps), "--n-steps", str(steps),
                        "--grid-points", str(n)),
       f"verify_n{n}.csv", grid=n, ok_codes=(0, 3))
    for n, steps in ((1024, 12), (4096, 12), (16384, 6))
] + [
    Op("single.oracle", ("single", "--oracle", *_s_axis(12), "--n-steps", "12"),
       "single_oracle.csv"),
    Op("qfim.oracle", ("qfim", "--oracle", "--nuisance", "concurrence", *_s_axis(12),
                       "--n-min", "0", "--n-max", "1", "--n-steps", "12"),
       "qfim_oracle.csv"),
]


@dataclass
class Verdict:
    failed: bool = False
    accuracy: bool = False           # failed on an accuracy verdict only
    problems: list[str] = field(default_factory=list)
    rows: int = 0                    # rows emitted
    points: int = 0                  # oracle-checked points
    out_of_reach: int = 0
    worst: tuple | None = None       # (delta, s, theta, element)
    note: str = ""                   # reason of an accuracy failure


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a beta-weighted mean of
    all order statistics.  With the few operations of a CLI workload it
    varies less between runs than the interpolated sample percentile, which
    rests on two operations only."""
    v = sorted(values)
    n, p = len(v), q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v[i] for i in range(n))


class Spawner:
    """Client of spawner.py, which forks every child process (see there why
    the benchmark does not fork them itself)."""

    def __init__(self, python: str):
        self.proc = subprocess.Popen([python, str(Path(__file__).with_name("spawner.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, timeout: float, log: Path):
        """Run a child to completion; returns (seconds, exit code, peak RSS
        in KiB, stderr).  The child is killed after ``timeout`` seconds."""
        request = {"argv": argv, "env": env, "timeout": timeout, "log": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        return reply["seconds"], reply["rc"], reply["rss_kb"], log.read_text(errors="replace")

    def close(self) -> None:
        """Stop the spawner and any child it is running, and wait for both."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_in_process(cli_main, argv: list[str]) -> tuple[int, str, float]:
    """``superres.cli.main`` in this process; returns (exit code, stderr,
    seconds the call took)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli_main(argv)
        except SystemExit as exc:          # argparse rejecting the argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=err)
            rc = 1
        seconds = time.perf_counter() - t0
    return rc, err.getvalue(), seconds


def fresh_cli_main():
    """``superres.cli.main`` of a freshly imported package, so that every
    module starts from its import-time state (with any cache it keeps
    empty), as in a new process."""
    for name in [m for m in sys.modules if m == "superres" or m.startswith("superres.")]:
        del sys.modules[name]
    return importlib.import_module("superres.cli").main


# ---------------------------------------------------------------- checks


class FigureChecker:
    """First output of each op: full comparison with the seed reference.
    Later outputs: byte-identical to the first, and failed if it failed."""

    SPOT_OPS = ("fig2a", "fig2b")      # rows of these feed the oracle spot check

    def __init__(self, seed: int):
        self.ref = json.loads(REFERENCE.read_text())
        self.rng = random.Random(seed)
        self.first: dict[str, tuple[str, list[str]]] = {}   # label -> (digest, problems)
        self.bytes_as_seed: dict[str, bool] = {}
        self.spot_rows: dict[str, list] = {}

    def check(self, op: Op, rc: int, stderr: str, path: Path) -> Verdict:
        ref = self.ref["outputs"][op.label]
        v = Verdict(rows=ref["rows"], out_of_reach=ref["status_counts"].get("out_of_reach", 0))
        if rc != 0 or stderr or not path.exists():
            v.failed = True
            v.problems.append(f"{op.label}: exit {rc}, stderr {stderr[-300:]!r}")
            return v
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if op.label in self.first:
            first_digest, v.problems = self.first[op.label]
            if digest != first_digest:
                v.problems = [f"{op.label}: output bytes differ between runs"]
            v.failed = bool(v.problems)
            return v
        self.bytes_as_seed[op.label] = digest == ref["bytes_sha256"]
        try:
            if op.fmt == "json":
                header, rows = read_json(path, ref["header"])
            else:
                header, rows = read_csv(path)
            v.problems = [f"{op.label}: {p}" for p in check_table(ref, header, rows, self.rng)[:5]]
        except (ValueError, StopIteration) as exc:
            header, rows = [], []
            v.problems = [f"{op.label}: unreadable output: {exc}"]
        self.first[op.label] = (digest, v.problems)
        v.failed = bool(v.problems)
        if op.label in self.SPOT_OPS:
            self.spot_rows[op.label] = [(header, rows[i])
                                        for i in _spot_indices(len(rows), op.axis)]
        return v


def _spot_indices(n_rows: int, axis: int) -> list[int]:
    """Rows at 30/60/90 % of the s axis and 10/30/50/70 % of the nuisance axis."""
    return [i * axis + j for i in (3 * axis // 10, 6 * axis // 10, 9 * axis // 10)
            for j in (axis // 10, 3 * axis // 10, axis // 2, 7 * axis // 10)
            if i * axis + j < n_rows]


def check_referee(op: Op, rc: int, stderr: str, path: Path) -> Verdict:
    v = Verdict()
    if rc not in op.ok_codes or not path.exists():
        v.failed = True
        v.problems.append(f"{op.label}: exit {rc}, stderr {stderr[-300:]!r}")
        return v
    try:
        header, rows = read_csv(path)
    except (ValueError, StopIteration) as exc:
        header, rows = [f"unreadable: {exc}"], []
    if header != REFEREE_HEADER:
        v.failed = True
        v.problems.append(f"{op.label}: header {header}")
        return v
    col = {name: j for j, name in enumerate(header)}
    elements = ["delta_f_tot"] if op.args[0] == "single" else DELTAS[1:]
    for r in rows:
        v.rows += 1
        if r[-1] == "out_of_reach":
            v.out_of_reach += 1
            continue
        if r[-1] != "ok" or r[col[elements[0]]] is None:
            v.problems.append(f"{op.label}: row {r} lacks its oracle delta")
            continue
        v.points += 1
        for name in elements:
            delta = r[col[name]]
            if delta is None:
                continue
            if not (delta >= 0.0 and math.isfinite(delta)):
                v.problems.append(f"{op.label}: {name} = {delta}")
            elif name != "delta_f_tot" and (v.worst is None or delta > v.worst[0]):
                v.worst = (delta, r[col["s"]], r[col["theta"]], name[6:])
    if op.args[0] == "verify":
        m = VERIFY_LINE.search(stderr)
        worst = v.worst[0] if v.worst else 0.0
        if m is None:
            v.problems.append(f"{op.label}: no verdict line in {stderr[-300:]!r}")
        elif (int(m.group(1)) != v.rows
              or (m.group(3) == "PASS") != (rc == 0)
              or (worst < VERIFY_TOLERANCE) != (rc == 0)
              or abs(float(m.group(2)) - worst) > 5e-3 * worst):
            v.problems.append(f"{op.label}: verdict {m.group(0)!r} disagrees with "
                              f"exit {rc} and worst delta {worst:.3e}")
        elif rc == 3:
            v.failed = v.accuracy = True
            v.note = m.group(0)
    if v.problems:
        v.failed, v.accuracy = True, False
    return v


# ---------------------------------------------------------- CLI workloads


@dataclass
class CliRun:
    """Timings and verdicts of a CLI workload run."""

    times: dict[str, list[float]] = field(default_factory=dict)
    rss_kb: dict[str, int] = field(default_factory=dict)
    verdicts: list[tuple[str, Verdict]] = field(default_factory=list)
    passes: int = 0


class CliWorkload:
    def __init__(self, name: str, ops: list[Op], seed: int):
        self.name = name
        self.ops = ops
        self.figures = FigureChecker(seed) if name == "figures" else None

    def check(self, op: Op, rc: int, stderr: str, path: Path) -> Verdict:
        if self.figures is not None:
            return self.figures.check(op, rc, stderr, path)
        return check_referee(op, rc, stderr, path)

    def measure(self, ctx) -> CliRun:
        """A first pass runs each op as its user does, in a fresh interpreter:
        its output is checked against the reference and its peak memory
        recorded.  Then timed passes run the same argv through
        ``superres.cli.main`` in this process, on a freshly imported package
        each time, until ``ctx.seconds`` have elapsed; their outputs must
        pass the same checks.  In-process timing leaves out interpreter
        start-up and import, which ``setup_s`` measures, and with them most
        of the noise a shared machine adds to starting a process (README,
        Noise)."""
        run = CliRun()
        for op in self.ops:
            path = ctx.workdir / op.out
            path.unlink(missing_ok=True)
            _, rc, rss, stderr = ctx.spawner.run(
                [ctx.python, "-c", CLI, *op.argv(ctx.workdir)], ctx.env,
                ctx.time_left(), ctx.workdir / "stderr.txt")
            run.rss_kb[op.label] = rss
            run.verdicts.append((op.label, self.check(op, rc, stderr, path)))
        t_start = time.perf_counter()
        while run.passes == 0 or time.perf_counter() - t_start < ctx.seconds:
            for op in self.ops:
                path = ctx.workdir / op.out
                path.unlink(missing_ok=True)
                rc, stderr, seconds = run_in_process(fresh_cli_main(), op.argv(ctx.workdir))
                run.times.setdefault(op.label, []).append(seconds)
                run.verdicts.append((op.label, self.check(op, rc, stderr, path)))
            run.passes += 1
            ctx.between_passes(time.perf_counter() - t_start)
        return run

    def metrics(self, run: CliRun) -> tuple[dict, dict]:
        bests = [min(ts) for ts in run.times.values()]
        best_pass = sum(bests)
        first_pass = [v for _, v in run.verdicts[:len(self.ops)]]
        work = sum(v.points if self.figures is None else v.rows for v in first_pass)
        attempted, failed, _ = count_failures(run.verdicts)
        worst = self.max_delta(run)
        metrics = {
            "wall_s": best_pass,
            "rows_per_s": work / best_pass,
            "query_p50_us": hd_quantile(bests, 50) * 1e6,
            "query_p99_us": hd_quantile(bests, 99) * 1e6,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": max(run.rss_kb.values()) / 1024.0,
            "max_rel_delta": worst[0],
        }
        detail = {
            "passes": run.passes,
            "operations": attempted,
            "latency_samples": len(bests),
            "fail_ratio": failed / attempted,
            "failures": failure_summary(run.verdicts),
            "op_times_s": run.times,
            "op_peak_rss_mb": {k: kb / 1024.0 for k, kb in run.rss_kb.items()},
            "max_rel_delta_at": worst[1],
        }
        if self.figures is not None:
            detail["bytes_identical_to_seed"] = self.figures.bytes_as_seed
        return metrics, detail

    def max_delta(self, run: CliRun) -> tuple[float, dict]:
        """Worst closed-form vs grid relative delta: every oracle-checked QFIM
        element on referee; on figures, H_s of fixed fig2a/fig2b rows against
        the grid oracle (spot check, outside the timed region)."""
        if self.figures is None:
            worst = max(((v.worst, label) for label, v in run.verdicts if v.worst),
                        default=((0.0, None, None, None), None))
            (delta, s, theta, element), label = worst
            return delta, {"op": label, "s": s, "theta": theta, "element": element}
        from superres import ModelParams, numeric_qfim
        best = (0.0, {})
        for label, entries in self.figures.spot_rows.items():
            for header, row in entries:
                cell = dict(zip(header, row))
                if row[-1] != "ok" or cell["f_ss"] is None or cell["h_s"] is None:
                    continue
                num = numeric_qfim(ModelParams(cell["s"], 1.0, cell["theta"]))
                h_num = num.f_ss - num.f_st * num.f_st / num.f_tt
                delta = abs(cell["h_s"] - h_num) / abs(h_num)
                if delta >= best[0]:
                    best = (delta, {"op": label, "s": cell["s"], "theta": cell["theta"],
                                    "element": "h_s"})
        return best


def count_failures(verdicts) -> tuple[int, int, int]:
    """(operations, failed operations, operations failed by an error) over
    (label, verdict) pairs: each operation counts once however many passes
    ran it, and fails if it failed in any of them, so the counts of a run
    do not depend on how many passes fitted into it."""
    labels, failed, errors = set(), set(), set()
    for label, v in verdicts:
        labels.add(label)
        if v.failed:
            failed.add(label)
            if not v.accuracy:
                errors.add(label)
    return len(labels), len(failed), len(errors)


def failure_summary(verdicts) -> dict:
    out: dict[str, dict] = {}
    for label, v in verdicts:
        if v.failed:
            entry = out.setdefault(label, {"count": 0, "kind": None, "first": None})
            entry["count"] += 1
            entry["kind"] = "accuracy" if v.accuracy else "error"
            entry["first"] = entry["first"] or v.problems[:3] or [v.note]
    return out


# ----------------------------------------------------------- point queries

SIGMA = 1.0
S_RANGE = (1e-4, 20.0)
REACH_OVERSHOOT = 1.25        # concurrence drawn on [0, 1.25 C_max]: 20 % out of reach
QUERIES = 3500
# One block of seven calls; qfim appears twice so that the median call falls
# inside one cost mode rather than on the edge between two.
MIX = ("f_tot_coherence", "f_tot_concurrence", "qfim", "qfim", "precision",
       "precision_gamma", "precision_concurrence")
CHART = {"f_tot_coherence": "gamma", "f_tot_concurrence": "C", "qfim": "theta",
         "precision": "theta", "precision_gamma": "gamma", "precision_concurrence": "C"}
# Chart-invariance tolerances, absolute in units of 1/sigma^2: the ones the
# acceptance suite states (criterion 08 for H_s, 03 for f_tot), applied here
# over the whole query range.
HS_ATOL = 1e-9
FTOT_ATOL = 1e-12


def c_max(s: float) -> float:
    return math.sqrt(-math.expm1(-s * s / (4.0 * SIGMA * SIGMA)))


@dataclass(frozen=True)
class Query:
    fn: str
    s: float
    nu: float
    expect: str        # "ok", "raise" (OutOfReachError) or "either"


def make_queries(seed: int, n: int = QUERIES) -> list[Query]:
    rng = random.Random(seed)
    lo, hi = math.log(S_RANGE[0]), math.log(S_RANGE[1])
    out = []
    for _ in range(n // len(MIX)):
        block = list(MIX)
        rng.shuffle(block)
        for fn in block:
            s = math.exp(rng.uniform(lo, hi)) * SIGMA
            chart, expect = CHART[fn], "ok"
            if chart == "theta":
                nu = rng.uniform(0.0, math.pi / 2)
            elif chart == "gamma":
                nu = rng.random()
            else:
                cm = c_max(s)
                nu = rng.uniform(0.0, REACH_OVERSHOOT * cm)
                if nu > cm * (1 + 1e-9):
                    expect = "raise"
                elif nu > cm * (1 - 1e-9):
                    expect = "either"
            out.append(Query(fn, s, nu, expect))
    return out


def call_table(pkg) -> dict:
    """Public scalar entry points, looked up in the package namespace."""
    mp, qfim, precision = pkg.ModelParams, pkg.qfim, pkg.precision
    return {
        "f_tot_coherence": pkg.f_tot_coherence,
        "f_tot_concurrence": pkg.f_tot_concurrence,
        "qfim": lambda s, sigma, th: qfim(mp(s=s, sigma=sigma, theta=th)),
        "precision": lambda s, sigma, th: precision(mp(s=s, sigma=sigma, theta=th)),
        "precision_gamma": pkg.precision_gamma,
        "precision_concurrence": pkg.precision_concurrence,
    }


def _has_nan(result) -> bool:
    return any(isinstance(x, float) and x != x for x in vars(result).values())


def query_pass(pkg, queries: list[Query], best: list[int] | None = None) -> tuple[float, list[str]]:
    """One pass over the queries, each call timed on its own; ``best[i]``
    keeps the fastest time of query i in nanoseconds.  Returns the summed
    call time and each call's outcome ("ok", "error: ...")."""
    table = call_table(pkg)
    calls = [(table[q.fn], q.s, q.nu, q.expect) for q in queries]
    oor = pkg.OutOfReachError
    clock = time.perf_counter_ns
    outcomes = []
    total = 0
    for i, (fn, s, nu, expect) in enumerate(calls):
        t0 = clock()
        try:
            result = fn(s, SIGMA, nu)
            t1 = clock()
            outcome = "ok" if expect != "raise" else "error: no OutOfReachError"
            if _has_nan(result):
                outcome = "error: NaN"
        except oor:
            t1 = clock()
            outcome = "ok" if expect != "ok" else "error: unexpected OutOfReachError"
        except Exception as exc:
            t1 = clock()
            outcome = f"error: {type(exc).__name__}: {exc}"
        total += t1 - t0
        if best is not None and t1 - t0 < best[i]:
            best[i] = t1 - t0
        outcomes.append(outcome)
    return total / 1e9, outcomes


def _theta_of(q: Query) -> float | None:
    chart = CHART[q.fn]
    if chart == "theta":
        return q.nu
    if chart == "gamma":
        return math.acos(q.nu)
    if q.expect != "ok":
        return None
    return math.asin(min(q.nu / c_max(q.s), 1.0))


def invariant_check(pkg, q: Query) -> str:
    """Cross-chart checks at the query's point (outside the timed region):
    "ok", "accuracy: ..." or "error: ..."."""
    theta = _theta_of(q)
    if theta is None:
        return "ok"
    s, g, c = q.s, math.cos(theta), math.sin(theta) * c_max(q.s)
    try:
        qf = pkg.qfim(pkg.ModelParams(s=s, sigma=SIGMA, theta=theta))
        h = pkg.precision(pkg.ModelParams(s=s, sigma=SIGMA, theta=theta)).h_s
        if not (0.0 <= h <= qf.f_ss):
            return f"error: H_s = {h!r} outside [0, F_ss = {qf.f_ss!r}]"
        h_g = pkg.precision_gamma(s, SIGMA, g).h_s
        try:
            h_c = pkg.precision_concurrence(s, SIGMA, c).h_s
        except pkg.DomainError:
            if g >= 1e-9:     # the chart is singular only at maximum reach
                raise
            h_c = h
        f_g = pkg.f_tot_coherence(s, SIGMA, g).f_tot
        f_c = pkg.f_tot_concurrence(s, SIGMA, c).f_tot
    except Exception as exc:
        return f"error: {type(exc).__name__}: {exc}"
    if any(x != x for x in (h_g, h_c, f_g, f_c)):
        return "error: NaN in a cross-chart value"
    bad = []
    if abs(h_g - h) > HS_ATOL / SIGMA ** 2:
        bad.append(f"H_s gamma chart off by {h_g - h:.3e}")
    if abs(h_c - h) > HS_ATOL / SIGMA ** 2:
        bad.append(f"H_s concurrence chart off by {h_c - h:.3e}")
    if abs(f_g - f_c) > FTOT_ATOL / SIGMA ** 2:
        bad.append(f"f_tot forms differ by {f_g - f_c:.3e}")
    return f"accuracy: {'; '.join(bad)}" if bad else "ok"


# Fixed (s, theta) points where point_queries' qfim is refereed by the grid.
SPOT_POINTS = [(s, th) for s in (0.25, 1.0, 3.0)
               for th in (math.pi / 6, math.pi / 3, math.pi / 2 - 0.1)]


def spot_qfim_delta(pkg) -> tuple[float, dict]:
    best = (0.0, {})
    for s, theta in SPOT_POINTS:
        p = pkg.ModelParams(s, SIGMA, theta)
        ana, num = pkg.qfim(p), pkg.numeric_qfim(p)
        for name in ("f_ss", "f_tt", "f_st"):
            a, b = getattr(ana, name), getattr(num, name)
            delta = abs(a - b) / abs(b)
            if delta >= best[0]:
                best = (delta, {"s": s, "theta": theta, "element": name})
    return best


def point_failures(pkg, queries: list[Query], outcomes: list[str]) -> tuple[list[str], dict]:
    """Combine call outcomes with the invariant check of each query point."""
    verdicts = [invariant_check(pkg, q) for q in queries]
    merged = [o if o != "ok" else v for o, v in zip(outcomes, verdicts)]
    examples: dict[str, list] = {}
    for q, m in zip(queries, merged):
        if m != "ok":
            examples.setdefault(m.split(":")[0], []).append(
                {"fn": q.fn, "s": q.s, "nu": q.nu, "why": m})
    return merged, {k: {"count": len(v), "first": v[:3]} for k, v in examples.items()}


def changed_outcomes(first: list[str], outcomes: list[str]) -> set[int]:
    """Indices of the queries whose outcome differs from the first pass."""
    if outcomes == first:
        return set()
    return {i for i, (a, b) in enumerate(zip(first, outcomes)) if a != b}


def measure_point_queries(pkg, ctx) -> tuple[dict, dict, int, int, bool]:
    """Passes over the seeded queries until ctx.seconds have elapsed.  Every
    pass repeats the same calls; each query is one operation, counted once
    however many passes fit, and it fails if its call or the invariant check
    of its point fails, or if a later pass gives another outcome."""
    queries = make_queries(ctx.seed)
    best = [2 ** 62] * len(queries)
    pass_totals = []
    query_pass(pkg, queries[: len(MIX) * 20])        # warm-up, untimed
    first: list[str] = []
    unstable: set[int] = set()                       # queries whose outcome changed
    t_start = time.perf_counter()
    while not pass_totals or time.perf_counter() - t_start < ctx.seconds:
        total, outcomes = query_pass(pkg, queries, best)
        pass_totals.append(total)
        first = first or outcomes
        unstable |= changed_outcomes(first, outcomes)
        ctx.between_passes(time.perf_counter() - t_start)
    merged, failures = point_failures(pkg, queries, first)
    bad = {i for i, m in enumerate(merged) if m != "ok"}
    errors = len(unstable) + sum(m.startswith("error") for m in merged)
    attempted = len(queries)
    failed = len(bad | unstable)
    spot = spot_qfim_delta(pkg)
    metrics = {
        "wall_s": sum(best) / 1e9,
        "rows_per_s": len(queries) / (sum(best) / 1e9),
        "query_p50_us": hd_quantile(best, 50) / 1e3,
        "query_p99_us": hd_quantile(best, 99) / 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_rel_delta": spot[0],
    }
    detail = {
        "passes": len(pass_totals),
        "queries_per_pass": len(queries),
        "pass_s": {"min": min(pass_totals), "median": median(pass_totals),
                   "max": max(pass_totals)},
        "fail_ratio": failed / attempted,
        "failures": failures,
        "queries_with_other_outcomes": len(unstable),
        "max_rel_delta_at": spot[1],
    }
    return metrics, detail, attempted, failed, errors == 0
