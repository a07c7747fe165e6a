"""Reading sweep output files and comparing them with the seed reference.

A table is a header (value columns followed by ``status``) and rows whose
value cells are floats or ``None`` (blank CSV cell, absent JSON key).  The
reference for a figure output keeps the exact header, the row count, the
status column and blank pattern as digests, per-column exact sums, and a
fixed stratified pool of rows; ``check_table`` compares a fresh output with
it, cell by cell on a seed-drawn part of the pool.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random

# Relative tolerance of a populated cell against its seed value.  The seed's
# own error on preset cells, measured against 50-digit arithmetic, is at most
# ~1e-9 (H_s at s = 1e-3, f_tot at gamma = 1); 1e-8 leaves room for accuracy
# fixes of that size and for a <= 4-ulp rewrite (~1e-15), while a wrong
# branch or formula moves cells by far more.
CELL_RTOL = 1e-8
POOL_ROWS = 64        # pooled reference rows per output
CHECKED_ROWS = 24     # pooled rows each run checks, drawn from the seed


def read_csv(path) -> tuple[list[str], list[list]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) if c else None for c in r[:-1]] + [r[-1]] for r in reader]
    return header, rows


def read_json(path, header: list[str]) -> tuple[list[str], list[list]]:
    """JSON records as rows over ``header``; raises ValueError when a record
    has a key outside the header or keys out of header order."""
    with open(path) as fh:
        records = json.load(fh)
    order = {name: i for i, name in enumerate(header)}
    rows = []
    for rec in records:
        idx = [order.get(k, -1) for k in rec]
        if -1 in idx or idx != sorted(idx) or "status" not in rec:
            raise ValueError(f"record keys {list(rec)} do not follow the header")
        rows.append([rec.get(name) for name in header[:-1]] + [rec["status"]])
    return header, rows


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _mask(row) -> str:
    return "".join("0" if v is None else "1" for v in row[:-1])


def summarize(header: list[str], rows: list[list]) -> dict:
    """Row count, status digest, blank-pattern digest and exact column sums."""
    statuses = [r[-1] for r in rows]
    counts: dict[str, int] = {}
    for st in statuses:
        counts[st] = counts.get(st, 0) + 1
    columns = {}
    for j, name in enumerate(header[:-1]):
        vals = [r[j] for r in rows if r[j] is not None]
        columns[name] = [len(vals), math.fsum(vals), math.fsum(abs(v) for v in vals)]
    return {
        "header": header,
        "rows": len(rows),
        "status_counts": counts,
        "status_sha256": _digest(statuses),
        "mask_sha256": _digest(_mask(r) for r in rows),
        "columns": columns,
    }


def pick_pool(rows: list[list], axis: int, rng: random.Random) -> list[int]:
    """Row indices for the reference pool: the first and last row of every
    (status, blank pattern) class, rows on both ends of the nuisance axis,
    then random rows up to POOL_ROWS."""
    chosen: list[int] = []
    seen: dict[tuple, list[int]] = {}
    for i, r in enumerate(rows):
        seen.setdefault((r[-1], _mask(r)), []).append(i)
    for members in seen.values():
        chosen += [members[0], members[-1]]
    edges = [i for i in range(len(rows)) if i % axis in (0, axis - 1)]
    chosen += rng.sample(edges, min(8, len(edges)))
    chosen = sorted(set(chosen))
    rest = sorted(set(range(len(rows))) - set(chosen))
    chosen += rng.sample(rest, max(0, min(POOL_ROWS - len(chosen), len(rest))))
    return sorted(chosen)


def _close(new, ref) -> bool:
    if new is None or ref is None:
        return new is None and ref is None
    return math.isfinite(new) and abs(new - ref) <= CELL_RTOL * abs(ref)


def check_table(ref: dict, header: list[str], rows: list[list],
                rng: random.Random) -> list[str]:
    """Problems found comparing a fresh output with its reference (empty
    list when it matches)."""
    if header != ref["header"]:
        return [f"header {header} != {ref['header']}"]
    fresh = summarize(header, rows)
    problems = []
    for key in ("rows", "status_counts", "status_sha256", "mask_sha256"):
        if fresh[key] != ref[key]:
            problems.append(f"{key} differs from the seed")
    if problems:
        return problems
    for name, (n, total, abs_total) in ref["columns"].items():
        n_new, total_new, _ = fresh["columns"][name]
        if n_new != n or not abs(total_new - total) <= CELL_RTOL * abs_total:
            problems.append(f"column {name}: sum {total_new!r} vs seed {total!r}")
    pool = ref["pool"]
    for entry in rng.sample(pool, min(CHECKED_ROWS, len(pool))):
        row = rows[entry["i"]]
        if row[-1] != entry["row"][-1] or not all(
                _close(a, b) for a, b in zip(row[:-1], entry["row"][:-1])):
            problems.append(f"row {entry['i']}: {row} vs seed {entry['row']}")
    return problems
