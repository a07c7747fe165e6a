"""Parameter sweeps over (separation, nuisance) with nuisance one of theta,
concurrence, or coherence; figure-preset grids, oracle comparison, and
deterministic CSV/JSON emission.

Sweeps walk the Cartesian product of the two axes in s-major order.
Concurrence requests beyond the reachable maximum at a given separation are
emitted with ``status=out_of_reach`` (fields other than the request left
blank) so that rectangular surface layouts survive.  Identical specs produce
byte-identical output files.

A block is evaluated in one array pass that calls the scalar API's closed
forms, written with ``+ - * /`` only so that they take the broadcast
``(s, nuisance)`` grid as they take floats; each scalar branch becomes a
mask.  Functions of one axis alone (``state_model._separation_terms``
among them) go through the scalar API once per axis value, so theta- and
coherence-nuisance blocks agree with it bit for bit; in concurrence blocks
theta depends on both axes and goes through numpy's vectorized
arcsin/arccos/cos/sin, which may differ by an ulp.
Results come back as a columnar :class:`SweepTable`, and the emitters
format whole rows from its columns.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import DomainError
from .fisher_single import _EPS, _coherence_form, _concurrence_form
from .numeric_oracle import _SUPPORT_CUTOFF, _numeric_f_tot, numeric_qfim_row
from .qfim_two_param import (
    _NUISANCE_FLOOR,
    _h_nuisance,
    _theta_block,
    _to_concurrence,
    _to_gamma,
)
from .state_model import _OM_MIN, _angle_terms, _separation_terms, concurrence_max

MODES = ("single", "qfim", "verify")
NUISANCES = ("theta", "concurrence", "coherence")
FORMATS = ("csv", "json")
CSV_FIELDS = (
    "s", "sigma", "theta", "gamma", "C", "d",
    "f_tot", "f_ss", "f_tt", "f_st", "h_s", "h_nuisance",
)
DELTA_FIELDS = ("delta_f_tot", "delta_f_ss", "delta_f_tt", "delta_f_st")
VERIFY_TOLERANCE = 1e-6

_HALF_PI = math.pi / 2


def default_ranges(nuisance: str) -> tuple[tuple[float, float, int], tuple[float, float, int]]:
    """The ``(min, max, steps)`` of the s and nuisance axes when none are given."""
    return (1e-3, 5.0, 50), (0.0, _HALF_PI if nuisance == "theta" else 1.0, 50)


def _require_int(name: str, value) -> None:
    # a bool is an int to Python, but not a count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def _require_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Validated description of one sweep block; ``dataclasses.replace``
    derives a variant and validates it again."""

    mode: str
    nuisance: str = "coherence"
    sigma: float = 1.0
    phi: float = 0.0
    s_range: tuple[float, float, int] | None = None         # default_ranges
    nuisance_range: tuple[float, float, int] | None = None  # default_ranges
    oracle: bool = False
    grid_points: int = 4096
    grid_halfwidth: float | None = None

    def __post_init__(self):
        for name, default in zip(("s_range", "nuisance_range"), default_ranges(self.nuisance)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.nuisance not in NUISANCES:
            raise DomainError(
                f"nuisance must be one of {NUISANCES}, got {self.nuisance!r}"
            )
        _require_real("sigma", self.sigma)
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if self.phi != 0.0:
            raise DomainError(
                f"closed-form sweeps require phi = 0, got phi = {self.phi}"
            )
        _require_int("grid_points", self.grid_points)
        if self.grid_halfwidth is not None:
            _require_real("grid_halfwidth", self.grid_halfwidth)
        for name, rng in (("s", self.s_range), ("nuisance", self.nuisance_range)):
            try:
                lo, hi, steps = rng
            except (TypeError, ValueError):
                raise DomainError(f"{name}-range must be (min, max, steps), got {rng!r}") from None
            _require_real(f"{name}-min", lo)
            _require_real(f"{name}-max", hi)
            _require_int(f"{name}-steps", steps)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError(f"{name}-range must be finite, got {rng}")
            if steps < 1:
                raise DomainError(f"{name}-steps must be >= 1, got {steps}")
            if hi < lo:
                raise DomainError(f"{name}-range must have max >= min, got {rng}")
        if self.s_range[0] < 0.0:
            raise DomainError(f"s-range must be nonnegative, got {self.s_range}")
        if self.mode in ("qfim", "verify") and self.s_range[0] <= 0.0:
            raise DomainError("qfim/verify sweeps require s > 0 (start at e.g. 1e-3)")
        nu_lo, nu_hi, _ = self.nuisance_range
        if self.nuisance == "theta" and not (0.0 <= nu_lo and nu_hi <= _HALF_PI):
            raise DomainError(f"theta range must lie in [0, pi/2], got {self.nuisance_range}")
        if self.nuisance == "coherence" and not (0.0 <= nu_lo and nu_hi <= 1.0):
            raise DomainError(f"coherence range must lie in [0, 1], got {self.nuisance_range}")
        if self.nuisance == "concurrence" and nu_lo < 0.0:
            raise DomainError(f"concurrence range must be nonnegative, got {self.nuisance_range}")
        if self.mode == "verify" and self.nuisance != "theta":
            raise DomainError("verify mode compares the theta-parametrized matrix; "
                              "use --nuisance theta")


class SweepTable:
    """Columnar sweep result: one float64 array per field in ``CSV_FIELDS``
    and ``DELTA_FIELDS`` (NaN marks a blank cell) and one status per row."""

    def __init__(self, columns: dict[str, np.ndarray], status: Sequence[str]):
        self.columns = columns
        self.status = list(status)

    @classmethod
    def concat(cls, tables: Iterable[SweepTable]) -> SweepTable:
        tables = list(tables)
        columns = {name: np.concatenate([t.columns[name] for t in tables])
                   for name in _FIELDS}
        return cls(columns, [st for t in tables for st in t.status])

    def __len__(self) -> int:
        return len(self.status)


_FIELDS = CSV_FIELDS + DELTA_FIELDS
# populated on out-of-reach rows too, so that surface layouts stay rectangular
_KEPT_OUT_OF_REACH = {"s", "sigma", "C", "d"}


def _axis(rng: tuple[float, float, int]) -> np.ndarray:
    lo, hi, steps = rng
    return np.array([lo]) if steps == 1 else np.linspace(lo, hi, steps)


def _on_axis(fn, x: np.ndarray):
    """``fn``, a scalar function, element by element over an axis-shaped
    array (a tuple of arrays if ``fn`` returns a tuple): quantities of one
    axis alone then match the scalar API bit for bit, at the cost of
    O(steps) calls per block."""
    out = np.array([fn(v) for v in x.ravel().tolist()])
    return tuple(c.reshape(x.shape) for c in out.T) if out.ndim == 2 else out.reshape(x.shape)


def _single_block(nuisance: str, s, nu, sigma: float, terms) -> dict:
    """Columns of a single-mode block: ``f_tot_coherence`` and
    ``f_tot_concurrence`` cell by cell, with their branches as masks."""
    d, _, _, om, _, _ = terms

    def no_overlap(f):
        # d = 0: both correction terms vanish (0 * inf where s^2 overflows)
        return np.where(d == 0.0, 1.0 / (4.0 * sigma * sigma), f)

    if nuisance == "concurrence":
        c = nu
        # at s = 0 only the C = 0 column is reachable
        reach = np.where(s == 0.0, c == 0.0, ~(c * c - om > 1e-12 * om))
        rem = om - c * c
        rem = np.where(rem < 4.0 * _EPS * om, 0.0, rem)
        root = np.sqrt(rem)
        root_om = np.sqrt(om)
        f = _concurrence_form(s, sigma, d, om, rem, root, root_om)
        gamma = np.minimum(root / root_om, 1.0)
        # the s = 0, C = 0 cell is the full-coherence limit
        at_zero = (s == 0.0) & (c == 0.0)
        gamma = np.where(at_zero, 1.0, gamma)
        f = np.where(at_zero, _coherence_form(s, sigma, d, 1.0), f)
        theta = np.arccos(gamma)
        return {"theta": theta, "gamma": gamma, "f_tot": no_overlap(f), "_reach": reach}
    gamma = nu if nuisance == "coherence" else _on_axis(math.cos, nu)
    return {"theta": _on_axis(math.acos, gamma), "gamma": gamma,
            "C": np.sqrt((1.0 - gamma * gamma) * om),
            "f_tot": no_overlap(_coherence_form(s, sigma, d, gamma)), "_reach": np.True_}


def _qfim_block(nuisance: str, s, nu, sigma: float, terms) -> dict:
    """Columns of a qfim-mode block: the theta-chart QFIM of ``qfim``, its
    transport to the block's chart, and the precisions, with each scalar
    branch as a mask."""
    om = terms[3]
    if nuisance == "concurrence":
        c_max = np.sqrt(om)
        reach = ~(nu * nu - c_max * c_max > 1e-12 * c_max * c_max)
        theta = np.arcsin(np.minimum(nu / c_max, 1.0))
        ct, st, omc = _angle_terms(theta, np.cos, np.sin)
    else:
        reach = np.True_
        theta = nu if nuisance == "theta" else _on_axis(math.acos, nu)
        ct, st, omc = _on_axis(_angle_terms, theta)
    lam1, _, f_ss, f_tt, f_st, h_s = _theta_block(terms, ct, st, omc)

    if nuisance == "theta":
        g_ss, g_tt, g_st = f_ss, f_tt, f_st
        gamma = ct
    elif nuisance == "coherence":
        g_ss, g_tt, g_st = _to_gamma(f_ss, f_tt, f_st, st)
        # gamma = 1: infinite nuisance block, only F_ss = H_s survives
        g_tt, g_st = (np.where(nu == 1.0, np.nan, g) for g in (g_tt, g_st))
        gamma = nu
    else:
        # the chart is singular at maximum reach; H_s is chart-invariant
        chart = ~(ct < 1e-9)
        g_ss, g_tt, g_st = (np.where(chart, g, np.nan) for g in
                            _to_concurrence(f_ss, f_tt, f_st, terms, ct, st, c_max))
        gamma = ct
    floor = (g_tt < _NUISANCE_FLOOR) & (np.abs(g_st) < _NUISANCE_FLOOR)
    h_n = np.where(floor, g_tt, _h_nuisance(g_ss, g_tt, h_s))       # as _h_pair
    cells = {"theta": theta, "gamma": gamma,
             "f_ss": g_ss, "f_tt": g_tt, "f_st": g_st, "h_s": h_s, "h_nuisance": h_n,
             "_reach": reach, "_lam1": lam1,
             "_theta_f_ss": f_ss, "_theta_f_tt": f_tt, "_theta_f_st": f_st}
    if nuisance != "concurrence":
        cells["C"] = st * np.sqrt(om)
    return cells


def _kernel(spec: SweepSpec) -> dict[str, np.ndarray]:
    """Evaluate a whole block at once over the broadcast ``(s, nuisance)``
    grid, every quantity exactly once per cell, flattened s-major.

    Returns the populated columns (unmasked), the ``_reach`` mask, and the
    theta-chart QFIM and ``lambda1`` the oracle compares (``_``-prefixed).
    """
    s = _axis(spec.s_range)[:, None]
    nu = _axis(spec.nuisance_range)[None, :]
    # a numpy sigma: where sigma^2 underflows, the scalar forms give inf/NaN
    # (caught below) instead of raising ZeroDivisionError
    sigma = np.float64(spec.sigma)
    block = _single_block if spec.mode == "single" else _qfim_block
    # masked cells (out of reach, chart singularities) may divide by zero;
    # the finiteness check below catches any unmasked overflow
    with np.errstate(all="ignore"):
        # the scalar API's separation terms, one call per separation
        terms = _on_axis(lambda v: _separation_terms(v, sigma), s)
        # these blocks divide by 1 - d^2, which has lost bits where it is
        # subnormal (the s = 0 column of single mode has its own limit)
        tiny = (s > 0.0) & (terms[3] < _OM_MIN)
        if (spec.mode != "single" or spec.nuisance == "concurrence") and tiny.any():
            raise DomainError(f"the closed forms do not resolve s = {float(s[tiny][0])!r} "
                              f"at sigma = {spec.sigma!r}")
        cells = block(spec.nuisance, s, nu, sigma, terms)
    cells.update(s=s, sigma=sigma, d=terms[0])
    if spec.nuisance == "concurrence":
        cells["C"] = nu                       # the request, also out of reach
    shape = (s.size, nu.size)
    cells = {name: np.broadcast_to(v, shape).ravel() for name, v in cells.items()}
    reach = cells["_reach"]
    must = ("theta", "gamma", "C", "d") + (
        ("f_tot",) if spec.mode == "single" else ("h_s", "_theta_f_ss", "_theta_f_tt", "_theta_f_st"))
    bad = reach & ~np.logical_and.reduce([np.isfinite(cells[n]) for n in must])
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"the closed forms do not resolve s = {float(cells['s'][i])!r} with "
            f"{spec.nuisance} = {float(nu.ravel()[i % nu.size])!r} at sigma = {spec.sigma!r}"
        )
    return cells


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the Cartesian product of the two axes, s-major, in one
    array pass (see :func:`_kernel`)."""
    cells = _kernel(spec)
    reach = cells["_reach"]
    columns = {name: np.where(reach | (name in _KEPT_OUT_OF_REACH),
                              cells.get(name, np.nan), np.nan)
               for name in _FIELDS}
    status = ["ok" if r else "out_of_reach" for r in reach.tolist()]
    if spec.oracle:
        _attach_deltas(spec, columns, cells, np.flatnonzero(reach))
    return SweepTable(columns, status)


def _attach_deltas(spec: SweepSpec, columns: dict[str, np.ndarray], cells: dict,
                   rows: np.ndarray) -> None:
    """Grid-oracle relative deltas for the in-reach rows, one oracle call per
    separation: sweeps are s-major, so the rows of one ``s`` are contiguous.
    qfim deltas always compare the theta-parametrized matrix."""
    if not rows.size:
        return
    grid_kw = {"n_points": spec.grid_points, "halfwidth": spec.grid_halfwidth}
    s_col = columns["s"][rows]
    for group in np.split(rows, np.flatnonzero(s_col[1:] != s_col[:-1]) + 1):
        s, thetas = float(columns["s"][group[0]]), columns["theta"][group]
        if spec.mode == "single":
            num = _numeric_f_tot(s, spec.sigma, thetas, **grid_kw)
            columns["delta_f_tot"][group] = _rel_delta(columns["f_tot"][group], num)
            continue
        row = numeric_qfim_row(s, spec.sigma, thetas, **grid_kw)
        # the oracle's spectral sum drops eigenvalue pairs below its support
        # cutoff; rows with lambda1 below it keep only delta_f_ss
        comparable = cells["_lam1"][group] >= _SUPPORT_CUTOFF
        for name in ("f_ss", "f_tt", "f_st"):
            delta = _rel_delta(cells["_theta_" + name][group],
                               np.array([getattr(q, name) for q in row]))
            columns["delta_" + name][group] = (
                delta if name == "f_ss" else np.where(comparable, delta, np.nan))


def _rel_delta(analytic, numeric):
    return np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-300)


def worst_oracle_delta(table: SweepTable) -> tuple[float, int | None, str | None]:
    """Largest populated oracle delta with the index of the row it sits on
    and its element (``f_tot``, ``f_ss``, ...); ``(0.0, None, None)`` if
    none are populated."""
    deltas = np.stack([table.columns[name] for name in DELTA_FIELDS])
    if np.isnan(deltas).all():
        return 0.0, None, None
    k, i = np.unravel_index(np.nanargmax(deltas), deltas.shape)
    return float(deltas[k, i]), int(i), DELTA_FIELDS[k][len("delta_"):]


def figure_preset(name: str) -> list[SweepSpec]:
    """Sweep blocks reproducing the bundled figure data sets.

    ``fig1a``/``fig1b``: single-parameter FI surfaces over (s, C) and
    (s, gamma).  ``fig1c``: the fixed s = 0.3 sigma line, once along each
    axis (two blocks).  ``fig2a``/``fig2b``: two-parameter precision H_s
    over (s, C) and (s, gamma).  All use sigma = 1, phi = 0,
    s in [1e-3, 5] (the closed forms are singular at s = 0) and 200-point
    axes by default.
    """
    n = 200
    s_rng = (1e-3, 5.0, n)
    presets = {
        "fig1a": [SweepSpec(mode="single", nuisance="concurrence",
                            s_range=s_rng, nuisance_range=(0.0, 1.0, n))],
        "fig1b": [SweepSpec(mode="single", nuisance="coherence",
                            s_range=s_rng, nuisance_range=(0.0, 1.0, n))],
        "fig1c": [
            SweepSpec(mode="single", nuisance="coherence",
                      s_range=(0.3, 0.3, 1), nuisance_range=(0.0, 1.0, n)),
            SweepSpec(mode="single", nuisance="concurrence",
                      s_range=(0.3, 0.3, 1),
                      nuisance_range=(0.0, concurrence_max(0.3, 1.0), n)),
        ],
        "fig2a": [SweepSpec(mode="qfim", nuisance="concurrence",
                            s_range=s_rng, nuisance_range=(0.0, 1.0, n))],
        "fig2b": [SweepSpec(mode="qfim", nuisance="coherence",
                            s_range=s_rng, nuisance_range=(0.0, 1.0, n))],
    }
    if name not in presets:
        raise DomainError(
            f"unknown figure preset {name!r}; available: {', '.join(sorted(presets))}"
        )
    return presets[name]


def emit(table: SweepTable, fmt: str, destination: str | Path | IO[str],
         include_deltas: bool = False) -> None:
    """Write a table's rows as CSV (17-significant-digit scientific notation) or
    JSON (array of objects, unpopulated keys absent).  Output is
    byte-identical across runs for identical inputs."""
    if fmt not in FORMATS:
        raise DomainError(f"format must be one of {FORMATS}, got {fmt!r}")
    if hasattr(destination, "write"):
        _emit_stream(table, fmt, destination, include_deltas)
        return
    path = Path(destination)
    try:
        with open(path, "w", newline="") as fh:
            _emit_stream(table, fmt, fh, include_deltas)
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {path}: {exc}") from exc


# Rows per chunk.  A CSV chunk's numpy temporaries take ~0.2 kB a cell, so
# 512 rows keep its working set near 1 MB, which the allocator reuses from
# chunk to chunk.  4096 rows (a whole 50 x 50 preset in one chunk) raised
# the peak memory of `superres figure` by 15 % and, on a shared 2-vCPU
# virtual machine, were slower for the fresh pages they touch.  JSON rows
# go through Python templates.
_CSV_CHUNK_ROWS = 512
_JSON_CHUNK_ROWS = 256


def _json_row_format(names: tuple[str, ...], directives: list[str], present: int,
                     status: str) -> str:
    # the layout of json.dump(..., indent=2): one key per line
    entries, skipped = [], ""
    for k, (name, directive) in enumerate(zip(names, directives)):
        if present >> k & 1:
            entries.append(f'{skipped}    "{name}": {directive}')
            skipped = ""
        else:
            skipped += "%.0s"
    entries.append(f'{skipped}    "status": ' + json.dumps(status).replace("%", "%%"))
    return "  {\n" + ",\n".join(entries) + "\n  }"


def _emit_stream(table: SweepTable, fmt: str, fh: IO[str], include_deltas: bool) -> None:
    names = CSV_FIELDS + (DELTA_FIELDS if include_deltas else ())
    if fmt == "csv":
        _write_csv(table, names, fh)
    elif not len(table):
        fh.write("[]\n")
    else:
        sep = "[\n"
        for chunk in _json_rows(table, names):
            fh.write(sep + ",\n".join(chunk))
            sep = ",\n"
        fh.write("\n]\n")


def _json_rows(table: SweepTable, names: tuple[str, ...]):
    """Yield the JSON objects a chunk at a time, each assembled whole by one
    cached ``%`` template per pattern of populated cells and status; floats
    as json writes them, by ``float.__repr__``.

    A column with at most half of its values distinct (told apart by bit
    pattern, so that -0.0 stays -0.0) is formatted once per distinct value
    and enters the template as text; the template formats every other
    column itself, with ``%r``.
    """
    floats = [table.columns[n] for n in names]
    cols, directives = [], []
    for col in floats:
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        if 2 * bits.size <= col.size:
            texts = [repr(v) for v in bits.view(float).tolist()]
            cols.append(np.array(texts, dtype=object)[inverse])
            directives.append("%s")
        else:
            cols.append(col)
            directives.append("%r")
    weights = 1 << np.arange(len(names), dtype=np.int64)
    templates: dict[tuple[int, str], str] = {}
    for lo in range(0, len(table), _JSON_CHUNK_ROWS):
        hi = lo + _JSON_CHUNK_ROWS
        present = (np.isfinite(np.stack([c[lo:hi] for c in floats], axis=1)) @ weights).tolist()
        keys = list(zip(present, table.status[lo:hi]))
        for key in set(keys).difference(templates):
            templates[key] = _json_row_format(names, directives, *key)
        rows = zip(*(c[lo:hi].tolist() for c in cols))
        yield [templates[k] % row for k, row in zip(keys, rows)]


_SLOT = 24        # the longest '%.16e' text: "-d.dddddddddddddddde-ddd"


def _write_csv(table: SweepTable, names: tuple[str, ...], fh: IO[str]) -> None:
    """The header, then the rows a chunk at a time; non-finite cells are
    blank, finite ones ``'%.16e' % v``."""
    fh.write(",".join(names + ("status",)) + "\n")
    labels = {st: i for i, st in enumerate(dict.fromkeys(table.status))}
    encoded = [st.encode() + b"\n" for st in labels]
    width = max(map(len, encoded), default=1)
    status = np.zeros((len(encoded), width), np.uint8)
    status_keep = np.zeros((len(encoded), width), bool)
    for i, raw in enumerate(encoded):
        status[i, :len(raw)] = np.frombuffer(raw, np.uint8)
        status_keep[i, :len(raw)] = True
    codes = np.fromiter(map(labels.__getitem__, table.status), np.intp, len(table))
    for lo in range(0, len(table), _CSV_CHUNK_ROWS):
        rows = slice(lo, lo + _CSV_CHUNK_ROWS)
        fh.write(_csv_rows(np.stack([table.columns[n][rows] for n in names], axis=1),
                           _runs(status).take(codes[rows]), _runs(status_keep).take(codes[rows])))


def _csv_rows(values: np.ndarray, status: np.ndarray, status_keep: np.ndarray) -> str:
    """The CSV text of a ``(rows, columns)`` chunk: one ``(rows, width)``
    byte matrix holds every cell in a fixed slot, the commas and each row's
    status and newline (``status`` and ``status_keep``, one void item per
    row), and the mask of the bytes a row keeps picks the text out."""
    cells_width = values.shape[1] * (_SLOT + 1)
    matrix = np.empty((len(values), cells_width + status.itemsize), np.uint8)
    keep = np.zeros(matrix.shape, bool)
    # the cell region as (rows, columns, slot + comma)
    cells = matrix[:, :cells_width].reshape(values.shape + (_SLOT + 1,))
    cells_keep = keep[:, :cells_width].reshape(cells.shape)
    finite = np.isfinite(values)
    text, text_keep, _ = _e16_cells(values[finite])
    _runs(cells[..., :_SLOT])[finite] = _runs(text)
    _runs(cells_keep[..., :_SLOT])[finite] = _runs(text_keep)
    del text, text_keep                       # before the text is copied out
    cells[..., _SLOT], cells_keep[..., _SLOT] = ord(","), True
    _runs(matrix[:, cells_width:])[:] = status
    _runs(keep[:, cells_width:])[:] = status_keep
    return str(matrix[keep].data, "utf-8")


def _runs(a: np.ndarray) -> np.ndarray:
    """``a`` without its last axis, which must be contiguous, each run along
    it one void item: numpy copies such an item whole, and a strided byte
    axis byte by byte."""
    return a.view(np.dtype((np.void, a.shape[-1] * a.itemsize)))[..., 0]


# The fast path of _e16_cells covers |x| in [1e-280, 1e280]: there 10**(16 - k)
# and its rounding error are normal floats, and no partial product of the
# Dekker split overflows or underflows.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TEN16, _TEN17 = 10**16, 10**17
_SPLIT = 134217729.0      # 2**27 + 1, Dekker's splitter
# y = |x| 10**(16 - k) lies in [1e15, 1e18) when k is within one of x's
# decade.  With p + q = |x| hi exact, |lo| <= 2**-53 hi, |q| <= ulp(p) / 2
# <= 2**6 and y < 2**60:
#   |x| lo is below 2**7, so its rounding and lo's own each err <= 2**-46;
#   r = q + |x| lo is below 2**8 and its rounding errs <= 2**-46;
#   frac = r - floor(r) is exact for r >= 0 and errs <= 2**-53 for r < 0.
# So the computed fraction of y is within 2**-44 of the true one, and a
# fraction more than 2**-40 away from 1/2 rounds the same way for both.
# p is an integer wherever y >= 2**52, which holds for every y in [1e16,
# 1e17); below, the digits come out under 1e16 and the cell runs again.
_MARGIN = 2.0**-40


def _e16_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``'%.16e' % v`` of every float in the 1-D ``values``, in one pass.

    Returns ``(n, 24)`` uint8 text slots, the mask of the bytes each cell
    keeps, and the mask of the cells whose 17 digits the fast path proved
    correctly rounded.  A slot reads ``[-]d.dddddddddddddddde{+,-}[d]dd``;
    the sign and the exponent's third digit are kept only where they are
    written.  The fast path (Grisu-style: Loitsch, PLDI 2010) scales ``|x|``
    by ``10**(16 - k)`` in double-double arithmetic and rounds to an integer
    where the error bound above decides the rounding; the cells it cannot
    decide (ties, ``|x|`` outside ``[1e-280, 1e280]``, non-finite values)
    are formatted by ``%`` one at a time.
    """
    mag = np.abs(values)
    zero = mag == 0.0
    fast = (mag >= _FAST_MIN) & (mag <= _FAST_MAX)
    # zero and % cells carry 1.0: digits 1e16, k = 0
    mag = np.where(fast, mag, 1.0)
    k = np.floor(np.log10(mag)).astype(np.int64)
    digits, sure, up = _scaled_round(mag, k)
    # log10 may put x in the neighbouring decade; such cells round out of
    # [1e16, 1e17) and run once more with k moved by one
    redo = np.flatnonzero(sure & _decade_shift(digits, up).astype(bool))
    if redo.size:
        k[redo] += _decade_shift(digits[redo], up[redo])
        digits[redo], sure[redo], up[redo] = _scaled_round(mag[redo], k[redo])
        sure[redo] &= _decade_shift(digits[redo], up[redo]) == 0
    sure &= fast | zero
    # rounding up into the next decade: 1.0000000000000000e+(k + 1)
    top = digits == _TEN17
    digits[top] = _TEN16
    k += top

    upper = digits // 10**8                   # the leading digit and 8 more
    lead = upper // 10**8
    groups = np.empty((values.size, 4), np.int64)                # 4 x 4 digits
    groups[:, 1] = upper - lead * 10**8
    groups[:, 3] = digits - upper * 10**8
    groups[:, 0::2] = groups[:, 1::2] // 10**4
    groups[:, 1::2] -= groups[:, 0::2] * 10**4
    quads = _digit_quads()
    text = np.empty((values.size, _SLOT), np.uint8)
    text[:, 0], text[:, 2], text[:, 19] = ord("-"), ord("."), ord("e")
    text[:, 1] = lead + (ord("0") - zero)
    _runs(text[:, 3:19])[:] = _runs(quads.take(groups))
    _runs(text[:, 20:])[:] = _runs(quads.take(np.abs(k))[:, None])     # "0ddd"
    text[:, 20] = np.where(k < 0, ord("-"), ord("+"))
    keep = np.ones((values.size, _SLOT), bool)
    keep[:, 0] = np.signbit(values)
    keep[:, 21] = np.abs(k) >= 100
    for i in np.flatnonzero(~sure).tolist():
        raw = ("%.16e" % values[i]).encode()
        text[i, :len(raw)] = np.frombuffer(raw, np.uint8)
        keep[i] = np.arange(_SLOT) < len(raw)
    return text, keep, sure


def _decade_shift(digits: np.ndarray, up: np.ndarray) -> np.ndarray:
    """+1 where ``y = |x| 10**(16 - k)`` is at least ``1e17 + 1/2``, -1 where
    it is below ``1e16`` (``y`` in ``[1e16 - 1/2, 1e16)`` rounds up to
    ``1e16`` but belongs to ``k - 1``), 0 where ``k`` is the decade of the
    17 digits."""
    return (digits > _TEN17).astype(np.int64) - ((digits < _TEN16) | (digits == _TEN16) & up)


def _scaled_round(mag: np.ndarray, k: np.ndarray):
    """``round(mag * 10**(16 - k))`` as int64, whether the rounding is
    certain (see ``_MARGIN``), and whether it rounded up."""
    hi, hi_hi, hi_lo, lo = _powers_of_ten(16 - k)
    # p + q = mag hi exactly: Dekker's product (numpy has no fused multiply-add)
    p = mag * hi
    c = _SPLIT * mag
    mag_hi = c - (c - mag)
    mag_lo = mag - mag_hi
    q = ((mag_hi * hi_hi - p) + mag_hi * hi_lo + mag_lo * hi_hi) + mag_lo * hi_lo
    r = q + mag * lo
    r_whole = np.floor(r)
    frac = r - r_whole
    up = frac > 0.5
    rounded = p.astype(np.int64) + r_whole.astype(np.int64) + up
    return rounded, np.abs(frac - 0.5) > _MARGIN, up


def _powers_of_ten(e: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_power_of_ten`` per element, looked up once per exponent present."""
    if not e.size:
        return (np.empty(0),) * 4
    base = int(e.min())
    used = np.flatnonzero(np.bincount(e - base))
    table = np.zeros((4, used[-1] + 1))
    table[:, used] = np.array([_power_of_ten(base + j) for j in used.tolist()]).T
    return tuple(table.take(e - base, axis=1))


@functools.cache
def _power_of_ten(power: int) -> tuple[float, float, float, float]:
    """``10**power`` as a double-double ``hi + lo`` with ``hi``'s Dekker
    halves: ``hi`` is the nearest float and ``lo`` the nearest float to the
    rest, both from Python ints, whose true division rounds correctly."""
    num, den = (10**power, 1) if power >= 0 else (1, 10**-power)
    hi = num / den
    m, q = hi.as_integer_ratio()
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return hi, hi_hi, hi - hi_hi, (num * q - m * den) / (den * q)


@functools.cache
def _digit_quads() -> np.ndarray:
    """The ASCII text of 0000..9999, one uint32 (four bytes) per number."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        text[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    quads = text.view(np.uint32).ravel()
    quads.flags.writeable = False             # one table shared by every call
    return quads
