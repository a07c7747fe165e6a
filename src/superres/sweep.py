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
mask.  Functions of one axis alone (``state_model._separation_terms`` and,
in qfim mode, ``state_model._mode_norms`` among them) go through the scalar
API once per axis value, so theta- and coherence-nuisance blocks agree with
it bit for bit; in concurrence blocks theta depends on both axes and goes
through numpy's vectorized arcsin/arccos/cos/sin, which may differ by an ulp.
Results come back as a columnar :class:`SweepTable`, and the emitters
format whole rows from its columns.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import DomainError
from .fisher_single import _EPS, _f_tot_form
from .float_text import E16_SLOT, REPR_SLOT, e16_cells, repr_cells, write_rows
from .numeric_oracle import _numeric_f_tot, numeric_qfim_cells
from .qfim_two_param import (
    _below_floor,
    _chart_singular,
    _h_nuisance,
    _theta_block,
    _to_concurrence,
    _to_gamma,
)
from .state_model import (_OM_MIN, _angle_terms, _mode_norms, _out_of_reach,
                          _require_s_sigma, _separation_terms, concurrence_max)

MODES = ("single", "qfim", "verify")
NUISANCES = ("theta", "concurrence", "coherence")
FORMATS = ("csv", "json")
CSV_FIELDS = (
    "s", "sigma", "theta", "gamma", "C", "d",
    "f_tot", "f_ss", "f_tt", "f_st", "h_s", "h_nuisance",
)
DELTA_FIELDS = ("delta_f_tot", "delta_f_ss", "delta_f_tt", "delta_f_st")
VERIFY_TOLERANCE = 1e-6
# cells per oracle call: the QFIM oracle's temporaries take ~0.9 kB a cell
_ORACLE_CELLS = 8192

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
        _require_s_sigma(0.0, self.sigma)       # the s axis has its own checks below
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


def _on_axis(fn, x: np.ndarray, *more: np.ndarray):
    """``fn``, a scalar function, element by element over an axis-shaped
    array and any more arrays of its shape, as its arguments (a tuple of
    arrays if ``fn`` returns a tuple): quantities of one axis alone then
    match the scalar API bit for bit, at the cost of O(steps) calls per
    block."""
    out = np.array([fn(*v) for v in zip(*(a.ravel().tolist() for a in (x, *more)))])
    return tuple(c.reshape(x.shape) for c in out.T) if out.ndim == 2 else out.reshape(x.shape)


def _single_block(nuisance: str, u, nu, sigma: float, terms) -> dict:
    """Columns of a single-mode block: ``f_tot_coherence`` and
    ``f_tot_concurrence`` cell by cell, with their branches as masks."""
    d, _, e, om = terms
    if nuisance == "concurrence":
        c = nu
        # at u = 0 only the C = 0 column is reachable
        reach = np.where(u == 0.0, c == 0.0, ~_out_of_reach(c, om))
        rem = om - c * c
        rem = np.where(rem < 4.0 * _EPS * om, 0.0, rem)
        root = np.sqrt(rem)
        root_om = np.sqrt(om)
        # the u = 0, C = 0 cell is the full-coherence limit
        at_zero = (u == 0.0) & (c == 0.0)
        gamma = np.where(at_zero, 1.0, np.minimum(root / root_om, 1.0))
        omg = np.where(at_zero, 0.0, (om - rem) / (om + root_om * root))
        cells = {"theta": np.arccos(gamma), "_reach": reach}
    else:
        gamma = nu if nuisance == "coherence" else _on_axis(math.cos, nu)
        omg = 1.0 - gamma
        cells = {"theta": _on_axis(math.acos, gamma), "_reach": np.True_,
                 "C": np.sqrt((1.0 - gamma * gamma) * om)}
    # d = 0: the u^2 term vanishes (0 * inf where u^2 overflows)
    f = np.where(d == 0.0, 0.25, _f_tot_form(u, d, e, gamma, omg))
    return {**cells, "gamma": gamma, "f_tot": f / sigma / sigma}


def _qfim_block(nuisance: str, u, nu, sigma: float, terms) -> dict:
    """Columns of a qfim-mode block: the theta-chart QFIM of ``qfim``, its
    transport to the block's chart, and the precisions, with each scalar
    branch as a mask.  As there, ``H_nuisance`` is taken at ``sigma = 1``."""
    d, _, e, om = terms
    norms = _on_axis(_mode_norms, u, d, e)
    if nuisance == "concurrence":
        c_max = np.sqrt(om)
        reach = ~_out_of_reach(nu, om)
        theta = np.arcsin(np.minimum(nu / c_max, 1.0))
        ct, st, omc = _angle_terms(theta, np.cos, np.sin)
    else:
        reach = np.True_
        theta = nu if nuisance == "theta" else _on_axis(math.acos, nu)
        ct, st, omc = _on_axis(_angle_terms, theta)
    block = _theta_block(terms, norms, ct, st, omc)
    f_ss, f_tt, f_st, h_s = block

    if nuisance == "theta":
        g_ss, g_tt, g_st = f_ss, f_tt, f_st
        gamma, regular = ct, np.True_
    elif nuisance == "coherence":
        g_ss, g_tt, g_st, _ = _to_gamma(block, st)
        # gamma = 1: infinite nuisance block, only F_ss = H_s survives
        regular = nu != 1.0
        g_tt, g_st = (np.where(regular, g, np.nan) for g in (g_tt, g_st))
        gamma = nu
    else:
        # the chart is singular at maximum reach; H_s is chart-invariant
        regular = ~_chart_singular(ct)
        g_ss, g_tt, g_st = (np.where(regular, g, np.nan) for g in
                            _to_concurrence(block, terms, ct, st, c_max)[:3])
        gamma = ct
    h_n = np.where(_below_floor(g_tt, g_st), g_tt, _h_nuisance(g_ss, g_tt, h_s))
    cells = {"theta": theta, "gamma": gamma, "f_ss": g_ss / sigma / sigma, "f_tt": g_tt,
             "f_st": g_st / sigma, "h_s": h_s / sigma / sigma, "h_nuisance": h_n,
             "_reach": reach, "_regular": regular, "_theta_f_ss": f_ss / sigma / sigma,
             "_theta_f_tt": f_tt, "_theta_f_st": f_st / sigma}
    if nuisance != "concurrence":
        cells["C"] = st * np.sqrt(om)
    return cells


def _kernel(spec: SweepSpec) -> dict[str, np.ndarray]:
    """Evaluate a whole block at once over the broadcast ``(s, nuisance)``
    grid, every quantity exactly once per cell, flattened s-major: at
    ``sigma = 1`` on ``u = s / sigma``, scaled back as in the scalar API.

    Returns the populated columns (unmasked), the ``_reach`` mask, the
    ``_regular`` mask of qfim-mode cells where the chart is not singular, and
    the theta-chart QFIM the oracle compares (``_``-prefixed).
    """
    s = _axis(spec.s_range)[:, None]
    nu = _axis(spec.nuisance_range)[None, :]
    u = s / spec.sigma
    block = _single_block if spec.mode == "single" else _qfim_block
    # masked cells (out of reach, chart singularities) may divide by zero;
    # the finiteness check below catches any unmasked overflow
    with np.errstate(all="ignore"):
        # the scalar API's separation terms, one call per separation
        terms = _on_axis(_separation_terms, u)
        # these blocks divide by 1 - d^2, which has lost bits where it is
        # subnormal (the s = 0 column of single mode has its own limit)
        tiny = (s > 0.0) & (terms[3] < _OM_MIN)
        if (spec.mode != "single" or spec.nuisance == "concurrence") and tiny.any():
            raise DomainError(f"the closed forms do not resolve s = {float(s[tiny][0])!r} "
                              f"at sigma = {spec.sigma!r}")
        cells = block(spec.nuisance, u, nu, spec.sigma, terms)
    cells.update(s=s, sigma=spec.sigma, d=terms[0])
    if spec.nuisance == "concurrence":
        cells["C"] = nu                       # the request, also out of reach
    shape = (s.size, nu.size)
    cells = {name: np.broadcast_to(v, shape).ravel() for name, v in cells.items()}
    reach = cells["_reach"]
    must = ("theta", "gamma", "C", "d") + (
        ("f_tot",) if spec.mode == "single" else ("h_s", "_theta_f_ss", "_theta_f_tt", "_theta_f_st"))
    bad = reach & ~np.logical_and.reduce([np.isfinite(cells[n]) for n in must])
    if spec.mode != "single":
        # the chart's own matrix, blank by design where the chart is singular
        bad |= reach & cells["_regular"] & ~np.logical_and.reduce(
            [np.isfinite(cells[n]) for n in ("f_ss", "f_tt", "f_st", "h_nuisance")])
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
    ``_ORACLE_CELLS`` of them.  qfim deltas always compare the
    theta-parametrized matrix, ``f_st`` on its Cauchy-Schwarz scale
    ``sqrt(F_ss F_tt)`` of the oracle (it falls far below both, as ~1e-66
    at ``s = 35 sigma``, and a relative delta would read the grid's round-off);
    ``f_tt`` and ``f_st`` are left blank where ``sin(theta) = 0``, where the
    closed form is the continuous extension and the oracle the pointwise QFI
    of a pure state."""
    grid_kw = {"n_points": spec.grid_points, "halfwidth": spec.grid_halfwidth}
    for part in np.split(rows, range(_ORACLE_CELLS, rows.size, _ORACLE_CELLS)):
        s, thetas = columns["s"][part], columns["theta"][part]
        if spec.mode == "single":
            num = _numeric_f_tot(s, spec.sigma, thetas, **grid_kw)
            columns["delta_f_tot"][part] = _rel_delta(columns["f_tot"][part], num, num)
            continue
        nums = numeric_qfim_cells(s, spec.sigma, thetas, **grid_kw)
        blank = np.sin(thetas) == 0.0
        scales = (nums[0], nums[1], np.sqrt(nums[0] * nums[1]))
        for name, num, scale in zip(("f_ss", "f_tt", "f_st"), nums, scales):
            delta = _rel_delta(cells["_theta_" + name][part], num, scale)
            columns["delta_" + name][part] = np.where(blank & (name != "f_ss"), np.nan, delta)


def _rel_delta(analytic, numeric, scale):
    return np.abs(analytic - numeric) / np.maximum(np.abs(scale), 1e-300)


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


def _emit_stream(table: SweepTable, fmt: str, fh: IO[str], include_deltas: bool) -> None:
    names = CSV_FIELDS + (DELTA_FIELDS if include_deltas else ())
    columns = [table.columns[name] for name in names]
    if fmt == "csv":
        fh.write(",".join(names + ("status",)) + "\n")
        write_rows(fh, columns, table.status, e16_cells, E16_SLOT, [b""] * len(names), b",",
                   b"", lambda st: st.encode() + b"\n")
    elif not len(table):
        fh.write("[]\n")
    else:
        # the layout of json.dump(..., indent=2): each row opens with the
        # ",\n" that ends the row before it, which the first row drops
        fh.write("[\n")
        write_rows(fh, columns, table.status, repr_cells, REPR_SLOT,
                   [f'    "{name}": '.encode() for name in names], b",\n", b",\n  {\n",
                   lambda st: b'    "status": ' + json.dumps(st).encode() + b"\n  }",
                   drop_blank=True, lead=2)
        fh.write("\n]\n")
