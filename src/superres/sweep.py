"""Parameter sweeps in two modes, ``single`` (``F_tot``) and ``qfim`` (the
QFIM and precisions), over (separation, nuisance) with nuisance one of
theta, concurrence, or coherence; figure-preset grids, oracle comparison,
and deterministic CSV/JSON emission.

Sweeps walk the Cartesian product of the two axes in s-major order.
Concurrence requests beyond the reachable maximum at a given separation are
emitted with ``status=out_of_reach`` (fields other than the request left
blank) so that rectangular surface layouts survive.  Identical specs produce
byte-identical output files.

A block is evaluated in one array pass that calls the scalar API's closed
forms and chart functions, written so that they take the broadcast
``(s, nuisance)`` grid as they take floats.  A chart function returns its
values with a flag per branch, where the scalar API raises and a block
blanks the cell: reach (``state_model._concurrence_angle``,
``fisher_single._concurrence_to_gamma``, which also clamps ``C`` at
``C_max``), ``gamma = 1`` (``qfim_two_param._to_gamma``), the singular and
the unresolved concurrence chart (``qfim_two_param._to_concurrence``); the
nuisance floor (``qfim_two_param._h_nuisance``) and ``d = 0``
(``fisher_single._f_tot_form``) pick a value.  Functions of one axis alone
(``state_model._separation_terms`` and, in qfim mode,
``state_model._mode_norms`` among them) go through the scalar API once per
axis value, so theta- and coherence-nuisance blocks agree with it bit for
bit; in concurrence blocks theta depends on both axes and goes
through numpy's vectorized arcsin/arccos/cos/sin, which may differ by an ulp.
Results come back as a columnar :class:`SweepTable`, and the emitters
format whole rows from its columns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import ConfigurationError, DomainError
from .fisher_single import _concurrence_to_gamma, _f_tot_form
from .float_text import e16_cells, repr_cells, write_rows
from .numeric_oracle import (GRID_POINTS, MAX_SPACING, Grid, _check_grid, _numeric_f_tot,
                             numeric_qfim_cells)
from .qfim_two_param import _h_nuisance, _theta_block, _to_concurrence, _to_gamma
from .state_model import (_OM_MIN, _angle_terms, _concurrence_angle, _mode_norms,
                          _require_s_sigma, _separation_terms, concurrence_max)

MODES = ("single", "qfim")
NUISANCES = ("theta", "concurrence", "coherence")
FORMATS = ("csv", "json")
CSV_FIELDS = (
    "s", "sigma", "theta", "gamma", "C", "d",
    "f_tot", "f_ss", "f_tt", "f_st", "h_s", "h_nuisance",
)
DELTA_FIELDS = ("delta_f_tot", "delta_f_ss", "delta_f_tt", "delta_f_st")
_STATUS = ("out_of_reach", "ok")                # a row's status, by its reach
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
    """Validated description of one sweep block, the grid options by the
    oracle's grid rule whether or not the oracle runs; ``dataclasses.replace``
    derives a variant and validates it again.  ``mode`` is ``single``
    (``F_tot``) or ``qfim`` (the QFIM and precisions; ``superres verify`` runs
    a theta-chart qfim block with the oracle on)."""

    mode: str
    nuisance: str = "coherence"
    sigma: float = 1.0
    s_range: tuple[float, float, int] | None = None         # default_ranges
    nuisance_range: tuple[float, float, int] | None = None  # default_ranges
    oracle: bool = False
    grid_points: int = GRID_POINTS
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
        _require_int("grid_points", self.grid_points)
        if self.grid_halfwidth is not None:
            _require_real("grid_halfwidth", self.grid_halfwidth)
        _check_grid(self.grid_points, self.grid_halfwidth)
        # a given halfwidth is every row's grid, and its spacing rule needs no s
        if (self.grid_halfwidth is not None
                and Grid(self.grid_halfwidth, self.grid_points).coarse(self.sigma)):
            raise ConfigurationError(
                f"grid halfwidth {self.grid_halfwidth} with {self.grid_points} points is too "
                f"coarse for sigma = {self.sigma} (needs a spacing of at most "
                f"{MAX_SPACING} sigma)")
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
            if hi == lo and steps > 1:
                raise DomainError(f"{name}-range with max = min must have 1 step, got {rng}")
        if self.s_range[0] < 0.0:
            raise DomainError(f"s-range must be nonnegative, got {self.s_range}")
        if self.mode == "qfim" and self.s_range[0] <= 0.0:
            raise DomainError("qfim/verify sweeps require s > 0 (start at e.g. 1e-3)")
        nu_lo, nu_hi, _ = self.nuisance_range
        if self.nuisance == "theta" and not (0.0 <= nu_lo and nu_hi <= _HALF_PI):
            raise DomainError(f"theta range must lie in [0, pi/2], got {self.nuisance_range}")
        if self.nuisance == "coherence" and not (0.0 <= nu_lo and nu_hi <= 1.0):
            raise DomainError(f"coherence range must lie in [0, 1], got {self.nuisance_range}")
        if self.nuisance == "concurrence" and nu_lo < 0.0:
            raise DomainError(f"concurrence range must be nonnegative, got {self.nuisance_range}")


class SweepTable:
    """Columnar sweep result: one float64 array per field in ``CSV_FIELDS``,
    and in ``DELTA_FIELDS`` where the oracle ran (NaN marks a blank cell),
    and the bool ``reach`` mask of the rows in reach (the others are
    emitted with ``status=out_of_reach``).

    ``axes`` maps a field that varies along one sweep axis alone (or not at
    all) to ``(values, index)`` with ``columns[name] == values[index]``;
    fields on one axis share its index array.  Emit formats such values
    once.  A table without it is emitted the same; only :func:`_kernel`
    builds it."""

    def __init__(self, columns: dict[str, np.ndarray], reach: np.ndarray,
                 axes: dict[str, tuple[np.ndarray, np.ndarray]] | None = None):
        self.columns = columns
        self.reach = reach
        self.axes = {} if axes is None else axes

    @classmethod
    def concat(cls, tables: Iterable[SweepTable]) -> SweepTable:
        """A lone table itself; else the rows of ``tables`` in order, in the
        first one's columns, with no axes."""
        tables = list(tables)
        if len(tables) == 1:
            return tables[0]
        return cls({name: np.concatenate([t.columns[name] for t in tables])
                    for name in tables[0].columns}, np.concatenate([t.reach for t in tables]))

    def __len__(self) -> int:
        return self.reach.size


# populated on out-of-reach rows too, so that surface layouts stay rectangular
_KEPT_OUT_OF_REACH = {"s", "sigma", "C", "d"}


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
    ``f_tot_concurrence`` cell by cell, blank where their flags are set."""
    d, _, e, om = terms
    if nuisance == "concurrence":
        c = nu
        gamma, omg, out = _concurrence_to_gamma(c, om, np.sqrt)
        # at u = 0 only the C = 0 column is reachable, the full-coherence limit
        at_zero = (u == 0.0) & (c == 0.0)
        gamma = np.where(at_zero, 1.0, gamma)
        omg = np.where(at_zero, 0.0, omg)
        cells = {"theta": np.arccos(gamma), "_reach": np.where(u == 0.0, c == 0.0, ~out)}
    else:
        gamma = nu if nuisance == "coherence" else _on_axis(math.cos, nu)
        omg = 1.0 - gamma
        cells = {"theta": _on_axis(math.acos, gamma), "_reach": np.True_,
                 "C": np.sqrt((1.0 - gamma * gamma) * om)}
    f = _f_tot_form(u, d, e, gamma, omg, np.where)
    return {**cells, "gamma": gamma, "f_tot": f / sigma / sigma}


def _qfim_block(nuisance: str, u, nu, sigma: float, terms) -> dict:
    """Columns of a qfim-mode block: the theta-chart QFIM of ``qfim``, its
    transport to the block's chart, and the precisions, blank where a chart
    flag is set.  As there, ``H_nuisance`` is taken at ``sigma = 1``."""
    d, _, e, om = terms
    norms = _on_axis(_mode_norms, u, d, e)
    if nuisance == "concurrence":
        theta, c_max, out = _concurrence_angle(nu, om, np.sqrt, np.arcsin, np.minimum)
        ct, st, omc = _angle_terms(theta, np.cos, np.sin)
    else:
        theta = nu if nuisance == "theta" else _on_axis(math.acos, nu)
        ct, st, omc = _on_axis(_angle_terms, theta)
    block = _theta_block(terms, norms, ct, st, omc)
    f_ss, f_tt, f_st, h_s = block
    g_ss, g_tt, g_st = f_ss, f_tt, f_st         # the theta chart's own
    reach = regular = np.True_
    gamma = ct
    if nuisance == "coherence":
        (g_ss, g_tt, g_st, _), limit = _to_gamma(block, st, nu)
        regular, gamma = ~limit, nu
    elif nuisance == "concurrence":
        (g_ss, g_tt, g_st, _), singular, resolved = _to_concurrence(block, terms, ct, st, c_max)
        reach, regular = ~out, ~singular
        # an unresolved G_ss in a regular cell is refused (_kernel)
        g_ss = np.where(regular & resolved, g_ss, np.nan)
    g_tt, g_st = (np.where(regular, g, np.nan) for g in (g_tt, g_st))
    cells = {"theta": theta, "gamma": gamma, "f_ss": g_ss / sigma / sigma, "f_tt": g_tt,
             "f_st": g_st / sigma, "h_s": h_s / sigma / sigma,
             "h_nuisance": _h_nuisance((g_ss, g_tt, g_st, h_s), np.where),
             "_reach": reach, "_regular": regular, "_theta_f_ss": f_ss / sigma / sigma,
             "_theta_f_tt": f_tt, "_theta_f_st": f_st / sigma}
    if nuisance != "concurrence":
        cells["C"] = st * np.sqrt(om)
    return cells


def _kernel(spec: SweepSpec) -> tuple[dict[str, np.ndarray], dict[str, tuple]]:
    """Evaluate a whole block at once over the broadcast ``(s, nuisance)``
    grid, every quantity exactly once per cell, flattened s-major: at
    ``sigma = 1`` on ``u = s / sigma``, scaled back as in the scalar API.

    Returns the populated columns (unmasked), the ``_reach`` mask, the
    ``_regular`` mask of qfim-mode cells where the chart is not singular, and
    the theta-chart QFIM the oracle compares (``_``-prefixed); and, for the
    fields computed on one axis alone or as a constant, their ``(values,
    index)`` (see :class:`SweepTable`), read off the shapes they broadcast
    from: where a row is out of reach, only for the fields kept there.
    """
    s = np.linspace(*spec.s_range)[:, None]
    nu = np.linspace(*spec.nuisance_range)[None, :]
    block = _single_block if spec.mode == "single" else _qfim_block
    # masked cells (out of reach, chart singularities) may divide by zero;
    # the finiteness check below catches any unmasked overflow
    with np.errstate(all="ignore"):
        u = s / spec.sigma
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
    # an out-of-reach row blanks the fields not kept there
    all_reach = bool(np.all(cells["_reach"]))
    axes, indices = {}, {}
    for name, v in cells.items():
        if (name in CSV_FIELDS and np.size(v) < s.size * nu.size
                and (all_reach or name in _KEPT_OUT_OF_REACH)):
            if np.shape(v) not in indices:
                index = np.empty(shape, np.intp)
                index[...] = np.arange(np.size(v)).reshape(np.shape(v))
                indices[np.shape(v)] = index.ravel()
            axes[name] = (np.ravel(v).astype(float), indices[np.shape(v)])
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
    return cells, axes


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the Cartesian product of the two axes, s-major, in one
    array pass (see :func:`_kernel`)."""
    cells, axes = _kernel(spec)
    reach = cells["_reach"]
    # the fields the kernel did not produce share one read-only blank column
    columns = dict.fromkeys(CSV_FIELDS, np.broadcast_to(np.nan, reach.shape))
    columns.update((name, v if name in _KEPT_OUT_OF_REACH else np.where(reach, v, np.nan))
                   for name, v in cells.items() if name in CSV_FIELDS)
    if spec.oracle:
        _attach_deltas(spec, columns, cells, np.flatnonzero(reach))
    return SweepTable(columns, reach, axes)


def _attach_deltas(spec: SweepSpec, columns: dict[str, np.ndarray], cells: dict,
                   rows: np.ndarray) -> None:
    """Grid-oracle relative deltas for the in-reach rows, in new
    ``DELTA_FIELDS`` columns, one oracle call per ``_ORACLE_CELLS`` rows.
    qfim deltas always compare the theta-parametrized matrix, ``f_st`` on
    its Cauchy-Schwarz scale ``sqrt(F_ss F_tt)`` of the oracle (it falls far
    below both, as ~1e-66 at ``s = 35 sigma``, and a relative delta would
    read the grid's round-off); ``f_tt`` and ``f_st`` are left blank where
    ``sin(theta) = 0``, where the closed form is the continuous extension
    and the oracle the pointwise QFI of a pure state."""
    grid_kw = {"n_points": spec.grid_points, "halfwidth": spec.grid_halfwidth}
    columns.update((name, np.full(columns["s"].size, np.nan)) for name in DELTA_FIELDS)
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
    none are populated or the table has no delta columns."""
    blank = np.full(len(table), np.nan)
    deltas = np.stack([table.columns.get(name, blank) for name in DELTA_FIELDS])
    if np.isnan(deltas).all():
        return 0.0, None, None
    k, i = np.unravel_index(np.nanargmax(deltas), deltas.shape)
    return float(deltas[k, i]), int(i), DELTA_FIELDS[k][len("delta_"):]


_S_RANGE, _UNIT_RANGE = (1e-3, 5.0, 200), (0.0, 1.0, 200)
# each preset's blocks, (mode, nuisance, s range, nuisance range)
_PRESETS = {
    "fig1a": [("single", "concurrence", _S_RANGE, _UNIT_RANGE)],
    "fig1b": [("single", "coherence", _S_RANGE, _UNIT_RANGE)],
    "fig1c": [("single", "coherence", (0.3, 0.3, 1), _UNIT_RANGE),
              ("single", "concurrence", (0.3, 0.3, 1), (0.0, concurrence_max(0.3, 1.0), 200))],
    "fig2a": [("qfim", "concurrence", _S_RANGE, _UNIT_RANGE)],
    "fig2b": [("qfim", "coherence", _S_RANGE, _UNIT_RANGE)],
}


def figure_preset(name: str) -> list[SweepSpec]:
    """Sweep blocks reproducing the bundled figure data sets.

    ``fig1a``/``fig1b``: single-parameter FI surfaces over (s, C) and
    (s, gamma).  ``fig1c``: the fixed s = 0.3 sigma line, once along each
    axis (two blocks).  ``fig2a``/``fig2b``: two-parameter precision H_s
    over (s, C) and (s, gamma).  All use sigma = 1, phi = 0,
    s in [1e-3, 5] (the closed forms are singular at s = 0) and 200-point
    axes by default.
    """
    if name not in _PRESETS:
        raise DomainError(
            f"unknown figure preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        )
    return [SweepSpec(mode=mode, nuisance=nuisance, s_range=s_rng, nuisance_range=n_rng)
            for mode, nuisance, s_rng, n_rng in _PRESETS[name]]


def emit(table: SweepTable, fmt: str, destination: str | Path | IO[str]) -> None:
    """Write a table's rows as CSV (17-significant-digit scientific notation) or
    JSON (array of objects, unpopulated keys absent): the ``CSV_FIELDS``, the
    ``DELTA_FIELDS`` where the table holds them, and each row's status.
    Output is byte-identical across runs for identical inputs."""
    if fmt not in FORMATS:
        raise DomainError(f"format must be one of {FORMATS}, got {fmt!r}")
    if hasattr(destination, "write"):
        _emit_stream(table, fmt, destination)
        return
    path = Path(destination)
    try:
        with open(path, "w", newline="") as fh:
            _emit_stream(table, fmt, fh)
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {path}: {exc}") from exc


def _emit_stream(table: SweepTable, fmt: str, fh: IO[str]) -> None:
    names = CSV_FIELDS + (DELTA_FIELDS if DELTA_FIELDS[0] in table.columns else ())
    columns = [table.axes.get(name, table.columns[name]) for name in names]
    if fmt == "csv":
        fh.write(",".join(names + ("status",)) + "\n")
        write_rows(fh, columns, table.reach, e16_cells, [b""] * len(names), b",", b"",
                   [st.encode() + b"\n" for st in _STATUS])
    elif not len(table):
        fh.write("[]\n")
    else:
        # the layout of json.dump(..., indent=2): each row opens with the
        # ",\n" that ends the row before it, which the first row drops
        fh.write("[\n")
        write_rows(fh, columns, table.reach, repr_cells,
                   [f'    "{name}": '.encode() for name in names], b",\n", b",\n  {\n",
                   [f'    "status": "{st}"\n  }}'.encode() for st in _STATUS],
                   drop_blank=True, lead=2)
        fh.write("\n]\n")
