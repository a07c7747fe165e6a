"""Shared brute-force helpers for the test suite.

These deliberately rebuild quantities from sampled amplitudes (trapezoid
quadrature of the sources, the grid oracle's branch FI, central differences
of grid-sampled eigenmodes), from a Hermite-Gauss representation of the
source, or from the 4x4 operator layer, so the closed forms under test are
checked against an independent route.
"""

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from superres import (
    ConfigurationError,
    Grid,
    default_grid,
    overlap,
    spectral,
    weighted_fi_reconstruct,
)
from superres.float_text import DROP, e16_cells, repr_cells
from superres.sweep import CSV_FIELDS, DELTA_FIELDS
from superres.numeric_oracle import _branch_fi, _norm2, _row_samples

# environment for subprocesses that import this checkout's package
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def psf(x: np.ndarray, sigma: float) -> np.ndarray:
    """The Gaussian PSF amplitude ``(2 pi sigma^2)^(-1/4) exp(-x^2 / (4 sigma^2))``."""
    return (2.0 * math.pi * sigma * sigma) ** (-0.25) * np.exp(-x * x / (4.0 * sigma * sigma))


@dataclass(frozen=True)
class GridField:
    """Real spatial amplitude sampled on a grid (units 1/sqrt(length))."""

    grid: Grid
    values: np.ndarray

    def inner(self, other: "GridField") -> float:
        return float(self.grid.weights @ (self.values * other.values))

    def norm(self) -> float:
        return math.sqrt(float(self.grid.weights @ (self.values * self.values)))


def make_sources(s: float, sigma: float, grid: Grid | None = None) -> tuple[GridField, GridField]:
    """Sampled displaced PSF amplitudes ``h(x + s/2)``, ``h(x - s/2)``,
    unit-normalized under the trapezoid rule, on ``grid`` (by default
    :func:`default_grid`), which must keep eight PSF widths of margin."""
    grid = default_grid(s, sigma) if grid is None else grid
    if not grid.fits(s, sigma):
        raise ConfigurationError(f"grid halfwidth {grid.halfwidth} too narrow for s = {s}")
    fields = []
    for sign in (+1.0, -1.0):
        v = psf(grid.x + sign * s / 2.0, sigma)
        # intensity below 1e-12 at the edges keeps trapezoid tails ~1e-15
        if v[0] ** 2 > 1e-12 or v[-1] ** 2 > 1e-12:
            raise ConfigurationError("intensity has not decayed at the grid edge")
        v = v / math.sqrt(float(grid.weights @ (v * v)))
        v.setflags(write=False)
        fields.append(GridField(grid=grid, values=v))
    return fields[0], fields[1]


def weight_term_reconstruct(p) -> float:
    """The rejected reading of the branch-weighted sum:
    :func:`weighted_fi_reconstruct` plus the classical information
    ``sum_i (d p_i/ds)^2 / p_i`` of the trace-renormalized weights
    ``p_i = N_i / (N1 + N2)``.  It overshoots the closed form wherever the
    weights depend on ``s``."""
    tri = overlap(p.s, p.sigma)
    g = math.cos(p.theta)
    trace = 1.0 + tri.d * g
    n1, n2 = 0.5 * (1.0 + g * g + 2.0 * tri.d * g), 0.5 * (1.0 - g * g)
    dp1 = g * tri.d1 * (1.0 - g * g) / (2.0 * trace * trace)
    total = weighted_fi_reconstruct(p)
    for weight, dw in ((n1 / trace, dp1), (n2 / trace, -dp1)):
        if weight > 1e-15:
            total += dw * dw / weight
    return total


def grid_eigvec_derivative_norms(s: float, sigma: float = 1.0,
                                 eps: float = 1e-5) -> tuple[float, float]:
    """Squared norms of d e1/ds and d e2/ds, from central differences of the
    grid-sampled eigenmodes (overlap taken by trapezoid, not closed form)."""
    grid = default_grid(s + 1.0, sigma)

    def modes(sv):
        hp, hm = make_sources(sv, sigma, grid)
        d = hp.inner(hm)
        e1 = (hm.values - hp.values) / math.sqrt(2.0 * (1.0 - d))
        e2 = (hm.values + hp.values) / math.sqrt(2.0 * (1.0 + d))
        return e1, e2

    e1_hi, e2_hi = modes(s + eps)
    e1_lo, e2_lo = modes(s - eps)
    de1 = (e1_hi - e1_lo) / (2.0 * eps)
    de2 = (e2_hi - e2_lo) / (2.0 * eps)
    w = grid.weights
    return float(w @ (de1 * de1)), float(w @ (de2 * de2))


def grid_branch_fi(s: float, plus: float, minus: float, sigma: float = 1.0) -> float:
    """Pure-state FI of the normalized family ``plus h(x + s/2) + minus
    h(x - s/2)`` by the grid oracle's one pure-state FI (its row kernel's
    branch FI)."""
    r = _row_samples(s, sigma, 4096, None)
    a = plus * r[:, 0] + minus * r[:, 1]
    da = plus * r[:, 2] + minus * r[:, 3]
    return float(_branch_fi(a[None], da[None])[0])


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :].conj()


def spectral_sum_qfim_row(s: float, sigma: float, thetas, phi: float = 0.0,
                          n_points: int = 4096, cutoff: float = 1e-12):
    """The grid oracle's QFIM by its former route, a reference for its
    closed-form support solve: the full projected 4x4 density matrices of
    the same row samples, a stacked ``eigh``, and the spectral SLD sum over
    the eigenvalue pairs summing to more than ``cutoff``.  Returns the
    arrays ``(f_ss, f_tt, f_st)``.  ``eigh`` resolves the small eigenvalue
    only to an absolute ~1e-16, so this is accurate only where it is far
    above that."""
    r_plus, r_minus, r_d_plus, r_d_minus = _row_samples(s, sigma, n_points, None).T
    theta = np.asarray(thetas, dtype=float).reshape(-1, 1)
    phase = np.exp(1j * phi)
    ct, st = np.cos(theta), np.sin(theta)
    a = r_plus + (ct * phase) * r_minus
    v = st * r_minus
    n = (_norm2(a) + _norm2(v))[:, None, None]
    rho = (_outer(a, a) + _outer(v, v)) / n
    lams, vecs = np.linalg.eigh(rho)
    vecs_h = np.swapaxes(vecs, -1, -2).conj()

    def d_rho(da, dv):
        dm = _outer(a, da) + _outer(da, a) + _outer(v, dv) + _outer(dv, v)
        dn = 2.0 * (np.sum(a.conj() * da, axis=-1).real + np.sum(v.conj() * dv, axis=-1).real)
        d = vecs_h @ ((dm - rho * dn[:, None, None]) / n) @ vecs
        return 0.5 * (d + np.swapaxes(d, -1, -2).conj())

    def element(da, db):
        den = lams[..., :, None] + lams[..., None, :]
        terms = np.divide((da * np.swapaxes(db, -1, -2)).real, den,
                          out=np.zeros(den.shape), where=den > cutoff)
        return (terms + np.swapaxes(terms, -1, -2)).sum(axis=(-2, -1))

    ds = d_rho(r_d_plus + (ct * phase) * r_d_minus, st * r_d_minus)
    dt = d_rho(-(st * phase) * r_minus, ct * r_minus)
    return element(ds, ds), element(dt, dt), element(ds, dt)


def hg_coefficients(s: float, sigma: float = 1.0, n_max: int = 40) -> np.ndarray:
    """Hermite-Gauss coefficients ``c_n = exp(-a^2/2) a^n / sqrt(n!)``,
    ``a = s / (4 sigma)``, of the source ``h(x - s/2)`` in the width-sigma
    basis; the mirrored source carries ``(-1)^n c_n``."""
    a = s / (4.0 * sigma)
    c = np.empty(n_max + 1)
    c[0] = math.exp(-a * a / 2.0)
    for n in range(1, n_max + 1):
        c[n] = c[n - 1] * a / math.sqrt(n)
    return c


def hg_pure_qfi(s: float, sigma: float = 1.0, n_max: int = 40,
                eps: float = 1e-5) -> float:
    """Pure-state FI of the displaced source computed entirely in
    Hermite-Gauss coefficient space (displaced-ground-state law)."""
    mid = hg_coefficients(s, sigma, n_max)
    delta = (hg_coefficients(s + eps, sigma, n_max)
             - hg_coefficients(s - eps, sigma, n_max)) / (2.0 * eps)
    return 4.0 * (float(delta @ delta) - float(mid @ delta) ** 2)


# The 4x4 operator layer in the frame {e1, e2, e3, e4} of the qfim_two_param
# module docstring: the reference its closed forms are checked against.

def rho4(p) -> np.ndarray:
    """Reduced spatial state ``diag(lambda1, lambda2, 0, 0)``."""
    spec = spectral(p)
    return np.diag([spec.lambda1, spec.lambda2, 0.0, 0.0])


def drho(p) -> tuple[np.ndarray, np.ndarray]:
    """``(d rho/ds, d rho/dtheta)``, with ``1 - d^2`` by ``expm1``."""
    spec, tri = spectral(p), overlap(p.s, p.sigma)
    st, den = math.sin(p.theta), 1.0 + tri.d * math.cos(p.theta)
    y = tri.d1 * st * st / (2.0 * den * den)
    x = -math.expm1(-p.s * p.s / (4.0 * p.sigma * p.sigma)) * st / (2.0 * den * den)
    ds = np.diag([-y, y, 0.0, 0.0])
    ds[0, 2] = ds[2, 0] = spec.lambda1 * spec.a3
    ds[1, 3] = ds[3, 1] = spec.lambda2 * spec.a4
    return ds, np.diag([x, -x, 0.0, 0.0])


def sld_pair(p) -> tuple[np.ndarray, np.ndarray]:
    """``(L_s, L_theta)`` solving ``d rho = (L rho + rho L)/2`` in the
    eigenframe, zero on eigenvalue pairs that sum to at most 1e-12."""
    lams = np.diag(rho4(p))
    den = lams[:, None] + lams
    return tuple(np.divide(2.0 * m, den, out=np.zeros((4, 4)), where=den > 1e-12)
                 for m in drho(p))


def trace_rule(rho: np.ndarray, la: np.ndarray, lb: np.ndarray) -> float:
    """QFIM element ``Tr[rho (L_a L_b + L_b L_a)]/2``."""
    return 0.5 * float(np.trace(rho @ (la @ lb + lb @ la)))


def commutator_expectation(p) -> float:
    """``Tr(rho [L_s, L_theta])``, zero where one measurement is optimal for
    both parameters."""
    l_s, l_t = sld_pair(p)
    return float(np.trace(rho4(p) @ (l_s @ l_t - l_t @ l_s)))


def cell_by_cell_text(table, fmt: str) -> str:
    """What ``emit`` must write for a ``SweepTable``, built one cell at a
    time: the ``CSV_FIELDS``, and the ``DELTA_FIELDS`` where the table holds
    them, as ``f"{v:.16e}"`` CSV cells or ``json.dumps(..., indent=2)``;
    NaN and inf cells blank."""
    names = CSV_FIELDS + tuple(n for n in DELTA_FIELDS if n in table.columns)
    columns = [table.columns[n].tolist() for n in names]
    cells = [{n: v for n, v in zip(names, row) if math.isfinite(v)}
             for row in zip(*columns)]
    status = ["ok" if r else "out_of_reach" for r in table.reach.tolist()]
    if fmt == "json":
        return json.dumps([{**c, "status": st} for c, st in zip(cells, status)],
                          indent=2) + "\n"
    return ",".join(names + ("status",)) + "\n" + "".join(
        ",".join(f"{c[n]:.16e}" if n in c else "" for n in names) + f",{st}\n"
        for c, st in zip(cells, status))


def cell_texts(cells, values) -> tuple[list[str], np.ndarray]:
    """The text a cell kernel of ``float_text`` gives each value of a 1-D
    float array, its slots read without their unwritten bytes, and the mask
    of the cells it certified."""
    text, sure = cells(np.asarray(values, dtype=float))
    lines = np.concatenate([text, np.full((len(text), 1), ord("\n"), np.uint8)], axis=1)
    return lines[lines != DROP].tobytes().decode().split("\n")[:-1], sure


def e16_cell_texts(values) -> tuple[list[str], np.ndarray]:
    """``cell_texts`` of the CSV kernel, ``'%.16e' % v``."""
    return cell_texts(e16_cells, values)


def repr_cell_texts(values) -> tuple[list[str], np.ndarray]:
    """``cell_texts`` of the JSON kernel, ``repr(v)``."""
    return cell_texts(repr_cells, values)
