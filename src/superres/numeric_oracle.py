"""Brute-force verification layer on a discretized position grid.

Everything here is computed from sampled Gaussian amplitudes with trapezoid
integration — none of the closed forms from the analytic modules are reused.

The grid work depends on ``s`` alone and is done once per distinct
separation, in one row pass per oracle call: after every row's checks, one
buffer is refilled in place for each ``s`` with four sampled vectors, both
sources and their derivatives by ``s``, which the sampled PSF gives exactly:
``d h(x +- s/2)/ds = -+ (x +- s/2) h(x +- s/2) / (4 sigma^2)``.  An R-only
Householder QR of their ``sqrt(w)``-scaled columns gives their coordinates
in an orthonormal basis of their span, with no basis matrix formed (exact
however close to collinear the vectors get at small s).  The state and its
derivatives by s and theta lie in that span, so theta and phi only set the
branch coefficients.  There ``h(x + s/2) = (r00, 0, 0, 0)`` and
``h(x - s/2) = (r01, r11, 0, 0)``: the density matrix lives on a 2x2
support block and coordinates 2 and 3 are its exact kernel, so the QFIM is
the support-plus-kernel SLD sum (Liu, Yuan, Lu and Wang, J. Phys. A 53,
023001 (2020)) of a closed-form 2x2 eigensolve, with no eigendecomposition
routine and no cutoff.  It and the weighted FI of single mode run
elementwise over all (s, theta) cells of a sweep in one call; the
concurrence is read off the same coordinates.

With the default grid (4096 points, halfwidth ``8 sigma + s``) the oracle
agrees with the closed forms to ~1e-11 relative for s from 1e-3 sigma up,
and to ~2e-10 down to 1e-7 sigma.  A sweep's oracle call runs in a few
milliseconds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .qfim_two_param import Qfim2
from .state_model import ModelParams, _require_s_sigma

GRID_POINTS = 4096      # the grid size wherever none is given


def _check_grid(n_points: int, halfwidth: float | None) -> None:
    """The grid rule: ``n_points`` a power of two, at least 1024, and
    ``halfwidth`` positive and finite, or ``None`` for the default."""
    if n_points < 1024 or (n_points & (n_points - 1)) != 0:
        raise ConfigurationError(f"n_points must be a power of two >= 1024, got {n_points}")
    if halfwidth is not None and not (0.0 < halfwidth < math.inf):
        raise ConfigurationError(f"halfwidth must be positive and finite, got {halfwidth}")


def _unresolved(s, sigma) -> DomainError:
    """The error of a separation row the grid cannot sample."""
    return DomainError(f"the grid does not resolve s = {s!r} at sigma = {sigma!r}")


@dataclass
class Grid:
    """Uniform symmetric position grid with trapezoid weights.

    ``n_points`` must be a power of two, at least 1024; the spacing is
    ``2 halfwidth / (n_points - 1)``.  The sample points and weights are
    built on first use and frozen, so a grid that is only checked costs no
    arrays.
    """

    halfwidth: float
    n_points: int = GRID_POINTS

    def __post_init__(self):
        _check_grid(self.n_points, self.halfwidth)

    @functools.cached_property
    def x(self) -> np.ndarray:
        x = np.linspace(-self.halfwidth, self.halfwidth, self.n_points)
        x.setflags(write=False)
        return x

    @functools.cached_property
    def weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.setflags(write=False)
        return w

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / (self.n_points - 1)

    def fits(self, s: float, sigma: float) -> bool:
        """Whether states of separation ``s`` keep eight PSF widths of margin."""
        return self.halfwidth >= 8.0 * sigma + s


def default_grid(s: float, sigma: float, n_points: int = GRID_POINTS,
                 halfwidth: float | None = None) -> Grid:
    """Grid wide enough for sources at separation ``s``: halfwidth 8 sigma + s,
    which must be finite."""
    if halfwidth is None:
        halfwidth = 8.0 * sigma + s
        if halfwidth == math.inf:
            raise _unresolved(s, sigma)
    return Grid(halfwidth=halfwidth, n_points=n_points)


def _rows_samples(values, sigma: float, n_points: int,
                  halfwidth: float | None) -> np.ndarray:
    """The grid work of separation rows, each shared by all its nuisances:
    for every ``s`` in ``values`` the ``(4, 4)`` ``R`` of the Householder QR
    ``sqrt(w) S = Q R`` of the four sampled vectors ``S``, the columns
    ``h(x + s/2)``, ``h(x - s/2)`` and their derivatives by ``s``.  Column
    ``k`` of ``R`` is ``Q^T sqrt(w) S[:, k]``: the coordinates of
    ``S[:, k]`` in a basis orthonormal under the trapezoid weights, with no
    basis matrix formed.  It stays exact however close to collinear the
    vectors get at small ``s``.

    Every row is checked by the model's range rule and the grid's margin
    before any is sampled; every oracle entry point goes through here.  The
    rows are sampled into one buffer, refilled in place for each ``s``.
    """
    for s in values:
        _require_s_sigma(s, sigma)
        grid = default_grid(s, sigma, n_points, halfwidth)
        if not grid.fits(s, sigma):
            raise ConfigurationError(f"grid halfwidth {grid.halfwidth} too narrow for s = {s}, "
                                     f"sigma = {sigma} (needs at least 8 sigma + s)")
    r = np.empty((len(values), 4, 4))
    if not values:
        return r
    # column-major, the layout LAPACK factors in, so qr copies no rows
    scaled, u = np.empty((n_points, 4), order="F"), np.empty(n_points)
    sig = np.float64(sigma)     # where sigma^2 underflows: NaN, not ZeroDivisionError
    amp, var4 = (2.0 * math.pi * sig * sig) ** (-0.25), 4.0 * sig * sig
    for out, s in zip(r, values):
        grid = default_grid(s, sigma, n_points, halfwidth)
        # sqrt(w): the trapezoid weights, halved at both ends
        root_w, root_end = math.sqrt(grid.spacing), math.sqrt(grid.spacing * 0.5)
        for j, sign in ((0, +1.0), (1, -1.0)):
            h = scaled[:, j]
            np.add(grid.x, sign * s / 2.0, out=u)
            # the PSF (2 pi sigma^2)^(-1/4) exp(-u^2 / (4 sigma^2)), where
            # (u * u) / (-4 sigma^2) is (-u) * u / (4 sigma^2) bit for bit
            np.divide(np.multiply(u, u, out=h), -var4, out=h)
            np.multiply(np.exp(h, out=h), amp, out=h)
            h[1:-1] *= root_w
            h[::n_points - 1] *= root_end
            # d h(x +- s/2) / ds = +- h'(u) / 2 = -+ u h(u) / (4 sigma^2)
            np.multiply(np.multiply(u, -sign / var4, out=u), h, out=scaled[:, j + 2])
        out[...] = np.linalg.qr(scaled, mode="r")
    return r


def _row_samples(s: float, sigma: float, n_points: int,
                 halfwidth: float | None) -> np.ndarray:
    """The ``(4, 4)`` ``R`` of one separation row; see :func:`_rows_samples`."""
    return _rows_samples([s], sigma, n_points, halfwidth)[0]


def _resolved(s, sigma: float, *results):
    """The oracle's ``results``, after checking that every cell is finite:
    they are not where the grid samples no PSF (a spacing far above
    ``sigma``, as at ``s = 1e6 sigma``) or where ``sigma^2`` underflows."""
    bad = ~np.logical_and.reduce([np.isfinite(r) for r in results])
    if bad.any():
        raise _unresolved(float(np.broadcast_to(s, bad.shape)[bad][0]), sigma)
    return results


def _norm2(a: np.ndarray) -> np.ndarray:
    return np.sum((a * a.conj()).real, axis=-1)


def _sld_sum(lam1, lam2, w22, x, y):
    """Support terms ``sum 2 Re[x_kl y_lk] / (lam_k + lam_l)`` of the spectral
    SLD sum for derivatives given in the eigenframe as ``(d11, d22 / det A,
    d12)``; the pair (2, 2) is ``w22 x22 y22`` with ``w22 = det A^2 / lam2``,
    or 0 where it is left out.  Symmetric in ``x``, ``y`` bit for bit."""
    return (x[0] * y[0] / lam1 + w22 * (x[1] * y[1])
            + 4.0 * (x[2].real * y[2].real + x[2].imag * y[2].imag) / (lam1 + lam2))


def _cell_samples(s, thetas, sigma: float, n_points: int, halfwidth: float | None):
    """``s`` and ``thetas`` broadcast together, and the columns of ``R`` of
    every cell as ``(plus, minus, d_plus, d_minus)``, each ``(..., 4)``,
    from one :func:`_rows_samples` over the distinct ``s``."""
    s, theta = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(thetas, dtype=float))
    values, inverse = np.unique(s.ravel(), return_inverse=True)
    r = _rows_samples(values.tolist(), sigma, n_points, halfwidth)
    return theta, np.moveaxis(r[inverse.reshape(s.shape)], -1, 0)


@np.errstate(all="ignore")     # non-finite results end in _resolved
def numeric_qfim_cells(s, sigma: float, thetas, phi: float = 0.0,
                       n_points: int = GRID_POINTS, halfwidth: float | None = None):
    """QFIM arrays ``(f_ss, f_tt, f_st)`` at every cell of ``s`` and
    ``thetas`` broadcast together, in one call; see :func:`numeric_qfim`.

    ``rho`` lives on coordinates 0 and 1 of the columns of ``R``, and 2
    and 3 are its exact kernel, which only the derivative by ``s`` reaches.  A
    closed-form Hermitian 2x2 eigensolve runs elementwise on every cell.
    """
    if np.any(np.asarray(s) == 0.0):
        raise DomainError("numeric_qfim requires s > 0")
    theta, (plus, minus, d_plus, d_minus) = _cell_samples(s, thetas, sigma, n_points, halfwidth)
    phase = np.exp(1j * phi)
    ct, st = np.cos(theta)[..., None], np.sin(theta)[..., None]
    # branch amplitudes (the phase of the second drops out of its projector)
    a, v = plus + (ct * phase) * minus, st * minus
    n = _norm2(a) + _norm2(v)
    # rho = A A^+ / n = [[p, q], [q*, r]] on the support, with A = [a v]
    diag = ((a * a.conj()).real + v * v) / n[..., None]
    p, r = diag[..., 0], diag[..., 1]
    q = (a[..., 0] * a[..., 1].conj() + v[..., 0] * v[..., 1]) / n
    g = 0.5 * (p - r)
    h = np.hypot(g, np.abs(q))
    lam1 = 0.5 * (p + r) + h
    # u1 = (x, y) from whichever row of rho - lam1 has no cancellation, any
    # frame where rho is degenerate; u2 = (-y*, x*)
    x = np.where(h == 0.0, 1.0, np.where(g >= 0.0, g + h, q))
    y = np.where(g >= 0.0, q.conj(), h - g)
    norm = np.hypot(abs(x), abs(y))
    x, y = x / norm, y / norm

    def on_frame(w):
        """``(u1^+ w, u2^+ w)`` of the support part of ``w``."""
        return x.conj() * w[..., 0] + y.conj() * w[..., 1], x * w[..., 1] - y * w[..., 0]

    # det A = sin(theta) r00 r11, lam2 = (det A / n)^2 / lam1 and
    # u2^+ A = det A (-(u1^+ v)*, (u1^+ a)*) / (n lam1) take no difference;
    # projected on u2, A would keep an absolute error ~1e-16 as it vanishes
    # with theta.  The u2 terms are kept over det A, so the pair (2, 2) is
    # left out exactly where sin(theta) = 0 and lam2 may underflow.
    det = st[..., 0] * plus[..., 0] * minus[..., 1]
    al1, be1 = on_frame(a)[0], on_frame(v)[0]
    al2, be2 = -be1.conj() / (n * lam1), al1.conj() / (n * lam1)
    lam2 = (det / n) ** 2 / lam1
    w22 = np.where(st[..., 0] != 0.0, n * n * lam1, 0.0)

    def frame(da, dv):
        """``(d11, d22 / det A, d12)`` of ``d rho = (dM - rho dn) / n`` in the
        eigenframe, and the squared kernel parts ``|u_k^+ dM P_ker|^2`` of its
        rows, the second times ``lam1 / lam2`` (0 where ``sin(theta) = 0``)."""
        dn = 2.0 * (np.sum(a.conj() * da, axis=-1).real + np.sum(v * dv, axis=-1))
        (d1, d2), (e1, e2) = on_frame(da), on_frame(dv)
        d11 = (2.0 * (al1 * d1.conj() + be1 * e1.conj()).real - lam1 * dn) / n
        d22 = (2.0 * (al2 * d2.conj() + be2 * e2.conj()).real - det / (n * n * lam1) * dn) / n
        d12 = (al1 * d2.conj() + be1 * e2.conj() + det * (d1 * al2.conj() + e1 * be2.conj())) / n
        kernel = [_norm2(al[..., None] * da[..., 2:].conj() + be[..., None] * dv[..., 2:])
                  for al, be in ((al1, be1), (-be1.conj(), al1.conj()))]
        return (d11, d22, d12), kernel

    ds, ker = frame(d_plus + (ct * phase) * d_minus, st * d_minus)
    dt, _ = frame(-(st * phase) * minus, ct * minus)
    f_ss = _sld_sum(lam1, lam2, w22, ds, ds) + 4.0 * (ker[0] + ker[1]) / (n * n * lam1)
    return _resolved(s, sigma, f_ss, _sld_sum(lam1, lam2, w22, dt, dt),
                     _sld_sum(lam1, lam2, w22, ds, dt))


def numeric_qfim(p: ModelParams, n_points: int = GRID_POINTS,
                 halfwidth: float | None = None) -> Qfim2:
    """QFIM for (s, theta) from the exact derivatives of the projected
    density matrix and the spectral SLD sum over its support and kernel.
    Supports any phi.

    The density matrices are projected on the span of four sampled vectors
    (both sources and their derivatives by ``s``, those of the sampled PSF),
    which also holds their derivatives by theta; the coordinates come from
    an R-only QR, with no basis matrix formed.  The sum leaves out exactly
    the eigenvalue pairs of sum 0, so at ``sin(theta) = 0`` it is the
    pointwise QFI of a pure state, ``F_tt = F_st = 0``, where the closed form
    is the continuous extension (Safranek, PRA 95, 052320 (2017)).
    """
    f_ss, f_tt, f_st = (f.item() for f in numeric_qfim_cells(
        p.s, p.sigma, [p.theta], p.phi, n_points, halfwidth))
    return Qfim2(f_ss, f_tt, f_st, "theta")


@np.errstate(all="ignore")     # non-finite results end in _resolved
def numeric_concurrence(p: ModelParams, n_points: int = GRID_POINTS,
                        halfwidth: float | None = None) -> float:
    """Concurrence of the unit-norm two-source state, ``2 sqrt(det rho_aux)``
    (Hill and Wootters, PRL 78, 5022 (1997)), from the ``R`` of
    :func:`_row_samples`.  Any phi.

    ``rho_aux`` is the Gram matrix of the branch amplitudes
    ``a = h_+ + cos(theta) e^{i phi} h_-`` and ``v = sin(theta) h_-`` over
    ``n = |a|^2 + |v|^2``.  Their Gram determinant is
    ``sin^2(theta)`` times that of ``h_+`` and ``h_-``, which in the QR
    coordinates is ``(r00 r11)^2``, so
    ``C = 2 |sin(theta) r00 r11| / n`` with no difference formed.  Its
    relative error grows about as ``1/s``: ~5e-13 at ``s = 1e-4 sigma``
    and ~1e-10 at ``1e-6 sigma``.
    """
    r = _row_samples(p.s, p.sigma, n_points, halfwidth)
    st = math.sin(p.theta)
    a = r[:, 0] + (math.cos(p.theta) * np.exp(1j * p.phi)) * r[:, 1]
    n = _norm2(a) + _norm2(st * r[:, 1])
    return float(_resolved(p.s, p.sigma, 2.0 * abs(st * r[0, 0] * r[1, 1]) / n)[0])


def _branch_fi(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """The oracle's pure-state FI of the normalized branch ``psi = a / |a|``,
    ``4 (<d psi|d psi> - <psi|d psi>^2) = 4 (|da|^2 / |a|^2 - (a.da)^2 / |a|^4)``,
    from its real basis coordinates ``a`` (m, 4) and their derivatives ``da``."""
    n2 = _norm2(a)
    return 4.0 * (_norm2(da) / n2 - (np.sum(a * da, axis=-1) / n2) ** 2)


@np.errstate(all="ignore")     # non-finite results end in _resolved
def _numeric_f_tot(s, sigma: float, thetas, n_points: int = GRID_POINTS,
                   halfwidth: float | None = None):
    """Grid reconstruction of the weighted FI ``N1 F1 + N2 F2`` (the oracle
    side of single mode) at every cell of ``s`` and ``thetas`` broadcast
    together, in one call, from the same row samples as
    :func:`numeric_qfim_cells`: ``F1``/``F2`` are the pure-state FIs of the
    normalized branches ``h_+ + cos(theta) h_-`` and ``h_-``,
    ``N1 = <Phi_1|Phi_1>``, ``N2 = sin^2(theta) / 2``.  Returns an array of
    the broadcast shape."""
    theta, (plus, minus, d_plus, d_minus) = _cell_samples(s, thetas, sigma, n_points, halfwidth)
    g = np.cos(theta)[..., None]
    a = plus + g * minus
    f1 = _branch_fi(a, d_plus + g * d_minus)
    f_tot = 0.5 * _norm2(a) * f1 + 0.5 * np.sin(theta) ** 2 * _branch_fi(minus, d_minus)
    return _resolved(s, sigma, f_tot)[0]
