"""Brute-force verification layer on a discretized position grid.

Everything here is computed from sampled Gaussian amplitudes with trapezoid
integration — none of the closed forms from the analytic modules are reused.

The grid work depends on ``s`` alone and is done once per distinct
separation, in one row pass per oracle call: after every row's checks, one
buffer is refilled in place for each ``s`` with four sampled vectors.  The
grid is symmetric about 0, so the sum ``S`` of the two sources
``h(x +- s/2)`` is even and their difference ``D`` odd; both, and their
derivatives by ``s``, which the sampled PSF gives exactly
(``d h(x +- s/2)/ds = -+ (x +- s/2) h(x +- s/2) / (4 sigma^2)``), are
sampled on the ``x > 0`` half alone, with no difference formed.  One stacked
R-only Householder QR of the even block ``[S, dS]`` and the odd block
``[D, dD]``, which span exactly orthogonal planes, gives their coordinates
in an orthonormal basis of their span, with no basis matrix formed (exact
however close to collinear the vectors get at small s).  The state and its
derivatives by s and theta lie in that span, so theta and phi only set the
branch coefficients.  There ``h(x +- s/2) = (e00, -+o00, 0, 0) / 2``, with
``e`` and ``o`` the blocks' ``R``: the density matrix lives on a 2x2
support block and coordinates 2 and 3 are its exact kernel, so the QFIM is
the support-plus-kernel SLD sum (Liu, Yuan, Lu and Wang, J. Phys. A 53,
023001 (2020)) of a closed-form 2x2 eigensolve, with no eigendecomposition
routine and no cutoff.  It and the weighted FI of single mode run
elementwise over all (s, theta) cells of a sweep in one call; the
concurrence is read off the same coordinates.

With the default grid (halfwidth ``10 sigma + s``) the oracle agrees with
the closed forms to round-off at 1024, 4096 and 16384 points: within
3.5e-15 relative in every QFIM element (``F_st`` on its Cauchy-Schwarz
scale ``sqrt(F_ss F_tt)``), ``F_tot`` and the concurrence, for s from
1e-12 sigma to 60 sigma and at 1e-100 sigma.  No error of it grows as s
falls.  A sweep's oracle call runs in a few milliseconds.
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
    ``2 halfwidth / (n_points - 1)`` and the points are
    ``+-(j + 1/2) spacing``, so ``x[::-1] == -x`` exactly and no point lies
    at 0; the outermost are within ~1 ulp of ``+-halfwidth``.  The sample
    points and weights are built on first use and frozen, so a grid that is
    only checked costs no arrays.
    """

    halfwidth: float
    n_points: int = GRID_POINTS

    def __post_init__(self):
        _check_grid(self.n_points, self.halfwidth)

    @functools.cached_property
    def x(self) -> np.ndarray:
        half = (np.arange(self.n_points // 2) + 0.5) * self.spacing
        x = np.concatenate((-half[::-1], half))
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
    """Grid wide enough for sources at separation ``s``: halfwidth
    ``10 sigma + s``, which must be finite.  Two widths more than the
    ``8 sigma + s`` that :meth:`Grid.fits` requires keep the truncated tails
    below the oracle's round-off at every ``s``."""
    if halfwidth is None:
        halfwidth = 10.0 * sigma + s
        if halfwidth == math.inf:
            raise _unresolved(s, sigma)
    return Grid(halfwidth=halfwidth, n_points=n_points)


def _rows_samples(values, sigma: float, n_points: int,
                  halfwidth: float | None) -> np.ndarray:
    """The grid work of separation rows, each shared by all its nuisances:
    for every ``s`` in ``values`` a ``(4, 4)`` array whose column ``k`` holds
    the coordinates of ``h(x + s/2)``, ``h(x - s/2)`` and their derivatives
    by ``s`` in an orthonormal basis of their span under the trapezoid
    weights, with no basis matrix formed.

    The grid is symmetric, so the sum ``S = h_+ + h_-`` and its derivative
    are even, the difference ``D = h_- - h_+`` and its derivative odd, and
    the two pairs span exactly orthogonal planes.  Each is sampled on the
    ``x > 0`` half alone, scaled by ``sqrt(2 w)`` (a point and its mirror),
    with no difference formed: ``S = h_- (2 + em)`` and ``D = -h_- em`` with
    ``em = expm1(-x s / (2 sigma^2))``, ``dS = (x D - (s/2) S) / (4 sigma^2)``
    and ``dD = (x S - (s/2) D) / (4 sigma^2)``.  One stacked R-only
    Householder QR factors the even block ``[S, dS]`` and the odd block
    ``[D, dD]``; it stays exact however close to collinear ``D`` and ``dD``
    get at small ``s``.  In the basis (even 1, odd 1, even 2, odd 2) of
    their ``Q`` columns, ``h_+- = (S -+ D) / 2``, halved exactly: ``h_+``
    is ``(e00, -o00, 0, 0) / 2`` and ``h_-`` is ``(e00, o00, 0, 0) / 2``,
    with ``e`` and ``o`` the blocks' ``R``.

    Every row is checked by the model's range rule and the grid's margin
    before any is sampled; every oracle entry point goes through here.  The
    rows are sampled into one buffer, refilled in place for each ``s``.
    """
    grids = []
    for s in values:
        _require_s_sigma(s, sigma)
        if halfwidth is None or not grids:      # a given halfwidth: one grid for all rows
            grid = default_grid(s, sigma, n_points, halfwidth)
        if not grid.fits(s, sigma):
            raise ConfigurationError(f"grid halfwidth {grid.halfwidth} too narrow for s = {s}, "
                                     f"sigma = {sigma} (needs at least 8 sigma + s)")
        grids.append(grid)
    blocks = np.empty((len(values), 2, 2, 2))   # each row's R of its even and odd block
    # each block's columns contiguous: qr factors them column-major, as
    # LAPACK does, and copies no rows
    m = n_points // 2
    buf, u = np.empty((2, 2, m)), np.empty(m)
    (even, d_even), (odd, d_odd) = buf
    sig = np.float64(sigma)     # where sigma^2 underflows: NaN, not ZeroDivisionError
    amp, var2, var4 = (2.0 * math.pi * sig * sig) ** (-0.25), 2.0 * sig * sig, 4.0 * sig * sig
    # last row first, each grid dropped once sampled, with the points it built
    for out, s in zip(blocks[::-1], values[::-1]):
        grid = grids.pop()
        x = grid.x[m:]
        # h(x - s/2) = (2 pi sigma^2)^(-1/4) exp(-(x - s/2)^2 / (4 sigma^2)),
        # times sqrt(2 w): the trapezoid weight, halved at the end
        np.subtract(x, s / 2.0, out=u)
        np.multiply(np.multiply(u, u, out=even), -1.0 / var4, out=even)
        np.multiply(np.exp(even, out=even), amp * math.sqrt(2.0 * grid.spacing), out=even)
        even[-1] *= math.sqrt(0.5)
        # em = h_+ / h_- - 1 = expm1(-x s / (2 sigma^2)), in (-1, 0] where x > 0
        np.expm1(np.multiply(x, -s / var2, out=odd), out=odd)
        np.add(odd, 2.0, out=d_even)
        np.negative(np.multiply(odd, even, out=odd), out=odd)
        np.multiply(even, d_even, out=even)
        for d, p, q in ((d_even, odd, even), (d_odd, even, odd)):
            # dS = (x D - (s/2) S) / (4 sigma^2), dD = (x S - (s/2) D) / (4 sigma^2)
            np.subtract(np.multiply(x, p, out=d), np.multiply(q, s / 2.0, out=u), out=d)
            np.multiply(d, 1.0 / var4, out=d)
        out[...] = np.linalg.qr(buf.transpose(0, 2, 1), mode="r")
    # the columns (h_+, h_-, dh_+/ds, dh_-/ds) = (S - D, S + D, dS - dD, dS + dD) / 2,
    # their rows interleaved as (even 1, odd 1, even 2, odd 2)
    r = blocks[..., [0, 0, 1, 1]] * np.array([[[0.5, 0.5, 0.5, 0.5]], [[-0.5, 0.5, -0.5, 0.5]]])
    return r.transpose(0, 2, 1, 3).reshape(len(values), 4, 4)


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

    # det A = sin(theta) e00 o00 / 2, as h_+- = (e00, -+o00) / 2 on the
    # support; lam2 = (det A / n)^2 / lam1 and
    # u2^+ A = det A (-(u1^+ v)*, (u1^+ a)*) / (n lam1) take no difference;
    # projected on u2, A would keep an absolute error ~1e-16 as it vanishes
    # with theta.  The u2 terms are kept over det A, so the pair (2, 2) is
    # left out exactly where sin(theta) = 0 and lam2 may underflow.
    det = 2.0 * st[..., 0] * plus[..., 0] * minus[..., 1]
    al1, be1 = on_frame(a)[0], on_frame(v)[0]
    al2, be2 = -be1.conj() / (n * lam1), al1.conj() / (n * lam1)
    lam2 = (det / n) ** 2 / lam1
    w22 = np.where(st[..., 0] != 0.0, n * n * lam1, 0.0)

    def frame(da, dv):
        """``(d11, d22 / det A, d12)`` of ``d rho = (dM - rho dn) / n`` in the
        eigenframe."""
        dn = 2.0 * (np.sum(a.conj() * da, axis=-1).real + np.sum(v * dv, axis=-1))
        (d1, d2), (e1, e2) = on_frame(da), on_frame(dv)
        d11 = (2.0 * (al1 * d1.conj() + be1 * e1.conj()).real - lam1 * dn) / n
        d22 = (2.0 * (al2 * d2.conj() + be2 * e2.conj()).real - det / (n * n * lam1) * dn) / n
        d12 = (al1 * d2.conj() + be1 * e2.conj() + det * (d1 * al2.conj() + e1 * be2.conj())) / n
        return d11, d22, d12

    da, dv = d_plus + (ct * phase) * d_minus, st * d_minus
    ds, dt = frame(da, dv), frame(-(st * phase) * minus, ct * minus)
    # the squared kernel parts |u_k^+ dM P_ker|^2 of the rows of d rho / ds,
    # the second times lam1 / lam2 (0 where sin(theta) = 0)
    ker = [_norm2(al[..., None] * da[..., 2:].conj() + be[..., None] * dv[..., 2:])
           for al, be in ((al1, be1), (-be1.conj(), al1.conj()))]
    f_ss = _sld_sum(lam1, lam2, w22, ds, ds) + 4.0 * (ker[0] + ker[1]) / (n * n * lam1)
    return _resolved(s, sigma, f_ss, _sld_sum(lam1, lam2, w22, dt, dt),
                     _sld_sum(lam1, lam2, w22, ds, dt))


def numeric_qfim(p: ModelParams, n_points: int = GRID_POINTS,
                 halfwidth: float | None = None) -> Qfim2:
    """QFIM for (s, theta) from the exact derivatives of the projected
    density matrix and the spectral SLD sum over its support and kernel.
    Supports any phi.

    The density matrices are projected on the span of four sampled vectors
    (the sum and the difference of both sources and their derivatives by
    ``s``, those of the sampled PSF), which also holds their derivatives by
    theta; the coordinates come from an R-only QR of each parity block, with
    no basis matrix formed.  The sum leaves out exactly
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
    (Hill and Wootters, PRL 78, 5022 (1997)), from the ``R`` of its one
    separation row (:func:`_rows_samples`).  Any phi.

    ``rho_aux`` is the Gram matrix of the branch amplitudes
    ``a = h_+ + cos(theta) e^{i phi} h_-`` and ``v = sin(theta) h_-`` over
    ``n = |a|^2 + |v|^2``.  Their Gram determinant is
    ``sin^2(theta)`` times that of ``h_+`` and ``h_-``, which in the parity
    coordinates is ``(e00 o00 / 2)^2``, so ``C = sin(theta) |e00 o00| / n``
    (``e00 = 2 r[0, 0]``, ``o00 = 2 r[1, 1]``) with no difference formed, sampled
    or computed: it stays within a few ulp of the closed form however small
    ``s`` gets.
    """
    r = _rows_samples([p.s], p.sigma, n_points, halfwidth)[0]
    st = math.sin(p.theta)
    a = r[:, 0] + (math.cos(p.theta) * np.exp(1j * p.phi)) * r[:, 1]
    n = _norm2(a) + _norm2(st * r[:, 1])
    return float(_resolved(p.s, p.sigma, 4.0 * abs(st * r[0, 0] * r[1, 1]) / n)[0])


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
