"""Brute-force verification layer on a discretized position grid.

Everything here is computed from sampled Gaussian amplitudes with trapezoid
integration and dense eigendecompositions — none of the closed forms from
the analytic modules are reused.

The grid work depends on ``s`` alone and is done once for all thetas of a
separation row: four sampled vectors, both sources and their derivatives
by ``s``, which the sampled PSF gives exactly:
``d h(x +- s/2)/ds = -+ (x +- s/2) h(x +- s/2) / (4 sigma^2)``.  An R-only
Householder QR of their ``sqrt(w)``-scaled columns gives their coordinates
in an orthonormal basis of their span, with no basis matrix formed (exact
however close to collinear the vectors get at small s).  The state and its
derivatives by s and theta lie in that span, so theta and phi only set the
branch coefficients.  The QFIM and the weighted FI of single mode run on
the projected 4x4 density matrices, whose derivatives, eigendecompositions
and spectral sums run stacked; the concurrence is read off the same
coordinates, ``h(x + s/2) = (r00, 0, 0, 0)`` and
``h(x - s/2) = (r01, r11, 0, 0)``.

With the default grid (4096 points, halfwidth ``8 sigma + s``) the oracle
agrees with the closed forms to ~1e-11 relative for s from 1e-3 sigma up;
the spectral sum leaves out eigenvalue pairs summing to at most
``_SUPPORT_CUTOFF``.  A row of oracle evaluations runs in a few
milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .qfim_two_param import Qfim2
from .state_model import _INF, _SIGMA_MAX, _SIGMA_MIN, ModelParams, _reject_s_sigma

# eigenvalue pairs of the projected density matrix summing to at most this
# are outside its support and left out of the spectral SLD sum
_SUPPORT_CUTOFF = 1e-12


@dataclass
class Grid:
    """Uniform symmetric position grid with trapezoid weights.

    ``n_points`` must be a power of two, at least 1024; the spacing is
    ``2 halfwidth / (n_points - 1)``.  The sample points and weights are
    frozen after construction.
    """

    halfwidth: float
    n_points: int = 4096
    x: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n_points
        if n < 1024 or (n & (n - 1)) != 0:
            raise ConfigurationError(
                f"n_points must be a power of two >= 1024, got {n}"
            )
        if not (0.0 < self.halfwidth < math.inf):
            raise ConfigurationError(
                f"halfwidth must be positive and finite, got {self.halfwidth}")
        self.x = np.linspace(-self.halfwidth, self.halfwidth, n)
        w = np.full(n, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        self.weights = w
        self.x.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / (self.n_points - 1)

    def fits(self, s: float, sigma: float) -> bool:
        """Whether states of separation ``s`` keep eight PSF widths of margin."""
        return self.halfwidth >= 8.0 * sigma + s


def default_grid(s: float, sigma: float, n_points: int = 4096,
                 halfwidth: float | None = None) -> Grid:
    """Grid wide enough for sources at separation ``s``: halfwidth 8 sigma + s."""
    return Grid(halfwidth=8.0 * sigma + s if halfwidth is None else halfwidth,
                n_points=n_points)


def _psf(x: np.ndarray, sigma: float) -> np.ndarray:
    return (2.0 * math.pi * sigma * sigma) ** (-0.25) * np.exp(-x * x / (4.0 * sigma * sigma))


def _fitted_grid(s: float, sigma: float, n_points: int = 4096,
                 halfwidth: float | None = None) -> Grid:
    """:func:`default_grid` for sources at separation ``s``, after checking
    ``(s, sigma)`` by the model's range rule and the grid's margin; every
    oracle entry point goes through it."""
    if not (_SIGMA_MIN <= sigma <= _SIGMA_MAX and 0.0 <= s < _INF):
        _reject_s_sigma(s, sigma)
    grid = default_grid(s, sigma, n_points=n_points, halfwidth=halfwidth)
    if not grid.fits(s, sigma):
        raise ConfigurationError(
            f"grid halfwidth {grid.halfwidth} too narrow for s = {s}, "
            f"sigma = {sigma} (needs at least 8 sigma + s)"
        )
    return grid


@dataclass(frozen=True)
class _RowSamples:
    """The grid work of one separation row, shared by all its nuisances: the
    coordinates of both sources at ``s`` and of their derivatives by ``s``
    in an orthonormal basis of their span, read off an R-only QR of the four
    sampled vectors with no basis matrix formed."""

    plus: np.ndarray      # (4,) coordinates of h(x + s/2)
    minus: np.ndarray     # (4,) coordinates of h(x - s/2)
    d_plus: np.ndarray    # (4,) coordinates of d h(x + s/2) / ds
    d_minus: np.ndarray   # (4,) coordinates of d h(x - s/2) / ds


def _row_samples(s: float, sigma: float, n_points: int,
                 halfwidth: float | None) -> _RowSamples:
    """For the Householder QR ``sqrt(w) S = Q R`` of the four sampled vectors
    ``S``, column ``k`` of ``R`` is ``Q^T sqrt(w) S[:, k]``: the coordinates
    of ``S[:, k]`` in a basis orthonormal under the trapezoid weights.  It
    stays exact however close to collinear the vectors get at small ``s``.
    """
    grid = _fitted_grid(s, sigma, n_points=n_points, halfwidth=halfwidth)
    root_w = np.sqrt(grid.weights)
    scaled = np.empty((grid.n_points, 4))
    for j, sign in ((0, +1.0), (1, -1.0)):
        u = grid.x + sign * s / 2.0
        scaled[:, j] = _psf(u, sigma) * root_w
        # d h(x +- s/2) / ds = +- h'(u) / 2 = -+ u h(u) / (4 sigma^2)
        scaled[:, j + 2] = (-sign / (4.0 * sigma * sigma)) * u * scaled[:, j]
    r = np.linalg.qr(scaled, mode="r")
    return _RowSamples(plus=r[:, 0], minus=r[:, 1], d_plus=r[:, 2], d_minus=r[:, 3])


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :].conj()


def _norm2(a: np.ndarray) -> np.ndarray:
    return np.sum((a * a.conj()).real, axis=-1)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def _qfim_element(lams: np.ndarray, da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Spectral-sum QFIM element
    ``sum_{k,l: lam_k+lam_l > _SUPPORT_CUTOFF} 2 Re[da_kl db_lk] / (lam_k + lam_l)``
    over the last two axes of stacked eigenframe derivatives; symmetric in
    ``da``, ``db`` bit for bit."""
    den = lams[..., :, None] + lams[..., None, :]
    terms = np.divide((da * np.swapaxes(db, -1, -2)).real, den,
                      out=np.zeros(den.shape), where=den > _SUPPORT_CUTOFF)
    return (terms + np.swapaxes(terms, -1, -2)).sum(axis=(-2, -1))


def numeric_qfim_row(s: float, sigma: float, thetas, phi: float = 0.0,
                     n_points: int = 4096, halfwidth: float | None = None) -> list[Qfim2]:
    """QFIM for (s, theta) at every theta of ``thetas``, one separation row
    at a time; see :func:`numeric_qfim`, which is its one-element case.

    The grid work depends on ``s`` alone and is done once per row; each
    theta only sets the branch coefficients ``cos(theta) e^{i phi}`` and
    ``sin(theta) e^{i phi}`` of the projected 4x4 density matrices, whose
    derivatives, eigendecompositions and spectral sums run stacked.
    """
    if s == 0.0:
        raise DomainError("numeric_qfim requires s > 0")
    row = _row_samples(s, sigma, n_points, halfwidth)
    theta = np.asarray(thetas, dtype=float).reshape(-1, 1)
    phase = np.exp(1j * phi)
    ct, st = np.cos(theta), np.sin(theta)
    # branch amplitudes (the phase of the second drops out of its projector)
    a = row.plus + (ct * phase) * row.minus                  # (m, 4)
    v = st * row.minus
    m = _outer(a, a) + _outer(v, v)
    n = (_norm2(a) + _norm2(v))[:, None, None]
    rho = m / n
    lams, vecs = np.linalg.eigh(rho)
    vecs_h = np.swapaxes(vecs, -1, -2).conj()

    def d_rho(da, dv):
        """Eigenframe derivative of rho = M / n, (dM - rho dn) / n."""
        dm = _outer(a, da) + _outer(da, a) + _outer(v, dv) + _outer(dv, v)
        dn = 2.0 * (np.sum(a.conj() * da, axis=-1).real
                    + np.sum(v.conj() * dv, axis=-1).real)
        return _hermitize(vecs_h @ ((dm - rho * dn[:, None, None]) / n) @ vecs)

    ds = d_rho(row.d_plus + (ct * phase) * row.d_minus, st * row.d_minus)
    dt = d_rho(-(st * phase) * row.minus, ct * row.minus)
    f_ss = _qfim_element(lams, ds, ds)
    f_tt = _qfim_element(lams, dt, dt)
    f_st = _qfim_element(lams, ds, dt)
    return [Qfim2(f_ss=a, f_tt=b, f_st=c, tag="theta")
            for a, b, c in zip(f_ss.tolist(), f_tt.tolist(), f_st.tolist())]


def numeric_qfim(p: ModelParams, n_points: int = 4096,
                 halfwidth: float | None = None) -> Qfim2:
    """QFIM for (s, theta) from the exact derivatives of the projected
    density matrix and the spectral SLD sum.  Supports any phi.

    The density matrices are projected on the span of four sampled vectors
    (both sources and their derivatives by ``s``, those of the sampled PSF),
    which also holds their derivatives by theta (those of the branch
    coefficients); the coordinates come from an R-only QR, with no basis
    matrix formed.  Eigenvalue pairs summing to at most ``_SUPPORT_CUTOFF``
    are left out of the sum.  This is the one-element case of
    :func:`numeric_qfim_row`, so a result does not depend on how many thetas
    share its row.
    """
    return numeric_qfim_row(p.s, p.sigma, [p.theta], p.phi, n_points=n_points,
                            halfwidth=halfwidth)[0]


def numeric_concurrence(p: ModelParams, n_points: int = 4096,
                        halfwidth: float | None = None) -> float:
    """Concurrence of the unit-norm two-source state, ``2 sqrt(det rho_aux)``
    (Hill and Wootters, PRL 78, 5022 (1997)), from the row samples of
    :func:`numeric_qfim_row`.  Any phi.

    ``rho_aux`` is the Gram matrix of the branch amplitudes
    ``a = h_+ + cos(theta) e^{i phi} h_-`` and ``v = sin(theta) h_-`` over
    ``n = |a|^2 + |v|^2``.  Their Gram determinant is
    ``sin^2(theta)`` times that of ``h_+`` and ``h_-``, which in the QR
    coordinates is ``(r00 r11)^2``, so
    ``C = 2 |sin(theta) r00 r11| / n`` with no difference formed.  Its
    relative error grows about as ``1/s``: ~5e-13 at ``s = 1e-4 sigma``
    and ~1e-10 at ``1e-6 sigma``.
    """
    row = _row_samples(p.s, p.sigma, n_points, halfwidth)
    st = math.sin(p.theta)
    a = row.plus + (math.cos(p.theta) * np.exp(1j * p.phi)) * row.minus
    n = _norm2(a) + _norm2(st * row.minus)
    return float(2.0 * abs(st * row.plus[0] * row.minus[1]) / n)


def _branch_fi(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """The oracle's pure-state FI of the normalized branch ``psi = a / |a|``,
    ``4 (<d psi|d psi> - <psi|d psi>^2) = 4 (|da|^2 / |a|^2 - (a.da)^2 / |a|^4)``,
    from its real basis coordinates ``a`` (m, 4) and their derivatives ``da``."""
    n2 = _norm2(a)
    return 4.0 * (_norm2(da) / n2 - (np.sum(a * da, axis=-1) / n2) ** 2)


def _numeric_f_tot(s: float, sigma: float, thetas, n_points: int = 4096,
                   halfwidth: float | None = None):
    """Grid reconstruction of the weighted FI ``N1 F1 + N2 F2`` (the oracle
    side of single mode) at every theta of ``thetas``, from the same row
    samples as :func:`numeric_qfim_row`: ``F1``/``F2`` are the
    pure-state FIs of the normalized branches ``h_+ + cos(theta) h_-`` and
    ``h_-``, ``N1 = <Phi_1|Phi_1>``, ``N2 = sin^2(theta) / 2``.  Returns an
    array of the shape of ``thetas``."""
    row = _row_samples(s, sigma, n_points, halfwidth)
    theta = np.asarray(thetas, dtype=float)
    g = np.cos(theta).reshape(-1, 1)
    a = row.plus + g * row.minus
    f1 = _branch_fi(a, row.d_plus + g * row.d_minus)
    f2 = _branch_fi(row.minus[None], row.d_minus[None])
    total = 0.5 * _norm2(a) * f1 + 0.5 * np.sin(theta).ravel() ** 2 * f2
    return total.reshape(theta.shape)
