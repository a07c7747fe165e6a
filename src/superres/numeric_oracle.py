"""Brute-force verification layer on a discretized position grid.

Everything here is computed from sampled Gaussian amplitudes with trapezoid
integration, finite differences, and dense eigendecompositions — none of the
closed forms from the analytic modules are reused.  The two-source state is
held literally as a (grid x 2) array over the auxiliary basis, so partial
traces and purities are actual matrix operations.

The QFIM and the weighted FI of single mode are computed one separation
row at a time.  The grid work depends on ``s`` alone and is done once for
all thetas of the row: a six-vector basis made orthonormal by a Householder
QR of its ``sqrt(w)``-scaled columns (well conditioned however close to
collinear the vectors get at small s), and the projections on it of both
sources at ``s`` and of their changes at the four other separations
``s + k fd_step`` of a fourth-order central stencil (k = -2..2).  Theta
and phi only set the branch coefficients of the projected 6x6 density
matrices, whose differences, eigendecompositions and spectral sums run
stacked.  Each difference is formed from the change of a state (the sample
changes as ``h expm1(...)``, trigonometric changes in product form), never
as a small difference of two O(1) states, so the stencil's round-off
scales with the derivative rather than with ``eps / fd_step``.

Defaults (4096 points, halfwidth ``8 sigma + s``, step ``1e-4 sigma``,
support cutoff ``1e-12``) keep truncation and round-off each below ~1e-11
relative for s from 1e-3 sigma up; a row of oracle evaluations runs in a
few milliseconds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .qfim_two_param import Qfim2
from .state_model import _INF, _SIGMA_MAX, _SIGMA_MIN, ModelParams, _reject_s_sigma

_FIT_SLACK = 1e-4   # tolerance (in sigma units) so FD probes at s +- eps fit


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
        return self.halfwidth >= 8.0 * sigma + s - _FIT_SLACK * sigma


@dataclass(frozen=True)
class GridField:
    """Real spatial amplitude sampled on a grid (units 1/sqrt(length))."""

    grid: Grid
    values: np.ndarray

    def inner(self, other: "GridField") -> float:
        return float(self.grid.weights @ (self.values * other.values))

    def norm(self) -> float:
        return math.sqrt(float(self.grid.weights @ (self.values * self.values)))


def default_grid(s: float, sigma: float, n_points: int = 4096,
                 halfwidth: float | None = None) -> Grid:
    """Grid wide enough for sources at separation ``s``: halfwidth 8 sigma + s."""
    return Grid(halfwidth=8.0 * sigma + s if halfwidth is None else halfwidth,
                n_points=n_points)


def _psf(x: np.ndarray, sigma: float) -> np.ndarray:
    return (2.0 * math.pi * sigma * sigma) ** (-0.25) * np.exp(-x * x / (4.0 * sigma * sigma))


def _fitted_grid(s: float, sigma: float, grid: Grid | None = None,
                 n_points: int = 4096, halfwidth: float | None = None) -> Grid:
    """``grid`` (by default :func:`default_grid`) for sources at separation
    ``s``, after checking ``(s, sigma)`` by the model's range rule and the
    grid's margin; every oracle entry point goes through it."""
    if not (_SIGMA_MIN <= sigma <= _SIGMA_MAX and 0.0 <= s < _INF):
        _reject_s_sigma(s, sigma)
    if grid is None:
        grid = default_grid(s, sigma, n_points=n_points, halfwidth=halfwidth)
    if not grid.fits(s, sigma):
        raise ConfigurationError(
            f"grid halfwidth {grid.halfwidth} too narrow for s = {s}, "
            f"sigma = {sigma} (needs at least 8 sigma + s)"
        )
    return grid


def make_sources(s: float, sigma: float, grid: Grid | None = None) -> tuple[GridField, GridField]:
    """Sampled displaced PSF amplitudes ``h(x + s/2)``, ``h(x - s/2)``,
    unit-normalized under the trapezoid rule."""
    grid = _fitted_grid(s, sigma, grid)
    fields = []
    for sign in (+1.0, -1.0):
        v = _psf(grid.x + sign * s / 2.0, sigma)
        # intensity below 1e-12 at the edges keeps trapezoid tails ~1e-15
        if v[0] ** 2 > 1e-12 or v[-1] ** 2 > 1e-12:
            raise ConfigurationError("intensity has not decayed at the grid edge")
        v = v / math.sqrt(float(grid.weights @ (v * v)))
        v.setflags(write=False)
        fields.append(GridField(grid=grid, values=v))
    return fields[0], fields[1]


def _branch_columns(grid: Grid, s: float, sigma: float, theta: float, phi: float):
    """Non-normalized branch amplitudes (Phi_1, Phi_2) on the grid."""
    hp = _psf(grid.x + s / 2.0, sigma).astype(complex)
    hm = _psf(grid.x - s / 2.0, sigma).astype(complex)
    c = np.exp(1j * phi) * math.cos(theta)
    phi1 = (hp + c * hm) / math.sqrt(2.0)
    phi2 = np.exp(1j * phi) * math.sin(theta) * hm / math.sqrt(2.0)
    return phi1, phi2


def two_source_state(p: ModelParams, grid: Grid | None = None) -> np.ndarray:
    """Unit-norm two-source state as a literal (n_points, 2) array over the
    auxiliary basis ``{phi_1, phi_1_perp}``."""
    grid = _fitted_grid(p.s, p.sigma, grid)
    phi1, phi2 = _branch_columns(grid, p.s, p.sigma, p.theta, p.phi)
    state = np.stack([phi1, phi2], axis=1)
    n2 = float(np.real(np.einsum("i,ik,ik->", grid.weights, state.conj(), state)))
    return state / math.sqrt(n2)


def numeric_concurrence(p: ModelParams, n_points: int = 4096,
                        halfwidth: float | None = None) -> float:
    """Concurrence through purity: ``C = sqrt(2 (1 - Tr rho_aux^2))``.

    The auxiliary reduced state is obtained by contracting the (grid x 2)
    state over the position index with trapezoid weights.  For a unit-trace
    2x2 state ``2 (1 - Tr rho^2) = 4 det rho``, and the determinant form is
    evaluated directly (the literal purity subtraction would drown small
    concurrences in round-off).  Any phi.
    """
    grid = default_grid(p.s, p.sigma, n_points=n_points, halfwidth=halfwidth)
    state = two_source_state(p, grid)
    rho_aux = np.einsum("i,ik,il->kl", grid.weights, state.conj(), state)
    det = float(np.real(rho_aux[0, 0] * rho_aux[1, 1]
                        - rho_aux[0, 1] * rho_aux[1, 0]))
    return 2.0 * math.sqrt(max(0.0, det))


def _orthonormal_fd_basis(grid: Grid, s: float, sigma: float) -> np.ndarray:
    """Six grid vectors, as the columns of an ``(n_points, 6)`` array,
    orthonormal under the trapezoid weights, spanning both sources and their
    first two spatial derivatives.  The separation derivative of the state
    lies in that span, and what the projection drops of a stencil state is
    of third order in its offset and smooth in it, so the differences of the
    projected states still converge to the derivative.

    At small ``s`` the six spanning vectors are nearly collinear, so the
    basis is a Householder QR of the ``sqrt(w)``-scaled vectors: it is
    orthonormal to round-off however ill-conditioned they are.
    """
    sig2 = sigma * sigma
    root_w = np.sqrt(grid.weights)
    scaled = np.empty((grid.n_points, 6))
    for j, sign in ((0, +1.0), (3, -1.0)):
        u = grid.x + sign * s / 2.0
        base = _psf(u, sigma) * root_w
        scaled[:, j] = base
        scaled[:, j + 1] = -(u / (2.0 * sig2)) * base
        scaled[:, j + 2] = (u * u / (4.0 * sig2 * sig2) - 1.0 / (2.0 * sig2)) * base
    q = np.linalg.qr(scaled)[0]
    q /= root_w[:, None]
    return q


# fourth-order central first derivative over the offsets -2..2 (in steps)
_OFFSETS = np.arange(-2.0, 3.0)
_CENTER = 2


def _fd(samples: np.ndarray, step: float) -> np.ndarray:
    """Derivative from samples at the ``_OFFSETS`` (axis 1) of one step."""
    return (8.0 * (samples[:, 3] - samples[:, 1])
            - (samples[:, 4] - samples[:, 0])) / (12.0 * step)


@dataclass(frozen=True)
class _RowSamples:
    """The grid work of one separation row, shared by all its nuisances:
    the basis coordinates of both sources at ``s`` and their changes at the
    stencil separations ``s + k fd_step``."""

    plus: np.ndarray      # (6,) coordinates of h(x + s/2)
    minus: np.ndarray     # (6,) coordinates of h(x - s/2)
    d_plus: np.ndarray    # (5, 6) coordinates of h(x + s_k/2) - h(x + s/2)
    d_minus: np.ndarray   # (5, 6) coordinates of h(x - s_k/2) - h(x - s/2)
    step: float


def _row_samples(s: float, sigma: float, fd_step: float | None, n_points: int,
                 halfwidth: float | None) -> _RowSamples:
    grid = _fitted_grid(s, sigma, n_points=n_points, halfwidth=halfwidth)
    step = 1e-4 * sigma if fd_step is None else fd_step
    if not (1e-6 * sigma <= step <= 1e-4 * sigma):
        raise DomainError(
            f"fd_step must lie in [1e-6, 1e-4] * sigma, got {step}"
        )
    basis_w = _orthonormal_fd_basis(grid, s, sigma)
    basis_w *= grid.weights[:, None]
    shift = step * _OFFSETS / 2.0
    coords = {}
    for name, sign in (("plus", +1.0), ("minus", -1.0)):
        u = grid.x + sign * s / 2.0
        h = _psf(u, sigma)
        # h(u + sign shift) - h(u) as h(u) expm1(...), free of cancellation
        diff = h[:, None] * np.expm1(-sign * shift * (2.0 * u[:, None] + sign * shift)
                                      / (4.0 * sigma * sigma))
        coords[name] = h @ basis_w
        coords["d_" + name] = diff.T @ basis_w
    return _RowSamples(step=step, **coords)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :].conj()


def _norm2(a: np.ndarray) -> np.ndarray:
    return np.sum((a * a.conj()).real, axis=-1)


def _change(x0: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|x0 + dx><x0 + dx| - |x0><x0|`` and its trace, computed from ``dx``
    so that their round-off scales with the change."""
    return (_outer(x0, dx) + _outer(dx, x0) + _outer(dx, dx),
            2.0 * np.sum(x0.conj() * dx, axis=-1).real + _norm2(dx))


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def _qfim_element(lams: np.ndarray, da: np.ndarray, db: np.ndarray,
                  cutoff: float) -> np.ndarray:
    """Spectral-sum QFIM element
    ``sum_{k,l: lam_k+lam_l > cutoff} 2 Re[da_kl db_lk] / (lam_k + lam_l)``
    over the last two axes of stacked eigenframe derivatives; symmetric in
    ``da``, ``db`` bit for bit."""
    den = lams[..., :, None] + lams[..., None, :]
    terms = np.divide((da * np.swapaxes(db, -1, -2)).real, den,
                      out=np.zeros(den.shape), where=den > cutoff)
    return (terms + np.swapaxes(terms, -1, -2)).sum(axis=(-2, -1))


def numeric_qfim_row(s: float, sigma: float, thetas, phi: float = 0.0,
                     fd_step: float | None = None, rank_cutoff: float = 1e-12,
                     n_points: int = 4096, halfwidth: float | None = None) -> list[Qfim2]:
    """QFIM for (s, theta) at every theta of ``thetas``, one separation row
    at a time; see :func:`numeric_qfim`, which is its one-element case.

    The grid work depends on ``s`` alone and is done once per row; each
    theta only sets the branch coefficients ``cos(theta) e^{i phi}`` and
    ``sin(theta) e^{i phi}`` of the projected 6x6 density matrices, whose
    changes over the stencil, eigendecompositions and spectral sums run
    stacked.
    """
    if s == 0.0:
        raise DomainError("numeric_qfim requires s > 0")
    if rank_cutoff < 1e-13:
        warnings.warn(
            "rank_cutoff below 1e-13 amplifies round-off in the spectral sum",
            RuntimeWarning,
            stacklevel=2,
        )
    row = _row_samples(s, sigma, fd_step, n_points, halfwidth)
    theta = np.asarray(thetas, dtype=float).reshape(-1, 1)
    phase = np.exp(1j * phi)
    ct, st = np.cos(theta), np.sin(theta)
    a0 = row.plus + (ct * phase) * row.minus                 # (m, 6)
    v0 = st * row.minus
    # changes of the branch amplitudes over the ten states a theta: the s
    # stencil at theta, then the theta stencil at s (trig differences in
    # product form, free of cancellation)
    half = row.step * _OFFSETS / 2.0
    d_ct = -2.0 * np.sin(half) * np.sin(theta + half)
    d_st = 2.0 * np.sin(half) * np.cos(theta + half)
    da = np.concatenate([row.d_plus + (ct * phase)[..., None] * row.d_minus,
                         (d_ct * phase)[..., None] * row.minus], axis=1)
    dv = np.concatenate([st[..., None] * row.d_minus, d_st[..., None] * row.minus], axis=1)
    m0 = _outer(a0, a0) + _outer(v0, v0)
    n0 = (_norm2(a0) + _norm2(v0))[:, None]
    (dm_a, dn_a), (dm_v, dn_v) = _change(a0[:, None], da), _change(v0[:, None], dv)
    dm, dn = dm_a + dm_v, dn_a + dn_v
    # rho at each state minus rho at the center
    d_rho = (dm - m0[:, None] * (dn / n0)[..., None, None]) / (n0 + dn)[..., None, None]
    lams, vecs = np.linalg.eigh(m0 / n0[..., None])
    vecs_h = np.swapaxes(vecs, -1, -2).conj()
    ds = _hermitize(vecs_h @ _fd(d_rho[:, :5], row.step) @ vecs)
    dt = _hermitize(vecs_h @ _fd(d_rho[:, 5:], row.step) @ vecs)
    f_ss = _qfim_element(lams, ds, ds, rank_cutoff)
    f_tt = _qfim_element(lams, dt, dt, rank_cutoff)
    f_st = _qfim_element(lams, ds, dt, rank_cutoff)
    return [Qfim2(f_ss=a, f_tt=b, f_st=c, tag="theta")
            for a, b, c in zip(f_ss.tolist(), f_tt.tolist(), f_st.tolist())]


def numeric_qfim(p: ModelParams, fd_step: float | None = None,
                 rank_cutoff: float = 1e-12, n_points: int = 4096,
                 halfwidth: float | None = None) -> Qfim2:
    """QFIM for (s, theta) by central finite differences of the projected
    density matrix and the spectral SLD sum.  Supports any phi.

    The density matrices are projected on a six-vector basis (both sources
    and their first two derivatives at ``s``, orthonormalized by a weighted
    QR) and differenced with a fourth-order central stencil, each term
    formed from its change against the center state.  ``fd_step``
    must lie in ``[1e-6, 1e-4] * sigma`` (default ``1e-4 sigma``); a very
    small ``rank_cutoff`` amplifies round-off in the near-null subspace and
    triggers a diagnostic warning.  This is the one-element case of
    :func:`numeric_qfim_row`, so a result does not depend on how many
    thetas share its row.
    """
    return numeric_qfim_row(p.s, p.sigma, [p.theta], p.phi, fd_step=fd_step,
                            rank_cutoff=rank_cutoff, n_points=n_points,
                            halfwidth=halfwidth)[0]


def _branch_fi(a0: np.ndarray, da: np.ndarray, step: float) -> np.ndarray:
    """The oracle's pure-state FI, ``4 (<d psi|d psi> - <psi|d psi>^2)``, of
    the normalized branch ``psi = a / |a|``, from its real basis coordinates ``a0`` (m, 6) at ``s``
    and their changes ``da`` (m, 5, 6) over the stencil."""
    dn = _change(a0[:, None], da)[1]                 # |a_k|^2 - |a_0|^2
    r0 = np.sqrt(_norm2(a0))[:, None]
    r = np.sqrt(r0 * r0 + dn)
    d_psi = da / r[..., None] - a0[:, None] * (dn / (r * r0 * (r + r0)))[..., None]
    deriv = _fd(d_psi, step)
    return 4.0 * (_norm2(deriv) - np.sum(a0 / r0 * deriv, axis=-1) ** 2)


def _numeric_f_tot(s: float, sigma: float, thetas, n_points: int = 4096,
                   fd_step: float | None = None, halfwidth: float | None = None):
    """Grid reconstruction of the weighted FI ``N1 F1 + N2 F2`` (the oracle
    side of single mode) at every theta of ``thetas``, from the same row
    samples and stencil as :func:`numeric_qfim_row`: ``F1``/``F2`` are the
    pure-state FIs of the normalized branches ``h_+ + cos(theta) h_-`` and
    ``h_-``, ``N1 = <Phi_1|Phi_1>``, ``N2 = sin^2(theta) / 2``.  Returns an
    array of the shape of ``thetas``."""
    row = _row_samples(s, sigma, fd_step, n_points, halfwidth)
    theta = np.asarray(thetas, dtype=float)
    g = np.cos(theta).reshape(-1, 1)
    a0 = row.plus + g * row.minus
    f1 = _branch_fi(a0, row.d_plus + g[..., None] * row.d_minus, row.step)
    f2 = _branch_fi(row.minus[None], row.d_minus[None], row.step)
    total = 0.5 * _norm2(a0) * f1 + 0.5 * np.sin(theta).ravel() ** 2 * f2
    return total.reshape(theta.shape)
