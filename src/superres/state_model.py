"""Two-source model: parameters, Gaussian overlap algebra, and the spectral
data of the reduced spatial state.

Conventions
-----------
Two equal-intensity point sources sit at ``x = -s/2`` and ``x = +s/2`` on the
image plane.  The point-spread amplitude is the Gaussian

    h(x) = (2 pi sigma^2)^(-1/4) exp(-x^2 / 4 sigma^2),

so that the intensity ``h^2`` is a normal density of width ``sigma``.  The
displaced amplitudes ``h_pm(x) = h(x +- s/2)`` overlap by

    d = <h_+|h_-> = exp(-s^2 / 8 sigma^2).

Each source carries an auxiliary (non-spatial) state; the two auxiliary
vectors overlap by the real ``gamma = cos(theta)``, the degree of coherence,
so ``theta`` interpolates between fully coherent (theta = 0) and fully
incoherent (theta = pi/2) sources.  Every amplitude is real.
The entanglement between the spatial and auxiliary factors is quantified by
the (unnormalized-state) concurrence

    C = sin(theta) * sqrt(1 - d^2),

which is the convention used on all concurrence axes in this package.  The
field written with a bare 1/sqrt(2) prefactor has squared norm
``1 + d cos(theta)``; every density-matrix quantity here refers to the state
normalized to unit trace, and the physically normalized concurrence
``C / (1 + d cos(theta))`` is exposed separately.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import exp, expm1, sqrt

from .errors import DegenerateGeometryError, DomainError, OutOfReachError

_HALF_PI = math.pi / 2
_INF = math.inf
# the smallest normal float, the floor of 1 - d^2 (see _floor_checked)
_OM_MIN = sys.float_info.min


def _require_s_sigma(s, sigma) -> None:
    """The one range rule of ``(s, sigma)``: ``sigma`` positive and finite,
    ``s`` finite and nonnegative (NaN fails both)."""
    if not (0.0 < sigma < _INF):
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    if not (0.0 <= s < _INF):
        raise DomainError(f"separation s must be finite and nonnegative, got {s}")


def _require_theta(theta) -> None:
    if not (0.0 <= theta <= _HALF_PI):
        raise DomainError(f"theta must lie in [0, pi/2], got {theta}")


def _require_gamma(gamma) -> None:
    if not (0.0 <= gamma <= 1.0):
        raise DomainError(f"gamma must lie in [0, 1], got {gamma}")


def _require_concurrence(c) -> None:
    if not (c >= 0.0):
        raise DomainError(f"concurrence must be nonnegative, got {c}")


def _require_separated(s, what: str) -> None:
    if not (s > 0.0):
        raise DegenerateGeometryError(f"{what} is undefined at s = 0")


def _unresolved(s, sigma, nuisance=None, value=None) -> DomainError:
    """The error of an output the closed forms cannot give as a finite float,
    at ``s`` and, where one cell is meant, its ``nuisance`` ``value``."""
    at = "" if nuisance is None else f" with {nuisance} = {value!r}"
    return DomainError(f"the closed forms do not resolve s = {s!r}{at} at sigma = {sigma!r}")


def _floor_checked(s, sigma, terms, what: str):
    """``terms`` past the floor rule of the forms that divide by ``1 - d^2 =
    terms[3]``: at ``s = 0`` that of :func:`_require_separated`; where
    ``1 - d^2`` is subnormal (``s`` below ~3e-154 sigma), unresolved."""
    if terms[3] < _OM_MIN:
        _require_separated(s, what)
        raise _unresolved(s, sigma)
    return terms


def _per_sigma(s, sigma, x, k):
    """``x / sigma^k`` (``k`` = 1, 2) for an output ``x`` taken at ``sigma = 1``
    on ``u = s / sigma``, divided once per power (``sigma^2`` may underflow
    where the output does not); the closed forms do not resolve an overflow."""
    x = x / sigma if k == 1 else x / sigma / sigma
    if -_INF < x < _INF:
        return x
    raise _unresolved(s, sigma)


def _checked_terms(s, sigma):
    """The prologue of every scalar entry point that takes floats: the range
    rule of ``(s, sigma)`` (tested inline first, to keep a call off the hot
    path), then the call's one :func:`_separation_terms` at ``u = s / sigma``."""
    if not (0.0 < sigma < _INF and 0.0 <= s < _INF):
        _require_s_sigma(s, sigma)
    return _separation_terms(s / sigma)


def _out_of_reach(c, om):
    """The reach rule, ``c^2 - om > 1e-12 om`` with ``om = C_max^2 = 1 - d^2``
    (``c`` above ``C_max`` by a relative ~5e-13); floats and arrays alike."""
    return c * c - om > 1e-12 * om


def _concurrence_angle(c, om, sqrt=sqrt, asin=math.asin, minimum=min):
    """``(theta, C_max, out)`` of :func:`theta_from_concurrence` at ``om =
    C_max^2``, ``out`` the reach rule's flag; floats and arrays alike (pass
    numpy's ``sqrt``, ``arcsin`` and ``minimum``)."""
    c_max = sqrt(om)
    return asin(minimum(c / c_max, 1.0)), c_max, _out_of_reach(c, om)


def _concurrence_terms(s, sigma, c):
    """:func:`_checked_terms` for a concurrence ``c``, after its rule and
    the floor rule (the chart divides by ``1 - d^2``)."""
    _require_concurrence(c)
    return _floor_checked(s, sigma, _checked_terms(s, sigma), "the concurrence chart")


@dataclass(frozen=True, init=False)
class ModelParams:
    """Physical configuration of the two-source field.

    Attributes
    ----------
    s : float
        Source separation (length units), ``s >= 0``.
    sigma : float
        PSF width (length units), positive and finite.  The closed forms
        are taken at ``sigma = 1`` on ``u = s / sigma`` and scaled back by
        their power of ``1 / sigma``; an output that overflows is an error.
    theta : float
        Auxiliary mixing angle in radians, ``0 <= theta <= pi/2``.
    """

    s: float
    sigma: float
    theta: float

    # point queries' records write their fields into the instance dict, not
    # through one frozen object.__setattr__ each as the generated __init__ does
    def __init__(self, s, sigma, theta):
        fields = self.__dict__
        fields["s"] = s
        fields["sigma"] = sigma
        fields["theta"] = theta
        self.__post_init__()

    def __post_init__(self):
        # the rules tested inline first, as in _checked_terms
        if not (0.0 < self.sigma < _INF and 0.0 <= self.s < _INF
                and 0.0 <= self.theta <= _HALF_PI):
            _require_s_sigma(self.s, self.sigma)
            _require_theta(self.theta)


@dataclass(frozen=True)
class OverlapTriple:
    """Gaussian source overlap and its first two separation derivatives.

    ``d = exp(-s^2/8 sigma^2)``, ``d1 = -(s/4 sigma^2) d`` (1/length) and
    ``d2 = (d/4 sigma^2)(s^2/4 sigma^2 - 1)`` (1/length^2).  ``d1`` is
    negative for s > 0 and ``d2`` vanishes exactly at ``s = 2 sigma``.
    """

    d: float
    d1: float
    d2: float


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of the reduced spatial state plus the norms of the
    eigenvector separation-derivatives.

    ``lambda1``/``lambda2`` weight the antisymmetric/symmetric spatial modes
    and always sum to one.  ``a3 = |d e1/ds|`` and ``a4 = |d e2/ds|``
    (both 1/length) normalize the derivative directions that extend the
    two-mode support to a four-dimensional frame.
    """

    lambda1: float
    lambda2: float
    a3: float
    a4: float


def overlap(s: float, sigma: float) -> OverlapTriple:
    """Overlap ``d = exp(-s^2/8 sigma^2)`` of the displaced PSF amplitudes,
    with its first and second derivatives in ``s``: those by ``u = s / sigma``
    over ``sigma`` and ``sigma^2``.

    Raises
    ------
    DomainError
        If ``s`` is negative or not finite, ``sigma`` is not positive and
        finite (NaN included), or a derivative overflows.
    """
    d, d1, _, _ = _checked_terms(s, sigma)
    u = s / sigma
    # d = 0: where u^2 overflows the product would read 0 * inf
    d2 = (d / 4.0) * (u * u / 4.0 - 1.0) if d != 0.0 else 0.0
    return OverlapTriple(d, _per_sigma(s, sigma, d1, 1), _per_sigma(s, sigma, d2, 2))


def concurrence_max(s: float, sigma: float) -> float:
    """Largest reachable concurrence at separation ``s``: ``sqrt(1 - d^2)``."""
    return sqrt(_checked_terms(s, sigma)[3])


def concurrence(p: ModelParams) -> float:
    """Concurrence ``C = sin(theta) sqrt(1 - d^2)`` of the bare-prefactor field.

    This is the convention used by every concurrence axis in this package.
    It vanishes at ``s = 0`` (where the spatial factor drops out) and at
    ``theta = 0`` (where the auxiliary factor drops out).
    """
    return math.sin(p.theta) * sqrt(_separation_terms(p.s / p.sigma)[3])


def concurrence_normalized(p: ModelParams) -> float:
    """Concurrence of the unit-normalized field.

    Dividing the two-source field by its norm ``sqrt(1 + d cos(theta))``
    rescales the concurrence to

        C_norm = sin(theta) sqrt(1 - d^2) / (1 + d cos(theta)),

    whose denominator is summed as ``(1 - d) + d (2 sin^2(theta/2) +
    2 cos(theta))``, the rounding that the pinned outputs hold.
    Equals :func:`concurrence` when theta = pi/2 or in the d -> 0 limit.
    """
    d, _, e, om = _separation_terms(p.s / p.sigma)
    ct, st, omc = _angle_terms(p.theta)
    return st * sqrt(om) / (e + d * (omc + 2.0 * ct))


def theta_from_concurrence(s: float, sigma: float, c: float) -> float:
    """Mixing angle realizing concurrence ``c`` at separation ``s``.

    Inverts ``C = sin(theta) sqrt(1 - d^2)`` on theta in [0, pi/2].

    Raises
    ------
    DegenerateGeometryError
        At ``s = 0``, where only ``C = 0`` is reachable and theta is
        undetermined.
    DomainError
        If ``c`` is negative or NaN, or ("the closed forms do not resolve")
        where ``1 - d^2`` is subnormal, ``s`` below ~3e-154 sigma.
    OutOfReachError
        If ``c^2 - C_max^2 > 1e-12 C_max^2``, ``C_max = sqrt(1 - d^2)``: the
        one reach rule of every concurrence path.  Below it ``c / C_max``
        is clamped at 1, so that ``C_max`` itself round-trips.
    """
    theta, c_max, out = _concurrence_angle(c, _concurrence_terms(s, sigma, c)[3])
    if out:
        raise OutOfReachError(c, c_max)
    return theta


def _separation_terms(u):
    """``(d, d' = dd/du, 1 - d, 1 - d^2)`` at ``sigma = 1``, the terms of the
    separation ``u = s / sigma`` alone, unchecked (:func:`_checked_terms` and
    :class:`ModelParams` check ``(s, sigma)``); ``d'`` at ``sigma`` is this over ``sigma``.
    Where ``d`` underflows to 0, ``d'`` is 0, also once ``u`` or ``u^2``
    overflows (there the product would read ``inf * 0``).
    """
    t = u * u / 8.0
    d = exp(-t)
    # no overlap left, where t or u may be inf
    d1 = -(u / 4.0) * d if d != 0.0 else -0.0
    return d, d1, -expm1(-t), -expm1(-u * u / 4.0)


def _mode_norms(u, d, e):
    """``(a3, a4)`` at ``sigma = 1`` from ``u = s / sigma`` and its
    :func:`_separation_terms` ``d`` and ``e = 1 - d``, for the entry points
    that return them or a QFIM (the rest skip them); at ``sigma`` they are
    these over ``sigma``.  With ``t = u^2/8``

        a3^2 = [1 + d(1 - 2t)] / (16 (1-d)) - d'^2/(4(1-d)^2),
        a4^2 = [1 - d(1 - 2t)] / (16 (1+d)) - d'^2/(4(1+d)^2),

    written so that their leading O(1/t) pieces cancel algebraically; below
    ``t = 1e-3`` the a3 numerator (an O(t^3) residue) runs out of bits and a
    series takes over.  Large t enters as ``2 t d``: as ``2 t - 2 t e`` it
    cancels to 0 past t ~ 1e17 (for a3 that form is kept below t = 1, where
    it is the more accurate).  Where ``d`` underflows to 0, ``2 t d`` is 0,
    also once ``u^2`` overflows.  A rounded-negative square is clamped at 0.
    """
    t = u * u / 8.0
    td = 2.0 * t * d if d != 0.0 else 0.0
    if t < 1e-3:
        a3sq = t * (1.0 - t * t / 30.0) / 48.0
    elif t < 1.0:
        a3sq = (2.0 * (e - t) - e * e + 2.0 * t * e) / (16.0 * e * e)
    else:
        a3sq = (2.0 * e - e * e - td) / (16.0 * e * e)
    a4sq = (2.0 * e - e * e + td) / (16.0 * ((2.0 - e) * (2.0 - e)))
    return sqrt(0.0 if a3sq < 0.0 else a3sq), sqrt(0.0 if a4sq < 0.0 else a4sq)


def _pick(flag, a, b):
    """``numpy.where`` for floats."""
    return a if flag else b


def _angle_terms(theta, cos=math.cos, sin=math.sin):
    """``(cos theta, sin theta, 1 - cos theta)``, the last as
    ``2 sin^2(theta/2)`` (no cancellation at small theta); pass numpy's
    ``cos``/``sin`` for arrays."""
    half = sin(theta / 2.0)
    return cos(theta), sin(theta), 2.0 * (half * half)


def _eigenvalues(d, e, ct, omc):
    """``(lambda1, lambda2, den = 1 + d cos theta)`` from ``d``, ``e = 1 - d``,
    ``cos theta`` and ``1 - cos theta``, for floats and arrays alike."""
    den = 1.0 + d * ct
    return e * omc / (2.0 * den), (2.0 - e) * (1.0 + ct) / (2.0 * den), den


def spectral(p: ModelParams) -> SpectralData:
    """Eigensystem data of the reduced spatial state.

    The unit-trace spatial state is diagonal in the antisymmetric/symmetric
    modes ``e1 = (h_- - h_+)/sqrt(2(1-d))``, ``e2 = (h_- + h_+)/sqrt(2(1+d))``
    with eigenvalues

        lambda1 = (1 - d)(1 - cos theta) / (2 (1 + d cos theta)),
        lambda2 = (1 + d)(1 + cos theta) / (2 (1 + d cos theta)).

    The derivative-direction norms ``a3``, ``a4`` are those of
    :func:`_mode_norms`.

    Raises
    ------
    DegenerateGeometryError
        At ``s = 0`` the antisymmetric direction ``e1`` is undefined.
    """
    _require_separated(p.s, "spectral")
    u = p.s / p.sigma
    d, _, e, _ = _separation_terms(u)
    a3, a4 = _mode_norms(u, d, e)
    ct, _, omc = _angle_terms(p.theta)
    lam1, lam2, _ = _eigenvalues(d, e, ct, omc)
    return SpectralData(lam1, lam2, _per_sigma(p.s, p.sigma, a3, 1),
                        _per_sigma(p.s, p.sigma, a4, 1))
