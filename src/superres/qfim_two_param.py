"""Two-parameter estimation: the quantum Fisher information matrix of
(s, theta) in closed form, its transports to the coherence and concurrence
charts, and the nuisance-corrected precision quantities.

Everything is expressed in the orthonormal frame ``{e1, e2, e3, e4}`` where
``e1``/``e2`` are the antisymmetric/symmetric eigenmodes of the reduced
spatial state and ``e3 = (d e1/ds)/a3``, ``e4 = (d e2/ds)/a4`` extend the
support with the derivative directions (parity keeps all four orthogonal).
In that frame, with ``B = dd/ds`` and ``den = 1 + d cos(theta)``,

    rho           = diag(lambda1, lambda2, 0, 0)
    d rho/ds      : diag part (-y, +y) with y = B sin^2(theta) / (2 den^2),
                    plus lambda1 a3 at (1,3)/(3,1) and lambda2 a4 at (2,4)/(4,2)
    d rho/dtheta  : diag(+x, -x, 0, 0) with x = (1 - d^2) sin(theta) / (2 den^2)

The SLD for parameter ``i`` solves ``d rho/di = (L rho + rho L)/2`` and in
the eigenframe is ``L[k,l] = 2 <e_k|d rho|e_l> / (lambda_k + lambda_l)``
restricted to pairs with nonvanishing eigenvalue sum.  The QFIM elements
here follow from those matrix elements, with the eigenvalue part cancelled
in closed form.  The test suite's reference (``tests/helpers.py``) builds
the 4x4 operators and checks these elements against the generic trace rule
``F_ij = Tr[rho (L_i L_j + L_j L_i)]/2`` and joint optimality,
``Tr(rho [L_s, L_theta]) = 0``.

Nuisance-corrected precisions:

    H_s = F_ss - F_st^2 / F_tt,     H_theta = F_tt - F_st^2 / F_ss.

Because ``d lambda1 = -d lambda2`` the classical (eigenvalue) part of the
QFIM has rank one and ``F_st^2 / F_tt`` cancels it exactly, leaving the
closed form

    H_s = 4 (lambda1 a3^2 + lambda2 a4^2),

which every chart uses.  Since ``det F = F_tt H_s``, the nuisance
precision is ``H_theta = F_tt H_s / F_ss`` in every chart, which avoids the
cancellation of ``F_tt - F_st^2 / F_ss`` at small s.  ``H_s`` is invariant
under reparametrizing the nuisance by coherence ``gamma = cos(theta)`` or by
concurrence; both charts are provided through exact Jacobian transport of
the theta-parametrized matrix.

Degenerate corners (all at s > 0), each decided by one function
that takes floats and arrays alike; the scalar entry points raise where its
flag is set, and ``sweep`` blanks the cell:

* ``theta = 0`` (:func:`_theta_block`, no flag): lambda1 vanishes and
  individual SLD entries diverge, but in the QFIM the ``1/lambda1`` cancels
  against the ``sin^2(theta)`` of the derivatives.  The classical block

      F_ss - H_s = (B sin(theta))^2 / ((1 - d^2) den^2),
      F_tt = (1 - d^2) / den^2,     F_st = -B sin(theta) / den^2

  is regular for every theta and takes its continuous limits
  ``F_ss -> H_s = 4 lambda2 a4^2``, ``F_tt -> (1-d)/(1+d)``, ``F_st -> 0``
  at theta = 0 with no switch.  (Exactly at the point the state is pure
  and the pointwise theta-information is zero; the continuous extension is
  what the precision surfaces plot.)
* ``gamma = 1`` (the flag of :func:`_to_gamma`): the coherence chart has an
  infinite nuisance block; ``precision_gamma`` returns the limiting ``h_s``
  with ``h_nuisance = inf``.
* concurrence at its reachable maximum (theta = pi/2, the ``singular`` flag
  of :func:`_to_concurrence`): the concurrence chart is singular there; use
  the theta chart, whose ``h_s`` is identical.  Its ``resolved`` flag marks
  a transport that overflows or cancels; out of reach is the flag of
  :func:`state_model._concurrence_angle`.
* no nuisance information and no cross term (:func:`_h_nuisance`): below
  the floor ``H_nuisance`` is ``G_nn``, uncorrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import acos

from .errors import DomainError, OutOfReachError
from .state_model import (
    _INF,
    ModelParams,
    _angle_terms,
    _checked_terms,
    _concurrence_angle,
    _concurrence_terms,
    _eigenvalues,
    _floor_checked,
    _mode_norms,
    _per_sigma,
    _pick,
    _require_gamma,
    _separation_terms,
    _unresolved,
)

_NUISANCE_FLOOR = 1e-14     # F_tt below this (with F_st ~ 0): no correction


@dataclass(frozen=True, init=False)
class Qfim2:
    """2x2 quantum Fisher information matrix for (s, nuisance)."""

    f_ss: float
    f_tt: float
    f_st: float
    tag: str = "theta"    # "theta" | "gamma" | "concurrence"

    def __init__(self, f_ss, f_tt, f_st, tag="theta"):
        fields = self.__dict__
        fields["f_ss"] = f_ss
        fields["f_tt"] = f_tt
        fields["f_st"] = f_st
        fields["tag"] = tag


@dataclass(frozen=True, init=False)
class PrecisionPair:
    """Nuisance-corrected information for s, and for the nuisance itself."""

    h_s: float
    h_nuisance: float

    def __init__(self, h_s, h_nuisance):
        fields = self.__dict__
        fields["h_s"] = h_s
        fields["h_nuisance"] = h_nuisance


def _theta_block(terms, norms, ct, st, omc):
    """``(F_ss, F_tt, F_st, H_s)`` for (u, theta) at ``sigma = 1`` from the
    separation terms of :func:`state_model._separation_terms`, the mode
    norms ``(a3, a4)`` of :func:`state_model._mode_norms` and
    ``cos theta``, ``sin theta``, ``1 - cos theta``, for floats and arrays
    alike.  The classical block is the rank-one form of the module
    docstring, in which ``(d lambda1)^2 / (lambda1 lambda2)`` has lost its
    ``sin^2(theta)``; ``F_ss`` adds it to the same ``H_s`` float, so
    ``0 <= H_s <= F_ss`` holds bit for bit.
    """
    d, d1, e, om = terms
    a3, a4 = norms
    lam1, lam2, den = _eigenvalues(d, e, ct, omc)
    b = d1 * st
    h_s = 4.0 * (lam1 * (a3 * a3) + lam2 * (a4 * a4))
    f_ss = b * b / (om * den * den) + h_s
    f_tt = om / (den * den)
    f_st = -b / (den * den)
    return f_ss, f_tt, f_st, h_s


def _to_gamma(block, st, gamma):
    """The theta-chart block of :func:`_theta_block` transported to
    coherence ``gamma = cos(theta)`` by ``d theta/d gamma = -1/sin(theta)``,
    ``(G_ss, G_gg, G_sg, H_s)``, and the flag of ``gamma = 1``, where only
    ``G_ss = H_s`` holds (``sin(theta) = 0`` read as 1); floats and arrays."""
    f_ss, f_tt, f_st, h_s = block
    limit = gamma == 1.0
    j = -1.0 / (st + limit)
    return (f_ss, f_tt * j * j, f_st * j, h_s), limit


def _to_concurrence(block, terms, ct, st, c_max):
    """The theta-chart block transported to (s, C), ``(G_ss, G_CC, G_sC,
    H_s)``, with ``c_max = sqrt(1 - d^2)``, all at ``sigma = 1`` (``s`` is
    ``u`` there).  ``C = sin(theta) c_max`` depends on both parameters: with
    ``t_s = d theta/ds|_C`` and ``t_C = d theta/dC|_s``,
    ``G_ss = F_ss + 2 t_s F_st + t_s^2 F_tt``, ``G_sC = t_C (F_st + t_s F_tt)``
    and ``G_CC = t_C^2 F_tt``.  Floats and arrays alike, with the flags
    ``singular``, theta = pi/2, where only ``H_s`` holds (``cos theta`` read
    one larger), and ``resolved``, ``0 < G_ss < inf``, ``G_CC``, ``G_sC``
    finite (the transport can overflow, and cancel below ``u ~ 2e-12``).
    """
    f_ss, f_tt, f_st, h_s = block
    d, d1, _, om = terms
    singular = ct < 1e-9
    ct = ct + singular
    th_c = 1.0 / (ct * c_max)                  # d theta/dC at fixed s
    th_s = st * d * d1 / (ct * om)             # d theta/ds at fixed C
    g_ss = f_ss + 2.0 * th_s * f_st + th_s * th_s * f_tt
    g_cc, g_sc = th_c * th_c * f_tt, th_c * (f_st + th_s * f_tt)
    resolved = (0.0 < g_ss) & (g_ss < _INF) & (abs(g_cc) < _INF) & (abs(g_sc) < _INF)
    return (g_ss, g_cc, g_sc, h_s), singular, resolved


def _h_nuisance(chart, where=_pick):
    """``H_nuisance = det G / G_ss = G_nn H_s / G_ss`` of a chart ``(G_ss,
    G_nn, G_sn, H_s)``, free of the cancellation in ``G_nn - G_sn^2 / G_ss``;
    below the floor (no nuisance information and no cross term) ``G_nn``.
    Floats and arrays alike (pass ``numpy.where``)."""
    g_ss, g_nn, g_sn, h_s = chart
    below = (g_nn < _NUISANCE_FLOOR) & (abs(g_sn) < _NUISANCE_FLOOR)
    return where(below, g_nn, g_nn * h_s / g_ss)


def _theta_chart(s: float, sigma: float, terms, theta: float):
    """``(cos theta, sin theta, (F_ss, F_tt, F_st, H_s))`` at ``theta`` and
    ``u = s / sigma`` at ``sigma = 1`` (all finite) from ``terms`` past the
    floor rule, for the chart transports: the one evaluation of the mode
    norms of a QFIM entry point."""
    ct, st, omc = _angle_terms(theta)
    return ct, st, _theta_block(terms, _mode_norms(s / sigma, terms[0], terms[2]), ct, st, omc)


def qfim(p: ModelParams) -> Qfim2:
    """QFIM for (s, theta), assembled from the eigenframe element formulas
    (closed forms in :func:`_theta_block`).

    At theta = 0 these reduce to the continuous limits
    ``(F_ss, F_tt, F_st) = (4 lambda2 a4^2, (1-d)/(1+d), 0)``.
    """
    s, sigma = p.s, p.sigma
    terms = _floor_checked(s, sigma, _separation_terms(s / sigma), "qfim")
    f_ss, f_tt, f_st, _ = _theta_chart(s, sigma, terms, p.theta)[2]
    # F_st / sigma cannot overflow where F_ss / sigma^2 does not: F_st^2 <= F_ss F_tt
    return Qfim2(_per_sigma(s, sigma, f_ss, 2), f_tt, f_st / sigma, "theta")


def _h_pair(s, sigma, chart, limit=False) -> PrecisionPair:
    """``(H_s, H_nuisance)`` of a chart ``(G_ss, G_nn, G_sn, H_s)`` at
    ``sigma = 1``: ``H_nuisance`` does not scale, and is taken there so
    that no underflow reads 0/0; it diverges (inf) where ``limit`` is set."""
    return PrecisionPair(_per_sigma(s, sigma, chart[3], 2),
                         math.inf if limit else _h_nuisance(chart))


def precision(p: ModelParams) -> PrecisionPair:
    """Nuisance-corrected informations ``H_s`` and ``H_theta``."""
    s, sigma = p.s, p.sigma
    terms = _floor_checked(s, sigma, _separation_terms(s / sigma), "qfim")
    return _h_pair(s, sigma, _theta_chart(s, sigma, terms, p.theta)[2])


def _gamma_chart(s: float, sigma: float, gamma: float):
    """``((G_ss, G_gg, G_sg, H_s), limit)``: the theta chart transported to
    gamma, and the flag of ``gamma = 1`` (see :func:`_to_gamma`)."""
    _require_gamma(gamma)
    terms = _floor_checked(s, sigma, _checked_terms(s, sigma), "qfim")
    _, st, block = _theta_chart(s, sigma, terms, acos(gamma))
    return _to_gamma(block, st, gamma)


def qfim_gamma(s: float, sigma: float, gamma: float) -> Qfim2:
    """QFIM for (s, gamma) with coherence ``gamma = cos(theta)`` in [0, 1).

    Obtained from the theta-parametrized matrix by the exact chain rule with
    ``d theta/d gamma = -1/sin(theta)``.  At ``gamma = 1`` the nuisance
    block diverges; use :func:`precision_gamma`, which carries the limit.
    """
    (g_ss, g_gg, g_sg, _), limit = _gamma_chart(s, sigma, gamma)
    if limit:
        raise DomainError(
            "the coherence-parametrized matrix diverges at gamma = 1; "
            "precision_gamma handles that limit"
        )
    return Qfim2(_per_sigma(s, sigma, g_ss, 2), g_gg, g_sg / sigma, "gamma")


def precision_gamma(s: float, sigma: float, gamma: float) -> PrecisionPair:
    """``H_s`` and ``H_gamma`` under the coherence nuisance.

    ``H_s`` is the chart-invariant closed form.  At ``gamma = 1`` it takes
    the theta -> 0 limit ``H_s = F_ss = 4 lambda2 a4^2`` while ``H_gamma``
    diverges (returned as inf).
    """
    return _h_pair(s, sigma, *_gamma_chart(s, sigma, gamma))


def _concurrence_chart(s: float, sigma: float, c: float) -> tuple[float, float, float, float]:
    """``(G_ss, G_CC, G_sC, H_s)``: the theta chart transported to (s, C)
    (see :func:`_to_concurrence`), refused where a flag is set."""
    terms = _concurrence_terms(s, sigma, c)
    theta, c_max, out = _concurrence_angle(c, terms[3])
    if out:
        raise OutOfReachError(c, c_max)
    ct, st, block = _theta_chart(s, sigma, terms, theta)
    chart, singular, resolved = _to_concurrence(block, terms, ct, st, c_max)
    if singular:
        raise DomainError(
            "the concurrence chart is singular at the reachable maximum "
            "(theta = pi/2); use the theta or gamma chart there"
        )
    if not resolved:
        raise _unresolved(s, sigma, "concurrence", c)
    return chart


def qfim_concurrence(s: float, sigma: float, c: float) -> Qfim2:
    """QFIM for (s, C): Jacobian transport of the theta-parametrized matrix
    (formulas in :func:`_to_concurrence`)."""
    g_ss, g_cc, g_sc, _ = _concurrence_chart(s, sigma, c)
    return Qfim2(_per_sigma(s, sigma, g_ss, 2), g_cc, g_sc / sigma, "concurrence")


def precision_concurrence(s: float, sigma: float, c: float) -> PrecisionPair:
    """``H_s`` and ``H_C`` under the concurrence nuisance (theta < pi/2)."""
    return _h_pair(s, sigma, _concurrence_chart(s, sigma, c))
