"""Single-parameter (separation-only) Fisher information.

The total Fisher information of the two-source field is the weighted sum of
the pure-state Fisher informations of its two auxiliary-basis branches,
``F_tot = <Phi_1|Phi_1> F_1 + <Phi_2|Phi_2> F_2``.  Carried out in closed
form this gives, in terms of coherence ``gamma`` and ``u = s / sigma``,

    sigma^2 F_tot = [(1 - gamma) + gamma (1 - d)] / 4
                    + gamma d u^2 (1 + gamma^2) / (16 (1 + gamma^2 + 2 d gamma)),

every term nonnegative.  In terms of concurrence ``C`` the same form holds
with ``gamma = sqrt(R / om)`` and ``1 - gamma = C^2 / (om + sqrt(om R))``
(``om = 1 - d^2``, ``R = om - C^2``), by ``C^2 = (1 - gamma^2)(1 - d^2)``.

At ``gamma = 0`` (incoherent sources) the information is ``1/(4 sigma^2)``
for every separation; at full coherence it collapses to zero as ``s -> 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import acos, sqrt

from .state_model import ModelParams, _checked_terms, _concurrence_terms, _per_sigma, _require_gamma

_EPS = math.ulp(1.0)


@dataclass(frozen=True, init=False)
class FiRecord:
    """One evaluated Fisher-information point with its state descriptors."""

    s: float
    sigma: float
    theta: float
    gamma: float
    concurrence: float
    f_tot: float

    def __init__(self, s, sigma, theta, gamma, concurrence, f_tot):
        fields = self.__dict__
        fields["s"] = s
        fields["sigma"] = sigma
        fields["theta"] = theta
        fields["gamma"] = gamma
        fields["concurrence"] = concurrence
        fields["f_tot"] = f_tot


def _f_tot_form(u, d, e, gamma, omg):
    """``sigma^2 F_tot`` (module docstring) from ``u = s / sigma``, ``d > 0``,
    ``e = 1 - d``, ``gamma`` and ``omg = 1 - gamma``, for floats and arrays
    alike."""
    g2 = 1.0 + gamma * gamma
    return (omg + gamma * e) / 4.0 + gamma * d * (u * u) * g2 / (16.0 * (g2 + 2.0 * d * gamma))


def f_tot_coherence(s: float, sigma: float, gamma: float) -> FiRecord:
    """Total FI as a function of separation and coherence ``gamma`` in [0, 1].

    Valid for any ``s >= 0``; at ``s = 0`` and full coherence the result is
    exactly zero (the resolution limit in its sharpest form).
    """
    _require_gamma(gamma)
    d, _, e, om = _checked_terms(s, sigma)
    # no overlap left: the u^2 term vanishes (d * u^2 = 0 * inf where u^2 overflows)
    f = 0.25 if d == 0.0 else _f_tot_form(s / sigma, d, e, gamma, 1.0 - gamma)
    return FiRecord(s, sigma, acos(gamma), gamma,
                    sqrt((1.0 - gamma * gamma) * om), _per_sigma(s, sigma, f, 2))


def f_tot_concurrence(s: float, sigma: float, c: float) -> FiRecord:
    """Total FI as a function of separation and concurrence ``c``.

    Requires ``s > 0`` (the coefficient ``sqrt(1 - d^2)`` sits in a
    denominator) and ``0 <= c <= C_max(s) = sqrt(1 - d^2)``.

    Raises
    ------
    DegenerateGeometryError
        At ``s = 0``, or where ``1 - d^2`` is subnormal (``s`` below
        ~3e-154 sigma); approach that column through the coherence form.
    OutOfReachError
        If ``c`` is out of reach by the rule of
        :func:`~superres.state_model.theta_from_concurrence`.
    """
    d, _, e, om = _concurrence_terms(s, sigma, c)
    rem = om - c * c
    if rem < 4.0 * _EPS * om:
        # c sits at (or within rounding of) the reachable boundary; the
        # subtraction carries no information there and the exact boundary
        # value is 1/(4 sigma^2), which 1 - gamma = 1 gives
        rem = 0.0
    root = sqrt(rem)
    root_om = sqrt(om)
    gamma = min(root / root_om, 1.0)
    f = (0.25 if d == 0.0     # as in f_tot_coherence
         else _f_tot_form(s / sigma, d, e, gamma, (om - rem) / (om + root_om * root)))
    return FiRecord(s, sigma, acos(gamma), gamma, c, _per_sigma(s, sigma, f, 2))


def weighted_fi_reconstruct(p: ModelParams) -> float:
    """Rebuild the total FI as a branch-weighted sum of pure-state FIs.

    The field splits into two auxiliary-basis branches with weights
    ``N1 = <Phi_1|Phi_1> = (1 + gamma^2 + 2 d gamma)/2`` and
    ``N2 = <Phi_2|Phi_2> = (1 - gamma^2)/2`` (gamma = cos theta, phi = 0).
    Branch FIs are the quantum Fisher informations of the *normalized*
    branch states, evaluated in closed form through the overlap algebra.

    The sum ``N1 F1 + N2 F2`` takes the raw (non-renormalized) weights and
    reproduces :func:`f_tot_coherence` exactly.  Adding the classical
    information of the trace-renormalized weights overshoots it wherever
    they depend on ``s``; the calibration test in the suite pins both facts.

    At ``theta = 0`` the second branch has zero weight and contributes zero.
    """
    p.require_phi_zero("weighted_fi_reconstruct")
    d, d1, _, _ = _checked_terms(p.s, p.sigma)
    u = p.s / p.sigma
    g = math.cos(p.theta)

    big_m = 1.0 + g * g + 2.0 * d * g          # <v|v> for v = h_+ + gamma h_-
    n1 = 0.5 * big_m
    n2 = 0.5 * (1.0 - g * g)

    # at sigma = 1 on u: <dv|dv> = (1+g^2)/16 + 2 g <dh_+|dh_->, with
    # <dh_+|dh_-> = -d (4 - u^2)/64; <v|dv> = g d1.  With no overlap left the
    # cross term vanishes (d * u^2 = 0 * inf where u^2 overflows)
    dvdv = (1.0 + g * g) / 16.0
    if d != 0.0:
        dvdv -= 2.0 * g * d * (4.0 - u * u) / 64.0
    f1 = 4.0 * (dvdv / big_m - (g * d1) ** 2 / (big_m * big_m))
    f2 = 0.25

    return _per_sigma(p.s, p.sigma, n1 * f1 + (n2 * f2 if n2 > 0.0 else 0.0), 2)
