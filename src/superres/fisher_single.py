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

from .errors import OutOfReachError
from .state_model import (ModelParams, _angle_terms, _checked_terms, _concurrence_terms,
                          _out_of_reach, _per_sigma, _pick, _require_gamma)

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


def _f_tot_form(u, d, e, gamma, omg, where=_pick):
    """``sigma^2 F_tot`` (module docstring) from ``u = s / sigma``, ``d``,
    ``e = 1 - d``, ``gamma`` and ``omg = 1 - gamma``; floats and arrays alike
    (pass ``numpy.where``).  With no overlap left the u^2 term vanishes
    (``d * u^2`` is ``0 * inf`` where ``u^2`` overflows)."""
    g2 = 1.0 + gamma * gamma
    f = (omg + gamma * e) / 4.0 + gamma * d * (u * u) * g2 / (16.0 * (g2 + 2.0 * d * gamma))
    return where(d == 0.0, 0.25, f)


def _concurrence_to_gamma(c, om, sqrt=sqrt):
    """``(gamma, 1 - gamma, out)`` of concurrence ``c`` at ``om = 1 - d^2``
    (module docstring), ``out`` the reach rule's flag; floats and arrays alike
    (pass numpy's ``sqrt``).  Within rounding of ``C_max``, ``R = om - c^2``
    carries no information and is 0, which gives ``F_tot``'s exact boundary
    value ``1/(4 sigma^2)``."""
    rem = om - c * c
    # + 0.0: False * rem is -0.0 where rem < 0
    rem = (rem >= 4.0 * _EPS * om) * rem + 0.0
    root, root_om = sqrt(rem), sqrt(om)
    return root / root_om, (om - rem) / (om + root_om * root), _out_of_reach(c, om)


def f_tot_coherence(s: float, sigma: float, gamma: float) -> FiRecord:
    """Total FI as a function of separation and coherence ``gamma`` in [0, 1].

    Valid for any ``s >= 0``; at ``s = 0`` and full coherence the result is
    exactly zero (the resolution limit in its sharpest form).
    """
    _require_gamma(gamma)
    d, _, e, om = _checked_terms(s, sigma)
    f = _f_tot_form(s / sigma, d, e, gamma, 1.0 - gamma)
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
    gamma, omg, out = _concurrence_to_gamma(c, om)
    if out:
        raise OutOfReachError(c, sqrt(om))
    return FiRecord(s, sigma, acos(gamma), gamma, c,
                    _per_sigma(s, sigma, _f_tot_form(s / sigma, d, e, gamma, omg), 2))


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
    d, d1, e, _ = _checked_terms(p.s, p.sigma)
    u = p.s / p.sigma
    g, _, omg = _angle_terms(p.theta)

    big_m = 1.0 + g * g + 2.0 * d * g          # <v|v> for v = h_+ + gamma h_-
    n1 = 0.5 * big_m
    n2 = 0.5 * (1.0 - g * g)

    # at sigma = 1 on u: <dv|dv> = (1+g^2)/16 + 2 g <dh_+|dh_->, with
    # <dh_+|dh_-> = -d (4 - u^2)/64, summed with no cancellation as ((1-g)^2
    # + 2 g (1-d))/16 + g d u^2/32; <v|dv> = g d1.  With no overlap left the
    # u^2 term vanishes (d * u^2 = 0 * inf where u^2 overflows)
    dvdv = (omg * omg + 2.0 * g * e) / 16.0
    if d != 0.0:
        dvdv += g * d * (u * u) / 32.0
    f1 = 4.0 * (dvdv / big_m - (g * d1) ** 2 / (big_m * big_m))
    f2 = 0.25

    return _per_sigma(p.s, p.sigma, n1 * f1 + (n2 * f2 if n2 > 0.0 else 0.0), 2)
