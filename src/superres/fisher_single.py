"""Single-parameter (separation-only) Fisher information.

The total Fisher information of the two-source field is the weighted sum of
the pure-state Fisher informations of its two auxiliary-basis branches,
``F_tot = <Phi_1|Phi_1> F_1 + <Phi_2|Phi_2> F_2``.  Carried out in closed
form this gives, in terms of coherence ``gamma``,

    F_tot = 1/(4 sigma^2)
            - gamma d (4 sigma^2 - s^2) / (16 sigma^4)
            - gamma^2 d^2 s^2 / (8 sigma^4 (1 + gamma^2 + 2 d gamma)),

and, in terms of concurrence ``C`` (with om = 1 - d^2, R = om - C^2),

    F_tot = 1/(4 sigma^2)
            - d (4 sigma^2 - s^2) sqrt(R) / (16 sigma^4 sqrt(om))
            - d^2 s^2 R / (8 sigma^4 (om + R + 2 d sqrt(om R))).

The two forms are equivalent under ``C^2 = (1 - gamma^2)(1 - d^2)``.  Note
the ``1/sigma^4`` in the last term of both: it is forced by dimensional
analysis and by the weighted-sum derivation, and is invisible at the
``sigma = 1`` convention used everywhere in the bundled sweeps.

At ``gamma = 0`` (incoherent sources) the information is ``1/(4 sigma^2)``
for every separation; at full coherence it collapses to zero as ``s -> 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .state_model import ModelParams, _checked_terms, _concurrence_terms, _require_gamma

_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class FiRecord:
    """One evaluated Fisher-information point with its state descriptors."""

    s: float
    sigma: float
    theta: float
    gamma: float
    concurrence: float
    f_tot: float


def _coherence_form(s, sigma, d, gamma):
    """``F_tot`` in terms of coherence (module docstring), ``d > 0``, for
    floats and arrays alike."""
    sig2 = sigma * sigma
    sig4 = sig2 * sig2
    return (
        1.0 / (4.0 * sig2)
        - gamma * d * (4.0 * sig2 - s * s) / (16.0 * sig4)
        - gamma * gamma * d * d * s * s
        / (8.0 * sig4 * (1.0 + gamma * gamma + 2.0 * d * gamma))
    )


def _concurrence_form(s, sigma, d, om, rem, root, root_om):
    """``F_tot`` in terms of concurrence (module docstring), ``d > 0``, from
    ``om = 1 - d^2``, ``rem = om - C^2`` and their square roots ``root_om``,
    ``root``, for floats and arrays alike."""
    sig2 = sigma * sigma
    sig4 = sig2 * sig2
    den = om + rem + 2.0 * d * root_om * root   # = 2 - 2 d^2 - c^2 + 2 d sqrt(om) sqrt(rem)
    return (
        1.0 / (4.0 * sig2)
        - d * (4.0 * sig2 - s * s) * root / (16.0 * sig4 * root_om)
        - d * d * s * s * rem / (8.0 * sig4 * den)
    )


def f_tot_coherence(s: float, sigma: float, gamma: float) -> FiRecord:
    """Total FI as a function of separation and coherence ``gamma`` in [0, 1].

    Valid for any ``s >= 0``; at ``s = 0`` and full coherence the result is
    exactly zero (the resolution limit in its sharpest form).
    """
    _require_gamma(gamma)
    d, _, _, om, _, _ = _checked_terms(s, sigma)
    # no overlap left: both correction terms vanish (where s^2 overflows
    # they would read d * s^2 = 0 * inf)
    f = 1.0 / (4.0 * sigma * sigma) if d == 0.0 else _coherence_form(s, sigma, d, gamma)
    return FiRecord(
        s=s,
        sigma=sigma,
        theta=math.acos(gamma),
        gamma=gamma,
        concurrence=math.sqrt((1.0 - gamma * gamma) * om),
        f_tot=f,
    )


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
    d, _, _, om, _, _ = _concurrence_terms(s, sigma, c)
    rem = om - c * c
    if rem < 4.0 * _EPS * om:
        # c sits at (or within rounding of) the reachable boundary; the
        # subtraction carries no information there and the exact boundary
        # value is 1/(4 sigma^2)
        rem = 0.0
    root = math.sqrt(rem)
    root_om = math.sqrt(om)
    f = (1.0 / (4.0 * sigma * sigma) if d == 0.0     # as in f_tot_coherence
         else _concurrence_form(s, sigma, d, om, rem, root, root_om))
    gamma = min(root / root_om, 1.0)
    return FiRecord(
        s=s,
        sigma=sigma,
        theta=math.acos(gamma),
        gamma=gamma,
        concurrence=c,
        f_tot=f,
    )


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
    d, d1, _, _, _, _ = _checked_terms(p.s, p.sigma)
    g = math.cos(p.theta)
    sig2 = p.sigma * p.sigma
    sig4 = sig2 * sig2

    big_m = 1.0 + g * g + 2.0 * d * g          # <u|u> for u = h_+ + gamma h_-
    n1 = 0.5 * big_m
    n2 = 0.5 * (1.0 - g * g)

    # <du|du> = (1+g^2)/16 sigma^2 + 2 g <dh_+|dh_->, with
    # <dh_+|dh_-> = -d (4 sigma^2 - s^2)/(64 sigma^4); <u|du> = g d1.  With no
    # overlap left the cross term vanishes (d * s^2 = 0 * inf where s^2 overflows)
    dudu = (1.0 + g * g) / (16.0 * sig2)
    if d != 0.0:
        dudu -= 2.0 * g * d * (4.0 * sig2 - p.s * p.s) / (64.0 * sig4)
    f1 = 4.0 * (dudu / big_m - (g * d1) ** 2 / (big_m * big_m))
    f2 = 1.0 / (4.0 * sig2)

    return n1 * f1 + (n2 * f2 if n2 > 0.0 else 0.0)
