#!/usr/bin/env python3
"""Closed forms against the brute-force grid, side by side.

Every analytic ingredient has an independent numerical twin: trapezoid
quadrature for overlaps, the branch-amplitude Gram determinant on the
grid for concurrence, exact derivatives of the sampled PSF plus the
spectral SLD sum over the exact 2x2 support of the density matrix and its
kernel for the QFIM (closed-form eigenvalues, no cutoff).  This script
prints the relative disagreements; they should sit many orders below the
1e-6 acceptance line, also at s = 1e-5 and 1e-6 sigma, where the small
eigenvalue of the density matrix is ~1e-12 and below.
"""

import math

import numpy as np

from superres import (
    ModelParams,
    concurrence_normalized,
    default_grid,
    numeric_concurrence,
    numeric_qfim,
    overlap,
    qfim,
)

print("overlap d: closed form vs trapezoid quadrature")
for s in (0.5, 1.0, 2.0, 4.0):
    grid = default_grid(s, 1.0)
    hp, hm = (np.exp(-(grid.x + sign * s / 2) ** 2 / 4.0) for sign in (1.0, -1.0))
    w = grid.weights                                  # trapezoid weights
    d = (w @ (hp * hm)) / math.sqrt((w @ (hp * hp)) * (w @ (hm * hm)))
    exact = overlap(s, 1.0).d
    print(f"  s={s:<4} d={exact:.12f}  |delta|={abs(d - exact):.2e}")

print("\nconcurrence: closed form vs the grid's Gram determinant")
for theta, phi in ((math.pi / 2, 0.0), (math.pi / 4, 0.0), (math.pi / 4, 1.1)):
    p = ModelParams(2.0, 1.0, theta, phi)
    a, n = concurrence_normalized(p), numeric_concurrence(p)
    print(f"  theta={theta:.3f} phi={phi:<4} C={a:.10f}  |delta|={abs(a - n):.2e}")

print("\nQFIM: element formulas vs grid derivatives + support-plus-kernel SLD sum")
print(f"{'s':>5} {'theta':>7} {'rel dF_ss':>11} {'rel dF_tt':>11} {'rel dF_st':>11}")
worst = 0.0
for s in (1e-6, 1e-5, 0.5, 1.0, 2.0, 3.0):
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
        p = ModelParams(s, 1.0, theta)
        ana, num = qfim(p), numeric_qfim(p)
        rels = [abs(a - n) / abs(n) for a, n in
                ((ana.f_ss, num.f_ss), (ana.f_tt, num.f_tt), (ana.f_st, num.f_st))]
        worst = max(worst, *rels)
        print(f"{s:5.3g} {theta:7.4f} {rels[0]:11.2e} {rels[1]:11.2e} {rels[2]:11.2e}")

print(f"\nworst relative QFIM delta: {worst:.2e}  (acceptance line: 1e-06)")
