#!/usr/bin/env python3
"""Where the closed-form total information comes from.

The total FI is a weighted sum of branch informations,
F_tot = N1 F1 + N2 F2, with the raw branch weights N_i = <Phi_i|Phi_i>
and F_i the quantum FI of the normalized branch states.  This script
prints that sum beside the closed form.

Adding the classical information sum_i (d p_i/ds)^2 / p_i of the
renormalized weights p_i = N_i / (N1 + N2) overshoots the closed form,
which does not contain that term; tests/test_acceptance.py
(test_criterion_11_weighted_fi_calibration) pins both facts.
"""

import math

import numpy as np

from superres import ModelParams, f_tot_coherence, weighted_fi_reconstruct

print(f"{'s':>5} {'theta':>7} {'closed form':>14} {'N1 F1 + N2 F2':>14}")
for s in (0.3, 1.0, 2.0, 3.5):
    for theta in (0.0, math.pi / 6, math.pi / 3, math.pi / 2):
        closed = f_tot_coherence(s, 1.0, math.cos(theta)).f_tot
        q = weighted_fi_reconstruct(ModelParams(s, 1.0, theta))
        print(f"{s:5.1f} {theta:7.4f} {closed:14.9f} {q:14.9f}")

worst = 0.0
for s in np.linspace(0.1, 5.0, 40):
    for theta in np.linspace(0.0, math.pi / 2, 40):
        p = ModelParams(float(s), 1.0, float(theta))
        closed = f_tot_coherence(float(s), 1.0, math.cos(float(theta))).f_tot
        worst = max(worst, abs(weighted_fi_reconstruct(p) - closed))
print(f"\nlargest |N1 F1 + N2 F2 - closed| over a 40x40 grid: {worst:.2e}")
