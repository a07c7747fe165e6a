"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Expected values that are not exact were pinned after confirming
them against the brute-force grid oracle.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    SRC_ENV,
    commutator_expectation,
    grid_eigvec_derivative_norms,
    weight_term_reconstruct,
)
from superres import (
    ModelParams,
    concurrence_max,
    f_tot_coherence,
    f_tot_concurrence,
    numeric_qfim,
    overlap,
    precision,
    precision_concurrence,
    precision_gamma,
    qfim,
    spectral,
    weighted_fi_reconstruct,
)


@contextmanager
def criterion(num: int, text: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} FAIL: {text}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:02d} PASS: {text} [{elapsed:.2f}s]")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_01_incoherent_anchor():
    with criterion(1, "f_tot(gamma=0) pinned at 1/4 sigma^2 over 100 separations", 1.0):
        for s in np.linspace(1e-3, 5.0, 100):
            assert abs(f_tot_coherence(float(s), 1.0, 0.0).f_tot - 0.25) < 1e-12


def test_criterion_02_rayleigh_curse_resurgence():
    with criterion(2, "full coherence kills the information as s -> 0", 1.0):
        assert f_tot_coherence(1e-3, 1.0, 1.0).f_tot < 1e-5
        assert f_tot_coherence(0.3, 1.0, 1.0).f_tot == pytest.approx(0.0055934, abs=1e-7)


def test_criterion_03_concurrence_coherence_equivalence():
    with criterion(3, "concurrence and coherence forms agree to 1e-12 on 100x100", 5.0):
        worst = 0.0
        for s in np.linspace(0.05, 5.0, 100):
            s = float(s)
            om = -math.expm1(-s * s / 4.0)
            for theta in np.linspace(0.0, math.pi / 2, 100):
                g = math.cos(float(theta))
                c = math.sqrt((1.0 - g * g) * om)
                diff = abs(
                    f_tot_concurrence(s, 1.0, c).f_tot
                    - f_tot_coherence(s, 1.0, g).f_tot
                )
                worst = max(worst, diff)
        assert worst < 1e-12, f"max form disagreement {worst:.3e}"


def test_criterion_04_monotonicity():
    with criterion(4, "f_tot falls with coherence and rises with concurrence", 2.0):
        for s in (0.3, 0.5, 1.0):
            gs = [f_tot_coherence(s, 1.0, float(g)).f_tot for g in np.linspace(0, 1, 100)]
            assert all(b <= a for a, b in zip(gs, gs[1:]))
            c_max = concurrence_max(s, 1.0)
            cs = [f_tot_concurrence(s, 1.0, float(c)).f_tot
                  for c in np.linspace(0.0, c_max, 100)]
            assert all(b >= a for a, b in zip(cs, cs[1:]))


def test_criterion_05_qfim_anchor():
    with criterion(5, "QFIM and H_s closed-form reductions at s=2, theta=pi/2", 1.0):
        d = overlap(2.0, 1.0).d
        q = qfim(ModelParams(2.0, 1.0, math.pi / 2))
        h = precision(ModelParams(2.0, 1.0, math.pi / 2))
        assert abs(q.f_ss - 0.25) < 1e-9
        assert abs(q.f_tt - (1.0 - d * d)) < 1e-9
        assert abs(q.f_st - d * 2.0 / 4.0) < 1e-9
        assert abs(h.h_s - (0.25 - d * d * 4.0 / (16.0 * (1.0 - d * d)))) < 1e-9


def test_criterion_06_oracle_equivalence():
    with criterion(6, "analytic QFIM matches brute-force grid to 1e-6 relative", 30.0):
        for s in (0.5, 1.0, 2.0, 3.0):
            for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
                p = ModelParams(s, 1.0, theta)
                ana = qfim(p)
                num = numeric_qfim(p)   # default grid: 4096 points, halfwidth 10 sigma + s
                for a, n in ((ana.f_ss, num.f_ss), (ana.f_tt, num.f_tt),
                             (ana.f_st, num.f_st)):
                    assert abs(a - n) / abs(n) < 1e-6, (s, theta, a, n)


def test_criterion_07_joint_optimality():
    # on the test suite's 4x4 SLD reference (helpers.py)
    with criterion(7, "SLD commutator expectation vanishes (50 random points)", 2.0):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            p = ModelParams(
                s=float(rng.uniform(0.05, 5.0)),
                sigma=float(rng.uniform(0.5, 2.0)),
                theta=float(rng.uniform(0.01, math.pi / 2)),
            )
            assert abs(commutator_expectation(p)) < 1e-10


def test_criterion_08_nuisance_invariance():
    with criterion(8, "H_s identical under theta/concurrence/coherence nuisance", 5.0):
        for s in np.linspace(0.1, 4.8, 50):
            s = float(s)
            om = -math.expm1(-s * s / 4.0)
            for theta in np.linspace(0.12, math.pi / 2 - 0.05, 10):
                theta = float(theta)
                h_t = precision(ModelParams(s, 1.0, theta)).h_s
                h_g = precision_gamma(s, 1.0, math.cos(theta)).h_s
                h_c = precision_concurrence(s, 1.0, math.sin(theta) * math.sqrt(om)).h_s
                assert abs(h_t - h_g) < 1e-9
                assert abs(h_t - h_c) < 1e-9
                assert abs(h_g - h_c) < 1e-9


def test_criterion_09_precision_surface_claims():
    with criterion(9, "H_s > 0 away from the corner, H_s ~ 0 at s = 1e-3", 5.0):
        for s in np.linspace(0.05, 5.0, 100):
            for theta in np.linspace(0.05, math.pi / 2, 100):
                assert precision(ModelParams(float(s), 1.0, float(theta))).h_s > 0.0
        for theta in np.linspace(0.0, math.pi / 2, 100):
            assert precision(ModelParams(1e-3, 1.0, float(theta))).h_s < 1e-5
        for gamma in np.linspace(0.0, 1.0, 100):
            assert precision_gamma(1e-3, 1.0, float(gamma)).h_s < 1e-5


def test_criterion_10_extension_coefficients_validated():
    with criterion(10, "a3/a4 match grid-differentiated eigenmode norms", 10.0):
        for s in (0.5, 1.0, 2.0, 3.0):
            spec = spectral(ModelParams(s, 1.0, 0.5))
            a3_num, a4_num = grid_eigvec_derivative_norms(s)
            assert abs(spec.a3**2 - a3_num) / a3_num < 1e-6
            assert abs(spec.a4**2 - a4_num) / a4_num < 1e-6


def test_criterion_11_weighted_fi_calibration():
    with criterion(11, "exactly one reconstruction variant reproduces the closed form", 10.0):
        variants = {"quantum-only": weighted_fi_reconstruct,
                    "quantum-plus-weight": weight_term_reconstruct}
        matches = dict.fromkeys(variants, True)
        for s in np.linspace(0.1, 5.0, 20):
            s = float(s)
            for theta in np.linspace(0.0, math.pi / 2, 20):
                p = ModelParams(s, 1.0, float(theta))
                target = f_tot_coherence(s, 1.0, math.cos(float(theta))).f_tot
                for name, reconstruct in variants.items():
                    if abs(reconstruct(p) - target) > 1e-9:
                        matches[name] = False
        assert matches["quantum-only"], "raw-weight quantum variant must match"
        assert not matches["quantum-plus-weight"], "weight-term variant must not match"


def test_criterion_12_figure_determinism(tmp_path):
    with criterion(12, "figure fig1c emits byte-identical CSV across runs", 5.0):
        outputs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "superres.cli", "figure", "fig1c",
                 "--out", str(out)],
                capture_output=True,
                text=True,
                env=SRC_ENV,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 10_000
