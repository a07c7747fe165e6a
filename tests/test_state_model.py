import math

import numpy as np
import pytest

import superres
from helpers import make_sources
from superres import (
    DegenerateGeometryError,
    DomainError,
    ModelParams,
    OutOfReachError,
    OverlapTriple,
    SweepSpec,
    concurrence_max,
    concurrence_normalized,
    concurrence,
    f_tot_concurrence,
    numeric_concurrence,
    overlap,
    precision,
    precision_concurrence,
    qfim,
    qfim_concurrence,
    run_sweep,
    spectral,
    theta_from_concurrence,
    weighted_fi_reconstruct,
)
from superres import qfim_two_param, state_model

# values pinned by the position-grid oracle (trapezoid quadrature and
# central differences agree with the closed forms to <= 1e-9 relative)
D_S2 = 0.6065306597126334
D1_S2 = -0.3032653298563167
SQRT_1ME = 0.7950600976206501           # sqrt(1 - e^-1)
CNORM_PI4 = 0.3934491505312938
CNORM_PI4_PHI = 0.47063536569414455     # same point at phi = 1.1
CMAX_03 = 0.14916019176262738
A4SQ_S2 = 0.029995148412831477
A3SQ_S2 = 0.010330629752552056


class TestOverlap:
    def test_zero_separation(self):
        tri = overlap(0.0, 1.0)
        assert tri.d == 1.0
        assert tri.d1 == 0.0
        assert tri.d2 == -0.25

    def test_two_sigma_point(self):
        tri = overlap(2.0, 1.0)
        assert tri.d == pytest.approx(D_S2, abs=1e-15)
        assert tri.d1 == pytest.approx(D1_S2, abs=1e-15)
        assert tri.d2 == 0.0   # second derivative vanishes exactly at s = 2 sigma

    def test_matches_grid_quadrature(self):
        hp, hm = make_sources(1.0, 1.0)
        assert abs(hp.inner(hm) - overlap(1.0, 1.0).d) < 1e-10

    def test_derivative_relations(self):
        for s in np.linspace(0.1, 6.0, 25):
            for sigma in (0.5, 1.0, 2.0):
                tri = overlap(s, sigma)
                assert 0.0 < tri.d < 1.0
                assert tri.d1 <= 0.0
                assert tri.d1 == pytest.approx(-(s / (4 * sigma**2)) * tri.d, rel=1e-14)

    @pytest.mark.parametrize("s,sigma", [(-0.1, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_bad_inputs(self, s, sigma):
        with pytest.raises(DomainError):
            overlap(s, sigma)


class TestCoherence:
    """The degree of coherence is ``cos(theta)`` for theta in [0, pi/2];
    ``ModelParams`` holds theta to that range."""

    @pytest.mark.parametrize("theta", [-0.1, math.pi / 2 + 0.1, 3.2])
    def test_rejects_out_of_range(self, theta):
        with pytest.raises(DomainError):
            ModelParams(1.0, 1.0, theta)


class TestConcurrence:
    def test_vanishes_at_zero_separation(self):
        assert concurrence(ModelParams(0.0, 1.0, math.pi / 2)) == 0.0

    def test_vanishes_at_full_coherence(self):
        assert concurrence(ModelParams(3.0, 1.0, 0.0)) == 0.0

    def test_incoherent_value(self):
        c = concurrence(ModelParams(2.0, 1.0, math.pi / 2))
        assert c == pytest.approx(SQRT_1ME, abs=1e-12)

    def test_normalized_equals_plain_at_theta_half_pi(self):
        p = ModelParams(2.0, 1.0, math.pi / 2)
        assert concurrence_normalized(p) == pytest.approx(concurrence(p), abs=1e-15)

    def test_normalized_value(self):
        p = ModelParams(2.0, 1.0, math.pi / 4)
        assert concurrence_normalized(p) == pytest.approx(CNORM_PI4, abs=1e-12)

    def test_normalized_agrees_with_purity_oracle(self):
        for s in (0.5, 1.0, 2.0, 3.0):
            for theta in (0.0, math.pi / 8, math.pi / 4, math.pi / 2):
                for phi in (0.0, 1.1, -2.0):
                    p = ModelParams(s, 1.0, theta, phi)
                    assert concurrence_normalized(p) == pytest.approx(
                        numeric_concurrence(p), abs=1e-8
                    )

    def test_normalized_with_phase(self):
        p = ModelParams(2.0, 1.0, math.pi / 4, 1.1)
        assert concurrence_normalized(p) == pytest.approx(CNORM_PI4_PHI, abs=1e-12)

    @pytest.mark.parametrize("s, theta, phi", [(1e-9, 1e-9, math.pi), (1e-4, 1e-4, math.pi),
                                               (1e-3, 1e-3, math.pi - 1e-3)])
    def test_normalized_matches_mpmath_near_opposite_phase(self, s, theta, phi):
        # 1 + d cos(theta) cos(phi) cancels near phi = pi: at the first point
        # it was a bare ZeroDivisionError (the value is 0.8), at the second
        # 4.3e-9 off
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            ms, mt, mf = mp.mpf(s), mp.mpf(theta), mp.mpf(phi)
            d = mp.exp(-ms**2 / 8)
            want = mp.sin(mt) * mp.sqrt(1 - d**2) / (1 + d * mp.cos(mt) * mp.cos(mf))
            got = concurrence_normalized(ModelParams(s, 1.0, theta, phi))
            assert abs(got / want - 1) < 1e-15

    def test_conventions_differ_away_from_half_pi(self):
        p = ModelParams(2.0, 1.0, math.pi / 4)
        assert abs(concurrence(p) - concurrence_normalized(p)) > 0.1

    def test_max_where_s_squared_is_subnormal_but_u_is_not(self):
        # s * s = 1e-320 is subnormal while u = s / sigma = 1e-85 is not: with
        # sigma^2 carried through the closed forms C_max was 5.6e-6 off
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            want = mp.sqrt(-mp.expm1(-(mp.mpf(1e-160) / mp.mpf(1e-75)) ** 2 / 4))
            assert abs(concurrence_max(1e-160, 1e-75) / want - 1) < 1e-15

    @pytest.mark.parametrize("s, sigma", [(math.nan, 1.0), (1.0, math.nan)])
    def test_max_rejects_nan(self, s, sigma):
        with pytest.raises(DomainError):
            concurrence_max(s, sigma)


class TestThetaFromConcurrence:
    def test_endpoints(self):
        assert theta_from_concurrence(2.0, 1.0, 0.0) == 0.0
        assert theta_from_concurrence(2.0, 1.0, SQRT_1ME) == pytest.approx(
            math.pi / 2, abs=1e-6
        )

    def test_out_of_reach_names_the_maximum(self):
        with pytest.raises(OutOfReachError) as err:
            theta_from_concurrence(0.3, 1.0, 0.2)
        assert err.value.c_max == pytest.approx(CMAX_03, abs=1e-12)
        assert "C_max" in str(err.value)

    def test_degenerate_at_zero_separation(self):
        with pytest.raises(DegenerateGeometryError):
            theta_from_concurrence(0.0, 1.0, 0.0)

    def test_underflowing_reach_is_a_domain_error(self):
        # 1 - d^2 underflows to 0, which the inversion divides by
        with pytest.raises(DomainError):
            theta_from_concurrence(1e-200, 1.0, 0.0)
        # or is subnormal, with bits lost
        with pytest.raises(DomainError):
            theta_from_concurrence(1e-161, 1.0, 1e-162)

    @pytest.mark.parametrize("s, sigma, c", [(1.0, 1.0, math.nan),
                                             (math.nan, 1.0, 0.1),
                                             (1.0, math.nan, 0.1)])
    def test_rejects_nan(self, s, sigma, c):
        with pytest.raises(DomainError):
            theta_from_concurrence(s, sigma, c)

    def test_round_trip(self):
        for s in np.linspace(0.2, 5.0, 12):
            c_max = concurrence_max(s, 1.0)
            for frac in np.linspace(0.0, 0.999, 15):
                c = frac * c_max
                theta = theta_from_concurrence(s, 1.0, c)
                back = concurrence(ModelParams(s, 1.0, theta))
                assert abs(back - c) < 1e-12


def mp_norms_squared(s, sigma=1.0):
    """``(a3^2, a4^2)`` as 50-digit mpf from their defining expressions."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        s, sigma = mp.mpf(s), mp.mpf(sigma)
        d = mp.exp(-s**2 / (8 * sigma**2))
        d1 = -(s / (4 * sigma**2)) * d
        u = 1 - s**2 / (4 * sigma**2)
        return ((1 + d * u) / (16 * sigma**2 * (1 - d)) - d1**2 / (4 * (1 - d)**2),
                (1 - d * u) / (16 * sigma**2 * (1 + d)) - d1**2 / (4 * (1 + d)**2))


class TestSpectral:
    def test_eigenvalues_at_half_pi(self):
        spec = spectral(ModelParams(2.0, 1.0, math.pi / 2))
        assert spec.lambda1 == pytest.approx((1 - D_S2) / 2, abs=1e-14)
        assert spec.lambda2 == pytest.approx((1 + D_S2) / 2, abs=1e-14)

    def test_pure_at_full_coherence(self):
        spec = spectral(ModelParams(2.0, 1.0, 0.0))
        assert spec.lambda1 == 0.0
        assert spec.lambda2 == pytest.approx(1.0, abs=1e-14)

    def test_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = ModelParams(
                s=float(rng.uniform(0.05, 6.0)),
                sigma=float(rng.uniform(0.3, 3.0)),
                theta=float(rng.uniform(0.0, math.pi / 2)),
            )
            spec = spectral(p)
            assert abs(spec.lambda1 + spec.lambda2 - 1.0) < 1e-12
            assert 0.0 <= spec.lambda1 <= 1.0

    def test_extension_coefficients(self):
        spec = spectral(ModelParams(2.0, 1.0, math.pi / 2))
        assert spec.a3**2 == pytest.approx(A3SQ_S2, rel=1e-12)
        assert spec.a4**2 == pytest.approx(A4SQ_S2, rel=1e-12)

    def test_coefficients_positive(self):
        for s in np.linspace(1e-3, 6.0, 30):
            spec = spectral(ModelParams(s, 1.0, 0.3))
            assert spec.a3 > 0.0 and spec.a4 > 0.0

    def test_small_separation_leading_order(self):
        # a3^2 -> t/48 sigma^2 and a4^2 -> t/16 sigma^2 with t = s^2/8 sigma^2;
        # guards the cancellation-free evaluation at tiny s
        s = 1e-3
        t = s * s / 8.0
        spec = spectral(ModelParams(s, 1.0, 0.3))
        assert spec.a3**2 == pytest.approx(t / 48.0, rel=1e-3)
        assert spec.a4**2 == pytest.approx(t / 16.0, rel=1e-3)

    @pytest.mark.parametrize("s", [1e8, 1e9, 1e10])
    def test_far_separation_norms_match_mpmath(self, s):
        # with t = s^2/8 sigma^2 written as 2t - 2te, the t terms cancelled
        # to a3^2 = a4^2 = 0 from s ~ 1e9 on
        spec = spectral(ModelParams(s, 1.0, 0.7))
        for got, want in zip((spec.a3 * spec.a3, spec.a4 * spec.a4), mp_norms_squared(s)):
            assert got == pytest.approx(float(want), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("s, sigma, s_near", [(1e160, 1.0, 1e150), (1e200, 1.0, 1e150),
                                                  (1e200, 1e-75, 1.0)])
    def test_past_the_overflow_of_s_squared(self, s, sigma, s_near):
        # t = s^2/8 sigma^2 (and at sigma = 1e-75 also s / sigma^2) is inf
        # there and d = 0: d' and 2 t d are 0, not inf * 0 = NaN, and every
        # value is that of s_near, where d = 0 with t finite
        p, near = ModelParams(s, sigma, 0.5), ModelParams(s_near, sigma, 0.5)
        assert overlap(s, sigma) == overlap(s_near, sigma) == OverlapTriple(0.0, 0.0, 0.0)
        assert spectral(p) == spectral(near)
        assert spectral(p).a3 == spectral(p).a4 == pytest.approx(0.25 / sigma, rel=1e-15)
        assert qfim(p) == qfim(near) and qfim(p).f_tt == 1.0
        assert precision(p) == precision(near)
        assert precision(p).h_s == pytest.approx(0.25 / sigma**2, rel=1e-15)
        assert weighted_fi_reconstruct(p) == weighted_fi_reconstruct(near)
        spec = SweepSpec(mode="qfim", nuisance="theta", s_range=(s, s, 1),
                         nuisance_range=(0.0, math.pi / 2, 3), sigma=sigma)
        assert run_sweep(spec).reach.tolist() == [True] * 3

    def test_norms_match_mpmath_on_log_grid(self):
        # measured worst: a3^2 3.0e-10 (s ~ 0.1, just above the series
        # switch), a4^2 7.3e-16 (8e-15 with the 2t - 2te numerator)
        worst3 = worst4 = 0.0
        for s in np.logspace(-4, math.log10(20.0), 400):
            spec = spectral(ModelParams(float(s), 1.0, 0.7))
            want3, want4 = mp_norms_squared(float(s))
            worst3 = max(worst3, float(abs(spec.a3 * spec.a3 / want3 - 1)))
            worst4 = max(worst4, float(abs(spec.a4 * spec.a4 / want4 - 1)))
        assert worst3 < 3.5e-10 and worst4 < 1e-15

    def test_degenerate_and_phase_rejections(self):
        with pytest.raises(DegenerateGeometryError):
            spectral(ModelParams(0.0, 1.0, 0.3))
        with pytest.raises(DomainError):
            spectral(ModelParams(1.0, 1.0, 0.3, phi=0.5))


def test_concurrence_coherence_identity():
    # C^2 + (1 - d^2) gamma^2 = 1 - d^2 restates the two definitions
    for s in np.linspace(0.1, 5.0, 20):
        om = 1.0 - overlap(s, 1.0).d ** 2
        for theta in np.linspace(0.0, math.pi / 2, 20):
            p = ModelParams(s, 1.0, theta)
            c = concurrence(p)
            g = math.cos(theta)
            assert abs(c * c + om * g * g - om) < 1e-15


@pytest.mark.parametrize("s", [0.05, 0.7, 3.0])
@pytest.mark.parametrize("k", [-1e-12, 3e-13, 7e-13, 2e-12])
def test_every_concurrence_path_applies_one_reach_rule(s, k):
    # C = C_max (1 + k) is in reach for k below ~5e-13 (c^2 - C_max^2 <=
    # 1e-12 C_max^2); at 7e-13 theta_from_concurrence took the point as
    # theta = pi/2 and precision_concurrence called the chart singular,
    # while f_tot_concurrence and both sweep modes put it out of reach
    c = concurrence_max(s, 1.0) * (1.0 + k)

    def in_reach(call):
        try:
            call()
        except OutOfReachError:
            return False
        except DomainError:     # the concurrence chart is singular at C_max
            pass
        return True

    verdicts = [in_reach(lambda fn=fn: fn(s, 1.0, c)) for fn in
                (theta_from_concurrence, f_tot_concurrence, qfim_concurrence,
                 precision_concurrence)]
    for mode in ("single", "qfim"):
        spec = SweepSpec(mode=mode, nuisance="concurrence", s_range=(s, s, 1),
                         nuisance_range=(c, c, 1))
        verdicts.append(run_sweep(spec).reach.tolist() == [True])
    assert verdicts == [k < 5e-13] * 6


# every public scalar entry point with a point in reach of all its checks
SCALAR_CALLS = {
    "overlap": lambda p: superres.overlap(p.s, p.sigma),
    "concurrence_max": lambda p: superres.concurrence_max(p.s, p.sigma),
    "concurrence": superres.concurrence,
    "concurrence_normalized": superres.concurrence_normalized,
    "theta_from_concurrence": lambda p: superres.theta_from_concurrence(p.s, p.sigma, 0.2),
    "spectral": superres.spectral,
    "f_tot_coherence": lambda p: superres.f_tot_coherence(p.s, p.sigma, 0.4),
    "f_tot_concurrence": lambda p: superres.f_tot_concurrence(p.s, p.sigma, 0.2),
    "weighted_fi_reconstruct": superres.weighted_fi_reconstruct,
    "qfim": superres.qfim,
    "precision": superres.precision,
    "qfim_gamma": lambda p: superres.qfim_gamma(p.s, p.sigma, 0.4),
    "precision_gamma": lambda p: superres.precision_gamma(p.s, p.sigma, 0.4),
    "precision_gamma-limit": lambda p: superres.precision_gamma(p.s, p.sigma, 1.0),
    "qfim_concurrence": lambda p: superres.qfim_concurrence(p.s, p.sigma, 0.2),
    "precision_concurrence": lambda p: superres.precision_concurrence(p.s, p.sigma, 0.2),
}


# the entry points that return the mode norms a3, a4 or a QFIM built from them
NORM_CALLS = {"spectral", "qfim", "precision", "qfim_gamma", "precision_gamma",
              "precision_gamma-limit", "qfim_concurrence", "precision_concurrence"}


@pytest.mark.parametrize("name", SCALAR_CALLS)
def test_scalar_entry_points_evaluate_the_separation_terms_once(name, monkeypatch):
    # one check of each input and one evaluation of the separation terms per
    # call, with no ModelParams built (and checked again) on the way; the
    # mode norms are evaluated once where they are used, and never elsewhere
    p = ModelParams(1.3, 1.0, 0.6)
    counts = {"terms": 0, "params": 0, "norms": 0}
    terms = state_model._separation_terms
    norms = state_model._mode_norms
    post_init = ModelParams.__post_init__

    def counted_terms(*args):
        counts["terms"] += 1
        return terms(*args)

    def counted_norms(*args):
        counts["norms"] += 1
        return norms(*args)

    def counted_post_init(self):
        counts["params"] += 1
        post_init(self)

    monkeypatch.setattr(state_model, "_separation_terms", counted_terms)
    for module in (state_model, qfim_two_param):
        monkeypatch.setattr(module, "_mode_norms", counted_norms)
    monkeypatch.setattr(ModelParams, "__post_init__", counted_post_init)
    SCALAR_CALLS[name](p)
    assert counts == {"terms": 1, "params": 0, "norms": int(name in NORM_CALLS)}
