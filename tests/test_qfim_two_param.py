import math

import numpy as np
import pytest

from helpers import commutator_expectation, drho, rho4, sld_pair, trace_rule
from superres import (
    DegenerateGeometryError,
    DomainError,
    ModelParams,
    concurrence_max,
    concurrence,
    numeric_qfim,
    overlap,
    precision,
    precision_concurrence,
    precision_gamma,
    qfim,
    qfim_concurrence,
    qfim_gamma,
    spectral,
    theta_from_concurrence,
)

D = 0.6065306597126334                     # overlap at s = 2, sigma = 1
LAM1 = (1 - D) / 2
LAM2 = (1 + D) / 2
X_THETA = 0.31606027941427883              # (1 - d^2)/2
FSS_LIMIT = 0.1199805936513259             # 4 a4^2 at s = 2 (theta -> 0)
FTT_LIMIT = 0.24491866240370913            # (1 - d)/(1 + d) at s = 2
HS_ANCHOR = 0.10450582328266839            # 1/4 - d^2 s^2 / (16 (1 - d^2))

P_HALF = ModelParams(2.0, 1.0, math.pi / 2)


def random_params(n, seed, theta_min=0.02):
    rng = np.random.default_rng(seed)
    return [
        ModelParams(
            s=float(rng.uniform(0.1, 5.0)),
            sigma=float(rng.uniform(0.5, 2.0)),
            theta=float(rng.uniform(theta_min, math.pi / 2)),
        )
        for _ in range(n)
    ]


class TestRho4:
    def test_incoherent_diagonal(self):
        r = rho4(P_HALF)
        assert np.allclose(np.diag(r), [LAM1, LAM2, 0.0, 0.0], atol=1e-14)
        assert np.count_nonzero(r - np.diag(np.diag(r))) == 0

    def test_pure_at_full_coherence(self):
        r = rho4(ModelParams(2.0, 1.0, 0.0))
        assert np.allclose(np.diag(r), [0.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_unit_trace(self):
        for p in random_params(50, seed=3):
            assert np.trace(rho4(p)) == pytest.approx(1.0, abs=1e-12)

    def test_rejections(self):
        with pytest.raises(DegenerateGeometryError):
            rho4(ModelParams(0.0, 1.0, 0.3))


class TestDensityDerivatives:
    def test_ds_diagonal_at_half_pi(self):
        m = drho(P_HALF)[0]
        b = overlap(2.0, 1.0).d1
        assert m[0, 0] == pytest.approx(-b / 2.0, abs=1e-14)   # = +0.15163...
        assert m[1, 1] == pytest.approx(b / 2.0, abs=1e-14)

    def test_ds_offdiagonals(self):
        m = drho(P_HALF)[0]
        spec = spectral(P_HALF)
        assert m[0, 2] == m[2, 0] == pytest.approx(spec.lambda1 * spec.a3, abs=1e-14)
        assert m[1, 3] == m[3, 1] == pytest.approx(spec.lambda2 * spec.a4, abs=1e-14)

    def test_ds_at_full_coherence(self):
        m = drho(ModelParams(2.0, 1.0, 0.0))[0]
        spec = spectral(ModelParams(2.0, 1.0, 0.0))
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0
        assert m[1, 3] == pytest.approx(spec.a4, abs=1e-14)    # lambda2 = 1
        assert m[0, 2] == 0.0

    def test_traceless(self):
        for p in random_params(20, seed=11):
            ds, dt = drho(p)
            assert abs(np.trace(ds)) < 1e-14
            assert abs(np.trace(dt)) < 1e-14

    def test_dtheta_structure(self):
        m = drho(P_HALF)[1]
        assert m[0, 0] == pytest.approx(X_THETA, abs=1e-14)
        assert m[1, 1] == pytest.approx(-X_THETA, abs=1e-14)
        off = m - np.diag(np.diag(m))
        assert np.count_nonzero(off) == 0
        assert m[2, 2] == 0.0 and m[3, 3] == 0.0

    def test_dtheta_zero_at_theta_zero(self):
        assert np.count_nonzero(drho(ModelParams(2.0, 1.0, 0.0))[1]) == 0


class TestSld:
    def test_offdiagonal_elements(self):
        l_s = sld_pair(P_HALF)[0]
        spec = spectral(P_HALF)
        assert l_s[0, 2] == pytest.approx(2.0 * spec.a3, abs=1e-14)
        assert l_s[1, 3] == pytest.approx(2.0 * spec.a4, abs=1e-14)

    def test_theta_block(self):
        l_theta = sld_pair(P_HALF)[1]
        assert l_theta[0, 0] == pytest.approx(1.6065306597126334, abs=1e-12)
        assert l_theta[1, 1] == pytest.approx(-X_THETA / LAM2, abs=1e-12)
        nz = np.nonzero(l_theta)
        assert set(zip(*map(list, nz))) <= {(0, 0), (1, 1)}

    def test_support_structure_of_l_s(self):
        l_s = sld_pair(ModelParams(1.3, 1.0, 0.7))[0]
        allowed = {(0, 0), (1, 1), (0, 2), (2, 0), (1, 3), (3, 1)}
        assert set(zip(*map(list, np.nonzero(l_s)))) <= allowed

    def test_defining_relation(self):
        # d rho = (L rho + rho L)/2 for both parameters
        for p in random_params(20, seed=5):
            r = rho4(p)
            for l, dr in zip(sld_pair(p), drho(p)):
                residual = np.max(np.abs(dr - 0.5 * (l @ r + r @ l)))
                assert residual < 1e-10


class TestQfim:
    def test_closed_form_anchor_at_half_pi(self):
        q = qfim(P_HALF)
        assert abs(q.f_ss - 0.25) < 1e-12
        assert abs(q.f_tt - (1 - D * D)) < 1e-12
        assert abs(q.f_st - D * 2.0 / 4.0) < 1e-12

    def test_full_coherence_limits(self):
        q = qfim(ModelParams(2.0, 1.0, 0.0))
        assert q.f_st == 0.0
        assert q.f_tt == pytest.approx(FTT_LIMIT, abs=1e-12)
        assert q.f_ss == pytest.approx(FSS_LIMIT, abs=1e-12)

    def test_limits_continuous_in_theta(self):
        lo = qfim(ModelParams(2.0, 1.0, 1e-7))
        at = qfim(ModelParams(2.0, 1.0, 0.0))
        assert lo.f_ss == pytest.approx(at.f_ss, rel=1e-6)
        assert lo.f_tt == pytest.approx(at.f_tt, rel=1e-6)
        assert abs(lo.f_st) < 1e-6

    def test_positive_semidefinite(self):
        for p in random_params(50, seed=2, theta_min=0.0):
            q = qfim(p)
            assert q.f_ss >= 0.0 and q.f_tt >= 0.0
            assert q.f_ss * q.f_tt - q.f_st**2 >= -1e-12

    def test_element_formulas_match_trace_rule(self):
        for p in random_params(25, seed=9):
            q = qfim(p)
            r, (l_s, l_t) = rho4(p), sld_pair(p)
            assert abs(q.f_ss - trace_rule(r, l_s, l_s)) < 1e-12 * max(1.0, q.f_ss)
            assert abs(q.f_tt - trace_rule(r, l_t, l_t)) < 1e-12 * max(1.0, q.f_tt)
            assert abs(q.f_st - trace_rule(r, l_s, l_t)) < 1e-12

    def test_matches_oracle_on_grid(self):
        for s in (0.5, 1.0, 2.0, 3.0):
            for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
                p = ModelParams(s, 1.0, theta)
                ana, num = qfim(p), numeric_qfim(p)
                assert ana.f_ss == pytest.approx(num.f_ss, rel=1e-6)
                assert ana.f_tt == pytest.approx(num.f_tt, rel=1e-6)
                assert ana.f_st == pytest.approx(num.f_st, rel=1e-6)


class TestPrecision:
    def test_anchor(self):
        assert precision(P_HALF).h_s == pytest.approx(HS_ANCHOR, abs=1e-12)

    def test_vanishes_with_separation(self):
        assert precision(ModelParams(1e-3, 1.0, math.pi / 2)).h_s < 1e-6

    def test_full_coherence_no_correction(self):
        h = precision(ModelParams(2.0, 1.0, 0.0))
        assert h.h_s == pytest.approx(FSS_LIMIT, abs=1e-12)

    def test_bounded_by_diagonal(self):
        for p in random_params(30, seed=13, theta_min=0.0):
            q, h = qfim(p), precision(p)
            assert 0.0 <= h.h_s <= q.f_ss + 1e-15
            assert 0.0 <= h.h_nuisance <= q.f_tt + 1e-15


class TestCoherenceChart:
    def test_gamma_zero_matches_theta_chart(self):
        assert precision_gamma(2.0, 1.0, 0.0).h_s == pytest.approx(HS_ANCHOR, abs=1e-12)

    def test_h_s_is_chart_invariant(self):
        for s in np.linspace(0.3, 4.0, 8):
            for theta in np.linspace(0.1, math.pi / 2 - 0.05, 7):
                ht = precision(ModelParams(s, 1.0, theta)).h_s
                hg = precision_gamma(s, 1.0, math.cos(theta)).h_s
                assert abs(ht - hg) < 1e-9

    def test_gamma_one_limit(self):
        h = precision_gamma(2.0, 1.0, 1.0)
        assert h.h_s == pytest.approx(FSS_LIMIT, abs=1e-12)
        assert math.isinf(h.h_nuisance)

    def test_qfim_gamma_rejects_endpoint(self):
        with pytest.raises(DomainError):
            qfim_gamma(2.0, 1.0, 1.0)

    def test_small_s_disappearance(self):
        assert precision_gamma(1e-3, 1.0, 0.5).h_s < 1e-6


class TestConcurrenceChart:
    def test_h_s_is_chart_invariant(self):
        for s in np.linspace(0.3, 4.0, 8):
            c_max = concurrence_max(s, 1.0)
            for frac in np.linspace(0.0, 0.9, 7):
                c = frac * c_max
                theta = theta_from_concurrence(s, 1.0, c)
                ht = precision(ModelParams(s, 1.0, theta)).h_s
                hc = precision_concurrence(s, 1.0, c).h_s
                assert abs(ht - hc) < 1e-9

    def test_zero_concurrence_uses_full_coherence_limits(self):
        assert precision_concurrence(2.0, 1.0, 0.0).h_s == pytest.approx(
            FSS_LIMIT, abs=1e-12
        )

    def test_singular_at_maximum_reach(self):
        # at s = 3e-154 cos(theta) (1 - d^2) underflows to 0, which the
        # transport divides by
        for s in (2.0, 3e-154):
            for chart in (qfim_concurrence, precision_concurrence):
                with pytest.raises(DomainError, match="singular"):
                    chart(s, 1.0, concurrence_max(s, 1.0))

    def test_matrix_is_jacobian_transport(self):
        s, c = 1.5, 0.3
        theta = theta_from_concurrence(s, 1.0, c)
        q = qfim(ModelParams(s, 1.0, theta))
        g = qfim_concurrence(s, 1.0, c)
        # determinant transforms by the squared Jacobian determinant
        tri = overlap(s, 1.0)
        om = 1.0 - tri.d**2
        th_c = 1.0 / (math.cos(theta) * math.sqrt(om))
        det_f = q.f_ss * q.f_tt - q.f_st**2
        det_g = g.f_ss * g.f_tt - g.f_st**2
        assert det_g == pytest.approx(det_f * th_c**2, rel=1e-10)


class TestCommutator:
    def test_incoherent_point(self):
        assert abs(commutator_expectation(P_HALF)) < 1e-12

    def test_generic_point(self):
        assert abs(commutator_expectation(ModelParams(0.5, 1.0, math.pi / 8))) < 1e-10

    def test_random_sweep(self):
        worst = max(
            abs(commutator_expectation(p)) for p in random_params(50, seed=17)
        )
        assert worst < 1e-10


def test_h_s_positive_off_the_corner():
    for s in np.linspace(0.05, 5.0, 25):
        for theta in np.linspace(0.05, math.pi / 2, 20):
            assert precision(ModelParams(s, 1.0, theta)).h_s > 0.0


def test_concurrence_descriptor_consistency():
    p = ModelParams(2.0, 1.0, math.pi / 4)
    assert concurrence(p) == pytest.approx(0.5621923864784001, abs=1e-12)


def mp_theta_chart(s, theta, sigma=1.0):
    """(F_ss, F_tt, F_st, H_s) at 50 digits: the eigenvalue derivatives by
    mpmath's numerical differentiation, H_s by its definition."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        f_ss, f_tt, f_st = _mp_theta_qfim(mp, s, theta, sigma)
        return [float(v) for v in (f_ss, f_tt, f_st, f_ss - f_st**2 / f_tt)]


def mp_h_gamma(s, gamma, sigma=1.0):
    """H_gamma = (F_tt - F_st^2 / F_ss) / sin^2(theta) at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        theta = mp.acos(mp.mpf(gamma))
        f_ss, f_tt, f_st = _mp_theta_qfim(mp, s, theta, sigma)
        return float((f_tt - f_st**2 / f_ss) / mp.sin(theta) ** 2)


def _mp_theta_qfim(mp, s, theta, sigma):
    """(F_ss, F_tt, F_st) as mpf at the working precision of the caller."""
    s, theta, sigma = mp.mpf(s), mp.mpf(theta), mp.mpf(sigma)

    def lams(sv, th):
        d = mp.exp(-sv**2 / (8 * sigma**2))
        den = 1 + d * mp.cos(th)
        return (1 - d) * (1 - mp.cos(th)) / (2 * den), (1 + d) * (1 + mp.cos(th)) / (2 * den)

    l1, l2 = lams(s, theta)
    d = mp.exp(-s**2 / (8 * sigma**2))
    d1 = -(s / (4 * sigma**2)) * d
    u = 1 - s**2 / (4 * sigma**2)
    a3sq = (1 + d * u) / (16 * sigma**2 * (1 - d)) - d1**2 / (4 * (1 - d)**2)
    a4sq = (1 - d * u) / (16 * sigma**2 * (1 + d)) - d1**2 / (4 * (1 + d)**2)
    l1s, l2s = (mp.diff(lambda x: lams(x, theta)[k], s) for k in (0, 1))
    l1t, l2t = (mp.diff(lambda x: lams(s, x)[k], theta) for k in (0, 1))
    f_ss = l1s**2 / l1 + l2s**2 / l2 + 4 * (l1 * a3sq + l2 * a4sq)
    f_tt = l1t**2 / l1 + l2t**2 / l2
    f_st = l1s * l1t / l1 + l2s * l2t / l2
    return f_ss, f_tt, f_st


class TestSmallLambda1:
    """Tiny but positive lambda1, where theta is not small against s: the
    exact formulas hold there, not the theta -> 0 limits."""

    @pytest.mark.parametrize("s, theta", [(1e-3, 1e-3), (1e-3, 3e-3), (1e-4, 0.05)])
    def test_matches_mpmath(self, s, theta):
        p = ModelParams(s, 1.0, theta)
        assert spectral(p).lambda1 < 1e-12
        q, h = qfim(p), precision(p)
        want = mp_theta_chart(s, theta)
        for got, ref in zip((q.f_ss, q.f_tt, q.f_st, h.h_s), want):
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("theta", [1e-200, 1.5e-161, 1e-155, 1e-152, 1e-140])
    def test_underflowing_lambda1_takes_the_limit(self, theta):
        # lambda1 and (d lambda1)^2 underflow here, partly or wholly; the
        # cancelled closed form never divides by them
        p = ModelParams(1.0, 1.0, theta)
        e = -math.expm1(-1.0 / 8.0)
        q, h = qfim(p), precision(p)
        assert spectral(p).lambda1 < 1e-139
        assert q.f_tt == pytest.approx(e / (2.0 - e), rel=1e-15)
        assert h.h_nuisance == pytest.approx(e / (2.0 - e), rel=1e-15)
        assert q.f_ss == h.h_s == precision(ModelParams(1.0, 1.0, 0.0)).h_s
        assert 0.0 < q.f_st < 1e-139

    def test_h_s_bounded_by_f_ss_exactly(self):
        for p in random_params(30, seed=21, theta_min=0.0) + [ModelParams(2.0, 1.0, 0.0)]:
            q, h = qfim(p), precision(p)
            assert 0.0 <= h.h_s <= q.f_ss
        at_zero = ModelParams(0.7, 1.0, 0.0)
        assert precision(at_zero).h_s == qfim(at_zero).f_ss


@pytest.mark.parametrize("s", [1e-3, 1e-2, 0.1, 1.0])
@pytest.mark.parametrize("gamma", [0.1, 0.3166, 0.6, 0.95])
def test_h_nuisance_matches_mpmath(s, gamma):
    # F_tt - F_st^2 / F_ss cancels at small s (1.4e-9 off here); F_tt H_s / F_ss
    # does not
    got = precision_gamma(s, 1.0, gamma).h_nuisance
    assert got == pytest.approx(mp_h_gamma(s, gamma), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("s", [1e8, 1e9, 1e10])
def test_far_separation_h_s_matches_mpmath(s):
    # a3^2 = a4^2 = 0 used to give H_s = 0 here, and H_theta = 0/0
    want = mp_theta_chart(s, 0.7)[3]
    assert precision(ModelParams(s, 1.0, 0.7)).h_s == pytest.approx(want, rel=1e-15, abs=0.0)
    assert precision_gamma(s, 1.0, math.cos(0.7)).h_s == pytest.approx(want, rel=1e-15)
    assert precision_concurrence(s, 1.0, math.sin(0.7)).h_s == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("call", [lambda: precision(ModelParams(1e-200, 1.0, 0.3)),
                                  lambda: qfim(ModelParams(1e-170, 1.0, 0.3)),
                                  lambda: qfim(ModelParams(1e-160, 1.0, 0.3)),
                                  lambda: qfim(ModelParams(1e-161, 1.0, 0.3)),
                                  lambda: precision_gamma(2e-154, 1.0, 0.5)],
                         ids=["precision", "qfim", "qfim-subnormal", "qfim-subnormal-1e-161",
                              "precision_gamma-subnormal"])
def test_underflowing_one_minus_d_squared_is_a_domain_error(call):
    # the theta block divides by 1 - d^2, which is 0 or subnormal here: at
    # s = 1e-160 it gave F_ss - H_s = 0.0056877 against 0.0057105, at 1e-161 0
    with pytest.raises(DomainError):
        call()


def test_overflowing_concurrence_transport_is_a_domain_error():
    # 1 - d^2 = 5.7e-308 is normal, but G_ss = G_CC = inf in the concurrence
    # chart: precision_concurrence returned h_nuisance = nan (inf / inf)
    with pytest.raises(DomainError, match="do not resolve"):
        precision_concurrence(4.7782171712299286e-154, 1.0, 2.389108585614964e-154)


@pytest.mark.parametrize("s, sigma, c", [
    # G_ss = -1.03e-25: an ok result with h_nuisance = -0.12
    (1.2589254117941661e-12, 1.0, 6.294627058970831e-17),
    # G_ss = 0: precision_concurrence raised ZeroDivisionError
    (2.511886431509582e-13, 1.0, 1e-5 * concurrence_max(2.511886431509582e-13, 1.0)),
    (1.2576392155256425e+173, 9.356767809316603e+283, 1.0772590293245158e-116),
], ids=["negative", "zero", "zero-huge-sigma"])
@pytest.mark.parametrize("call", [qfim_concurrence, precision_concurrence])
def test_cancelled_concurrence_transport_is_a_domain_error(call, s, sigma, c):
    # G_ss = F_ss + 2 t_s F_st + t_s^2 F_tt >= H_s > 0, but its terms cancel
    # where s / sigma is ~1e-12 and C a small share of C_max
    with pytest.raises(DomainError, match="do not resolve"):
        call(s, sigma, c)


def test_tiny_separation_resolves_while_one_minus_d_squared_is_normal():
    h = precision_gamma(1e-100, 1.0, 0.5)
    assert math.isfinite(h.h_s) and math.isfinite(h.h_nuisance) and h.h_s > 0.0


def test_unresolvable_sigma_is_a_domain_error():
    # sigma^2 underflows to 0, which the closed forms divide by
    with pytest.raises(DomainError):
        precision(ModelParams(1.0, 1e-300, 0.3))
