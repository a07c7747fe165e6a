import math

import numpy as np
import pytest

from helpers import grid_branch_fi, grid_eigvec_derivative_norms, weight_term_reconstruct
from superres import (
    DegenerateGeometryError,
    DomainError,
    ModelParams,
    OutOfReachError,
    concurrence_max,
    f_tot_coherence,
    f_tot_concurrence,
    overlap,
    spectral,
    weighted_fi_reconstruct,
)
from superres.numeric_oracle import _branch_fi, _numeric_f_tot, _rows_samples

# oracle-pinned anchors (grid-reconstructed weighted FI agrees to <= 1e-9)
F_S03_FULL_COHERENCE = 0.005593418701544485
F_S03_C01 = 0.06870005881058056
F_S2_FULL_COHERENCE = 0.192752502271378
F_S3_FULL_COHERENCE = 0.30669720304737164


class TestCoherenceForm:
    def test_incoherent_plateau(self):
        for s in np.linspace(0.0, 5.0, 23):
            assert f_tot_coherence(s, 1.0, 0.0).f_tot == 0.25

    def test_vanishes_at_zero_separation_full_coherence(self):
        assert f_tot_coherence(0.0, 1.0, 1.0).f_tot == 0.0

    def test_pinned_value(self):
        assert f_tot_coherence(0.3, 1.0, 1.0).f_tot == pytest.approx(
            F_S03_FULL_COHERENCE, abs=1e-12
        )

    def test_record_descriptors(self):
        rec = f_tot_coherence(2.0, 1.0, 0.5)
        assert rec.theta == pytest.approx(math.acos(0.5), abs=1e-15)
        om = 1.0 - math.exp(-1.0)
        assert rec.gamma**2 == pytest.approx(1.0 - rec.concurrence**2 / om, abs=1e-12)

    @pytest.mark.parametrize("gamma", [-0.01, 1.01])
    def test_rejects_gamma_out_of_range(self, gamma):
        with pytest.raises(DomainError):
            f_tot_coherence(1.0, 1.0, gamma)

    def test_far_separation_asymptote(self):
        # s^2 overflows: the d-weighted terms used to give 0 * inf = NaN
        assert f_tot_coherence(1e200, 1.0, 0.5).f_tot == 0.25
        assert f_tot_concurrence(1e200, 1.0, 0.5).f_tot == 0.25

    def test_tiny_separation(self):
        # 1 - d^2 underflows to 0; the coherence form never divides by it
        assert f_tot_coherence(1e-200, 1.0, 0.5).f_tot == 0.125


class TestConcurrenceForm:
    def test_zero_concurrence_equals_full_coherence(self):
        assert f_tot_concurrence(0.3, 1.0, 0.0).f_tot == pytest.approx(
            F_S03_FULL_COHERENCE, abs=1e-12
        )

    def test_max_reach_recovers_incoherent_value(self):
        c_max = concurrence_max(0.3, 1.0)
        assert f_tot_concurrence(0.3, 1.0, c_max).f_tot == 0.25

    def test_pinned_value(self):
        assert f_tot_concurrence(0.3, 1.0, 0.10).f_tot == pytest.approx(
            F_S03_C01, abs=1e-12
        )

    def test_out_of_reach(self):
        with pytest.raises(OutOfReachError):
            f_tot_concurrence(0.3, 1.0, 0.2)

    def test_degenerate_at_zero_separation(self):
        with pytest.raises(DegenerateGeometryError):
            f_tot_concurrence(0.0, 1.0, 0.0)

    def test_underflowing_one_minus_d_squared_is_a_domain_error(self):
        # 1 - d^2 = 0 in floating point, as at s = 0; it used to divide by it
        with pytest.raises(DomainError):
            f_tot_concurrence(1e-200, 1.0, 0.0)
        # subnormal 1 - d^2 has lost bits: this gave 0.0264 where the
        # coherence form gives 0.0335
        with pytest.raises(DomainError):
            f_tot_concurrence(1e-161, 1.0, 0.5 * concurrence_max(1e-161, 1.0))

    def test_resolves_where_sigma_to_the_fourth_underflows(self):
        # sigma^4 = 1e-300 times C_max ~ 1e-85 underflowed to 0 in the
        # concurrence form: a bare ZeroDivisionError
        rec = f_tot_concurrence(1e-160, 1e-75, 1e-86)
        assert math.isfinite(rec.f_tot)
        want = f_tot_coherence(1e-160, 1e-75, rec.gamma).f_tot
        assert rec.f_tot == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("s, sigma, c", [(1.0, 1.0, math.nan),
                                             (math.nan, 1.0, 0.1),
                                             (1.0, math.nan, 0.1)])
    def test_rejects_nan(self, s, sigma, c):
        with pytest.raises(DomainError):
            f_tot_concurrence(s, sigma, c)


def test_equivalence_of_the_two_forms():
    # same information whether indexed by concurrence or coherence,
    # under C^2 = (1 - gamma^2)(1 - d^2)
    worst = 0.0
    for s in np.linspace(0.05, 5.0, 60):
        om = -math.expm1(-s * s / 4.0)
        for g in np.linspace(0.0, 1.0, 50):
            c = math.sqrt((1.0 - g * g) * om)
            diff = abs(f_tot_concurrence(s, 1.0, c).f_tot - f_tot_coherence(s, 1.0, g).f_tot)
            worst = max(worst, diff)
    assert worst < 1e-12


def test_bound_inside_two_sigma():
    # within s <= 2 sigma both correction terms are nonnegative, so
    # 0 <= f_tot <= 1/4 sigma^2 with the top reached only at gamma = 0
    for s in np.linspace(1e-3, 2.0, 40):
        for g in np.linspace(0.0, 1.0, 21):
            f = f_tot_coherence(s, 1.0, g).f_tot
            assert -1e-15 <= f <= 0.25 + 1e-15
            if g > 0.0:
                assert f < 0.25


def test_bound_does_not_extend_past_two_sigma():
    # beyond s = 2 sigma the sign of the first correction flips and the
    # total exceeds the incoherent plateau (grid-confirmed value)
    f = f_tot_coherence(3.0, 1.0, 1.0).f_tot
    assert f == pytest.approx(F_S3_FULL_COHERENCE, abs=1e-12)
    assert f > 0.25


def test_monotonicity_in_each_variable():
    for s in (0.3, 0.5, 1.0):
        gs = [f_tot_coherence(s, 1.0, g).f_tot for g in np.linspace(0, 1, 100)]
        assert all(b <= a + 1e-15 for a, b in zip(gs, gs[1:]))
        c_max = concurrence_max(s, 1.0)
        cs = [f_tot_concurrence(s, 1.0, c).f_tot for c in np.linspace(0, c_max, 100)]
        assert all(b >= a - 1e-15 for a, b in zip(cs, cs[1:]))


class TestPureStateFi:
    """The grid oracle's pure-state FI, the branch FI of its row kernel."""

    def test_displaced_gaussian(self):
        assert grid_branch_fi(1.0, 0.0, 1.0) == pytest.approx(0.25, abs=1e-7)

    def test_constant_family_gives_zero(self):
        minus = _rows_samples([1.0], 1.0, 4096, None)[0][:, 1]
        constant = _branch_fi(minus[None], np.zeros_like(minus[None]))
        assert constant[0] == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_superposition_matches_oracle_route(self):
        # the theta = 0 branch of the weighted FI is the symmetric mode,
        # of norm^2 2 (1 + d) against the weight 1/2
        branch = grid_branch_fi(2.0, 1.0, 1.0)
        weighted = _numeric_f_tot(2.0, 1.0, 0.0) / (1.0 + overlap(2.0, 1.0).d)
        assert branch == pytest.approx(weighted, abs=1e-10)
        assert branch == pytest.approx(4.0 * spectral(ModelParams(2.0, 1.0, 0.0)).a4 ** 2,
                                       abs=1e-10)
        # grid-differentiated mode norm gives the same number
        _, a4sq = grid_eigvec_derivative_norms(2.0)
        assert branch == pytest.approx(4.0 * a4sq, rel=1e-7)

    def test_identity_on_assorted_families(self):
        # at theta = pi/2, 0, pi/3 the branches are h_+ and h_-,
        # h_+ + h_-, and h_+ + h_-/2 with h_-
        for theta in (math.pi / 2, 0.0, math.pi / 3):
            for s in (0.5, 1.5, 3.0):
                closed = f_tot_coherence(s, 1.0, math.cos(theta)).f_tot
                assert abs(_numeric_f_tot(s, 1.0, theta) - closed) < 1e-10


# the two readings of the branch-weighted sum: the product's and the
# rejected one of the test helpers
RECONSTRUCTIONS = {"quantum-only": weighted_fi_reconstruct,
                   "quantum-plus-weight": weight_term_reconstruct}


class TestWeightedReconstruction:
    def test_incoherent_point_both_variants(self):
        for s in (0.5, 2.0, 4.0):
            p = ModelParams(s, 1.0, math.pi / 2)
            for reconstruct in RECONSTRUCTIONS.values():
                assert reconstruct(p) == pytest.approx(0.25, abs=1e-12)

    def test_full_coherence_anchor(self):
        p = ModelParams(2.0, 1.0, 0.0)
        assert weighted_fi_reconstruct(p) == pytest.approx(F_S2_FULL_COHERENCE, abs=1e-9)

    def test_quantum_only_matches_closed_form(self):
        p = ModelParams(1.0, 1.0, math.pi / 4)
        target = f_tot_coherence(1.0, 1.0, math.cos(math.pi / 4)).f_tot
        assert weighted_fi_reconstruct(p) == pytest.approx(target, abs=1e-9)

    def test_weight_term_variant_overshoots(self):
        p = ModelParams(1.0, 1.0, math.pi / 4)
        target = f_tot_coherence(1.0, 1.0, math.cos(math.pi / 4)).f_tot
        assert weight_term_reconstruct(p) > target + 1e-6

    def test_requires_phi_zero(self):
        with pytest.raises(DomainError):
            weighted_fi_reconstruct(ModelParams(1.0, 1.0, 0.3, phi=0.2))

    @pytest.mark.parametrize("variant", ["quantum-only", "quantum-plus-weight"])
    @pytest.mark.parametrize("s", [1e160, 1e200])
    def test_far_separation_asymptote(self, s, variant):
        # s^2 overflows: d (4 sigma^2 - s^2) used to give 0 * inf = NaN
        target = f_tot_coherence(s, 1.0, math.cos(0.5)).f_tot
        assert RECONSTRUCTIONS[variant](ModelParams(s, 1.0, 0.5)) == pytest.approx(
            target, abs=1e-12)


def test_sigma_scaling_against_grid_reconstruction():
    # the 1/sigma^4 in the last closed-form term is what the grid
    # reconstruction produces at sigma != 1
    for sigma, s, theta in ((2.0, 1.0, math.pi / 3), (0.5, 0.8, math.pi / 5)):
        target = f_tot_coherence(s, sigma, math.cos(theta)).f_tot
        grid_value = _numeric_f_tot(s, sigma, theta, 4096)
        assert grid_value == pytest.approx(target, rel=1e-8)
