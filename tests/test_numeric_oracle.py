import math

import numpy as np
import pytest

from helpers import (
    grid_branch_fi,
    hg_coefficients,
    hg_pure_qfi,
    make_sources,
    spectral_sum_qfim_row,
)
from superres import (
    ConfigurationError,
    DomainError,
    Grid,
    ModelParams,
    Qfim2,
    concurrence_normalized,
    default_grid,
    numeric_concurrence,
    f_tot_coherence,
    numeric_qfim,
    qfim,
)
from superres.numeric_oracle import (
    _numeric_f_tot,
    _rows_samples,
    _sld_sum,
    numeric_qfim_cells,
)

D_S2 = 0.6065306597126334
FSS_TH0_S2 = 0.1199805936513259
CNORM_PI4 = 0.3934491505312938
CNORM_PI4_PHI = 0.47063536569414455


class TestGrid:
    def test_spacing(self):
        g = Grid(halfwidth=10.0, n_points=2048)
        assert g.spacing == pytest.approx(20.0 / 2047)
        assert len(g.x) == 2048
        assert g.weights[0] == pytest.approx(g.spacing / 2)

    @pytest.mark.parametrize("n", [512, 1000, 4095])
    def test_rejects_bad_point_counts(self, n):
        with pytest.raises(ConfigurationError):
            Grid(halfwidth=10.0, n_points=n)

    @pytest.mark.parametrize("halfwidth", [8.001, 10.0, 10.001, 0.025000000001, 30.0, 7060.0])
    @pytest.mark.parametrize("n_points", [1024, 4096, 16384])
    def test_points_are_exactly_antisymmetric(self, n_points, halfwidth):
        # the oracle samples the x > 0 half and takes the other by parity;
        # linspace differed from its own mirror at 1,794 of 4,096 points at
        # halfwidth 8.001
        g = Grid(halfwidth=halfwidth, n_points=n_points)
        assert g.x[::-1].tobytes() == (-g.x).tobytes()
        assert g.x[n_points // 2] > 0.0
        linspace = np.linspace(-halfwidth, halfwidth, n_points)
        assert np.abs(g.x - linspace).max() <= 1.5 * math.ulp(halfwidth)

    def test_arrays_frozen(self):
        g = Grid(halfwidth=5.0, n_points=1024)
        with pytest.raises(ValueError):
            g.x[0] = 0.0

    @pytest.mark.parametrize("halfwidth", [0.0, math.inf, math.nan])
    def test_rejects_bad_halfwidth(self, halfwidth):
        # an infinite halfwidth gave NaN samples and a LinAlgError in verify
        with pytest.raises(ConfigurationError):
            Grid(halfwidth=halfwidth, n_points=1024)


class TestMakeSources:
    """The sampled sources of the test helpers, the quadrature reference for
    ``overlap`` and the Hermite-Gauss route."""

    def test_overlap_matches_closed_form(self):
        hp, hm = make_sources(1.0, 1.0)
        assert abs(hp.inner(hm) - math.exp(-1.0 / 8.0)) < 1e-10

    def test_unit_norms(self):
        hp, hm = make_sources(2.5, 1.0)
        assert abs(hp.norm() - 1.0) < 1e-10
        assert abs(hm.norm() - 1.0) < 1e-10

    def test_coincident_at_zero_separation(self):
        hp, hm = make_sources(0.0, 1.0)
        assert np.array_equal(hp.values, hm.values)

    def test_rejects_narrow_grid(self):
        with pytest.raises(ConfigurationError):
            make_sources(3.0, 1.0, Grid(halfwidth=6.0, n_points=1024))


@pytest.mark.parametrize("call", [
    lambda: numeric_qfim_cells(1.0, 1e-300, [0.3]),
    lambda: numeric_qfim_cells(math.inf, 1.0, [0.3]),
    lambda: numeric_qfim_cells(-1.0, 1.0, [0.3]),
    lambda: numeric_qfim_cells(math.nan, 1.0, [0.3]),
    lambda: _numeric_f_tot(-1.0, 1.0, [0.3]),
    lambda: numeric_qfim(ModelParams(0.0, 1.0, 0.5)),
    lambda: numeric_qfim(ModelParams(1e6, 1.0, 0.7)),
    lambda: numeric_concurrence(ModelParams(1e6, 1.0, 0.7)),
    lambda: _numeric_f_tot(1e6, 1.0, [0.3]),
    lambda: _rows_samples([1e308], 1e307, 4096, None)[0],
], ids=["row-tiny-sigma", "row-inf-s", "row-negative-s", "row-nan-s", "f_tot-negative-s",
        "qfim-zero-s", "qfim-far-s", "concurrence-far-s", "f_tot-far-s",
        "row-overflowing-halfwidth"])
def test_oracle_applies_the_model_range_rule(call):
    # these gave NaN fields, a bare ZeroDivisionError, a LinAlgError, or
    # numbers for a negative separation; the QFIM is singular at s = 0
    with pytest.raises(DomainError):
        call()


class TestPureQfi:
    def test_displaced_gaussian(self):
        # the mirrored source; test_fisher_single takes h(x - s/2)
        assert grid_branch_fi(1.0, 1.0, 0.0) == pytest.approx(0.25, abs=1e-7)


class TestNumericQfim:
    def test_incoherent_anchor(self):
        q = numeric_qfim(ModelParams(2.0, 1.0, math.pi / 2))
        assert q.f_ss == pytest.approx(0.25, rel=1e-6)
        assert q.f_tt == pytest.approx(1.0 - D_S2**2, rel=1e-6)
        assert q.f_st == pytest.approx(D_S2 * 2.0 / 4.0, rel=1e-6)

    def test_full_coherence_f_ss(self):
        q = numeric_qfim(ModelParams(2.0, 1.0, 0.0))
        assert q.f_ss == pytest.approx(FSS_TH0_S2, rel=1e-6)

    def test_cross_element_symmetry_is_exact(self):
        # F_st from (d_s, d_theta) and from (d_theta, d_s), in the eigenframe
        rng = np.random.default_rng(1)
        lam1 = rng.uniform(0.5, 1.0, 8)
        lam2 = np.where(np.arange(8) % 4 == 0, 0.0, 1.0 - lam1)
        w22 = np.where(lam2 > 0.0, rng.uniform(0.5, 2.0, 8), 0.0)

        def frame():
            d12 = rng.normal(size=8) + 1j * rng.normal(size=8)
            return rng.normal(size=8), rng.normal(size=8), d12

        ds, dt = frame(), frame()
        assert np.array_equal(_sld_sum(lam1, lam2, w22, ds, dt), _sld_sum(lam1, lam2, w22, dt, ds))

    def test_supports_nonzero_phase(self):
        q = numeric_qfim(ModelParams(1.5, 1.0, math.pi / 3, phi=0.7))
        assert q.f_ss > 0.0 and q.f_tt > 0.0


class TestRowKernel:
    def test_coordinates_keep_the_gram_matrix_at_small_separation(self):
        # the four sampled vectors are nearly collinear at s = 1e-3; their
        # coordinates must keep every trapezoid inner product S^T W S
        s, sigma = 1e-3, 1.0
        grid = default_grid(s, sigma)
        columns = []
        for sign in (+1.0, -1.0):
            u = grid.x + sign * s / 2.0
            h = (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(-u * u / (4.0 * sigma**2))
            columns.append((h, -sign * u * h / (4.0 * sigma**2)))
        sampled = np.stack([columns[0][0], columns[1][0], columns[0][1], columns[1][1]], axis=1)
        gram = sampled.T @ (grid.weights[:, None] * sampled)
        coords = _rows_samples([s], sigma, grid.n_points, None)[0]
        assert np.abs(coords.T @ coords - gram).max() < 1e-12 * np.abs(gram).max()

    @pytest.mark.parametrize("given", [False, True], ids=["default", "given"])
    @pytest.mark.parametrize("sigma", [1.0, 2.5e-3, 700.0])
    @pytest.mark.parametrize("n_points", [1024, 4096, 16384])
    def test_rows_are_the_qr_of_the_columns_sampled_on_the_grid(self, n_points, sigma, given):
        # bit for bit: the rows share one buffer, refilled in place, and each
        # must hold the R of its even block [S, dS] and odd block [D, dD],
        # sampled on the x > 0 half of its own public Grid, as h_+- = (S -+ D) / 2;
        # s in units of sigma, so that every row's grid resolves it (Grid.fits)
        values = [sigma * r for r in (*np.geomspace(1e-12, 20.0, 14).tolist(), 60.0)]
        halfwidth = 70.0 * sigma if given else None
        half, sig = n_points // 2, np.float64(sigma)
        amp, var4 = (2.0 * math.pi * sig * sig) ** (-0.25), 4.0 * sig * sig
        expected = []
        for s in values:
            grid = default_grid(s, sigma, n_points, halfwidth)
            x = grid.x[half:]
            # h(x - s/2) times sqrt(2 w): the weight of a point and its mirror,
            # halved at the end
            assert set(grid.weights[half:-1]) == {grid.spacing}
            assert grid.weights[-1] == grid.spacing / 2
            h = np.exp((x - s / 2.0) * (x - s / 2.0) * (-1.0 / var4)) * (
                amp * math.sqrt(2.0 * grid.spacing))
            h[-1] *= math.sqrt(0.5)
            em = np.expm1(x * (-s / (2.0 * sig * sig)))     # h_+ / h_- - 1
            even, odd = h * (2.0 + em), -(em * h)
            d_even = (x * odd - even * (s / 2.0)) * (1.0 / var4)
            d_odd = (x * even - odd * (s / 2.0)) * (1.0 / var4)
            e, o = np.linalg.qr(np.stack([np.stack([even, d_even], axis=1),
                                          np.stack([odd, d_odd], axis=1)]), mode="r")
            expected.append(0.5 * np.array([[e[0, 0], e[0, 0], e[0, 1], e[0, 1]],
                                            [-o[0, 0], o[0, 0], -o[0, 1], o[0, 1]],
                                            [e[1, 0], e[1, 0], e[1, 1], e[1, 1]],
                                            [-o[1, 0], o[1, 0], -o[1, 1], o[1, 1]]]))
        got = _rows_samples(values, sigma, n_points, halfwidth)
        assert got.tobytes() == np.array(expected).tobytes()
        assert all(_rows_samples([s], sigma, n_points, halfwidth)[0].tobytes() == r.tobytes()
                   for s, r in zip(values, expected))

    @pytest.mark.parametrize("halfwidth, error", [
        (10.0, "grid halfwidth 10.0 too narrow for s = 3.0, sigma = 1.0 "
               "(needs at least 8 sigma + s)"),
        (math.nan, "halfwidth must be positive and finite, got nan"),
        (-1.0, "halfwidth must be positive and finite, got -1.0"),
    ], ids=["narrow", "nan", "negative"])
    def test_rows_refuse_a_bad_grid_as_before(self, halfwidth, error):
        # the first row that breaks the rule raises, before any is sampled
        for call in (lambda: _rows_samples([3.0], 1.0, 1024, halfwidth)[0],
                     lambda: _rows_samples([1.0, 3.0, 4.0], 1.0, 1024, halfwidth)):
            with pytest.raises(ConfigurationError) as err:
                call()
            assert str(err.value) == error

    def test_row_equals_one_point_calls(self):
        # a result does not depend on how many thetas share its row
        thetas = np.linspace(0.0, math.pi / 2, 7)
        row = [Qfim2(f_ss=a, f_tt=b, f_st=c, tag="theta") for a, b, c in
               zip(*(f.tolist() for f in numeric_qfim_cells(1.3, 1.0, thetas, phi=0.4)))]
        assert row == [numeric_qfim(ModelParams(1.3, 1.0, t, phi=0.4)) for t in thetas]
        f_row = _numeric_f_tot(1.3, 1.0, thetas)
        assert f_row.tolist() == [_numeric_f_tot(1.3, 1.0, t) for t in thetas]
        # nor on how many cells of other s share its call, as a sweep makes
        # it, in s-major order and shuffled
        s_axis, thetas = (2e-6, 1e-3, 0.7, 4.0), np.linspace(0.0, math.pi / 2, 5)
        s, theta = (v.ravel() for v in np.meshgrid(s_axis, thetas, indexing="ij"))
        order = np.random.default_rng(2).permutation(s.size)
        rows = {v: list(zip(*(f.tolist() for f in numeric_qfim_cells(v, 1.0, thetas, phi=1.1))))
                for v in s_axis}
        f_rows = {v: _numeric_f_tot(v, 1.0, thetas).tolist() for v in s_axis}
        for cells in ((s, theta), (s[order], theta[order])):
            f_ss, f_tt, f_st = numeric_qfim_cells(cells[0], 1.0, cells[1], phi=1.1)
            one_call = list(zip(f_ss.tolist(), f_tt.tolist(), f_st.tolist()))
            assert one_call == [rows[a][list(thetas).index(b)] for a, b in zip(*cells)]
            assert [Qfim2(f_ss=a, f_tt=b, f_st=c, tag="theta") for a, b, c in one_call] == [
                numeric_qfim(ModelParams(a, 1.0, b, phi=1.1)) for a, b in zip(*cells)]
            f_tot = _numeric_f_tot(cells[0], 1.0, cells[1])
            assert f_tot.tolist() == [f_rows[a][list(thetas).index(b)] for a, b in zip(*cells)]
            assert f_tot.tolist() == [_numeric_f_tot(a, 1.0, b) for a, b in zip(*cells)]

    @pytest.mark.parametrize("s", [1e-3, 1e-2])
    def test_small_separation_f_ss_is_resolved(self, s):
        # F_ss is ~3e-8 at s = 1e-3, theta = 0, where the branch amplitude's
        # s derivative is the difference of two nearly equal source terms
        for theta in (0.0, math.pi / 4):
            p = ModelParams(s, 1.0, theta)
            assert numeric_qfim(p).f_ss == pytest.approx(qfim(p).f_ss, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n_points", [1024, 4096, 16384])
    def test_agrees_with_closed_forms_at_every_grid_size(self, n_points):
        # the ~1e-11 agreement stated for the oracle, down to s = 1e-3
        thetas = np.linspace(math.pi / 16, math.pi / 2, 6)
        for s in (1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 5.0):
            row = numeric_qfim_cells(s, 1.0, thetas, n_points=n_points)
            f_tot = _numeric_f_tot(s, 1.0, thetas, n_points=n_points)
            for theta, *num, num_f_tot in zip(thetas, *row, f_tot):
                ana = qfim(ModelParams(s, 1.0, float(theta)))
                for name, value in zip(("f_ss", "f_tt", "f_st"), num):
                    assert value == pytest.approx(
                        getattr(ana, name), rel=1e-11, abs=0.0), (s, theta, name)
                assert num_f_tot == pytest.approx(
                    f_tot_coherence(s, 1.0, math.cos(theta)).f_tot, rel=1e-11,
                    abs=0.0), (s, theta)


    @pytest.mark.parametrize("n_points", [1024, 4096, 16384])
    @pytest.mark.parametrize("s", [1e-4, 3e-4])
    def test_agrees_with_closed_forms_below_the_stated_range(self, s, n_points):
        # the coordinates come straight off the QR, with no basis round trip;
        # re-projecting on an explicit basis reached 7.6e-12 here
        thetas = np.linspace(math.pi / 16, math.pi / 2, 6)
        row = numeric_qfim_cells(s, 1.0, thetas, n_points=n_points)
        for theta, *num in zip(thetas, *row):
            ana = qfim(ModelParams(s, 1.0, float(theta)))
            for name, value in zip(("f_ss", "f_tt", "f_st"), num):
                assert value == pytest.approx(
                    getattr(ana, name), rel=2e-12, abs=0.0), (theta, name)


class TestSupportSolve:
    """The closed-form solve on the exact 2x2 support of rho."""

    @pytest.mark.parametrize("n_points", [1024, 4096, 16384])
    @pytest.mark.parametrize("phi", [0.4, 1.1])
    def test_matches_the_spectral_sum_reference(self, phi, n_points):
        # the stacked 4x4 eigh and spectral sum it replaced, on the same samples
        thetas = np.linspace(math.pi / 16, math.pi / 2, 6)
        for s in (1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 5.0):
            cells = numeric_qfim_cells(s, 1.0, thetas, phi, n_points)
            reference = spectral_sum_qfim_row(s, 1.0, thetas, phi, n_points)
            for name, num, ref in zip(("f_ss", "f_tt", "f_st"), cells, reference):
                assert num.tolist() == pytest.approx(ref.tolist(), rel=1e-11, abs=0.0), (s, name)

    @pytest.mark.parametrize("s, thetas", [
        (1e-5, [math.pi / 8]), (1e-6, [math.pi / 8]), (1e-7, [math.pi / 8]),
        (1e-2, np.linspace(0.0, 1e-3, 4)[1:]), (1e-3, np.linspace(1e-5, 1e-4, 4)),
        (1e-3, [5e-324, 1e-300, 1e-160, 1e-8]),
    ], ids=["s1e-5", "s1e-6", "s1e-7", "s1e-2-small-theta", "s1e-3-small-theta",
            "s1e-3-tiny-theta"])
    def test_resolves_the_small_eigenvalue(self, s, thetas):
        # the small eigenvalue of rho is ~1e-12 or below here, and underflows
        # below theta ~ 1e-155: a spectral cutoff at 1e-12 dropped its terms,
        # a 4x4 eigh resolves it only to ~1e-16 absolute, and so does a
        # projection of the state on its eigenvector
        for theta, *num in zip(thetas, *numeric_qfim_cells(s, 1.0, thetas)):
            ana = qfim(ModelParams(s, 1.0, float(theta)))
            for name, value in zip(("f_ss", "f_tt", "f_st"), num):
                assert value == pytest.approx(
                    getattr(ana, name), rel=1e-9, abs=0.0), (theta, name)

    def test_pure_state_at_zero_theta(self):
        # sin(theta) = 0: rank one, and no cutoff; theta is not resolved by
        # the pointwise QFI, while F_ss is
        q = numeric_qfim(ModelParams(0.3, 1.0, 0.0))
        assert (q.f_tt, q.f_st) == (0.0, 0.0)
        assert q.f_ss == pytest.approx(qfim(ModelParams(0.3, 1.0, 0.0)).f_ss, rel=1e-11, abs=0.0)


class TestNumericConcurrence:
    def test_incoherent_point(self):
        c = numeric_concurrence(ModelParams(2.0, 1.0, math.pi / 2))
        assert c == pytest.approx(math.sqrt(1 - math.exp(-1.0)), abs=1e-8)

    def test_partial_coherence(self):
        c = numeric_concurrence(ModelParams(2.0, 1.0, math.pi / 4))
        assert c == pytest.approx(CNORM_PI4, abs=1e-8)

    def test_with_phase(self):
        c = numeric_concurrence(ModelParams(2.0, 1.0, math.pi / 4, phi=1.1))
        assert c == pytest.approx(CNORM_PI4_PHI, abs=1e-8)

    def test_product_state_at_zero_separation(self):
        assert numeric_concurrence(ModelParams(0.0, 1.0, math.pi / 2)) < 1e-8

    @pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6])
    def test_relative_accuracy_at_small_separation(self, s):
        # C is of order s / sigma here, far below the absolute 1e-8 of the tests
        # above; the bound is relative
        for theta in (math.pi / 8, math.pi / 2):
            for phi in (0.0, 1.1):
                p = ModelParams(s, 1.0, theta, phi)
                assert numeric_concurrence(p) == pytest.approx(
                    concurrence_normalized(p), rel=1e-9, abs=0.0), (theta, phi)

    @pytest.mark.parametrize("s", [1e-3, 1e-9, 1e-12])
    def test_relative_accuracy_at_tiny_separation(self, s):
        # no difference of the sources is sampled or computed: read off a QR
        # of h_+ and h_- sampled as such, C was off by 8.3e-8 at s = 1e-9 and
        # 7.1e-5 at 1e-12
        p = ModelParams(s, 1.0, 0.7)
        assert numeric_concurrence(p) == pytest.approx(
            concurrence_normalized(p), rel=1e-13, abs=0.0)

    def test_rejects_narrow_grid(self):
        with pytest.raises(ConfigurationError):
            numeric_concurrence(ModelParams(3.0, 1.0, 0.5), n_points=1024, halfwidth=6.0)


class TestGridRefinement:
    def test_doubling_points_is_stable(self):
        p = ModelParams(1.5, 1.0, 0.8)
        q1 = numeric_qfim(p, n_points=4096)
        q2 = numeric_qfim(p, n_points=8192)
        assert abs(q1.f_ss - q2.f_ss) < 1e-8
        assert abs(q1.f_tt - q2.f_tt) < 1e-8
        assert abs(q1.f_st - q2.f_st) < 1e-8
        c1 = numeric_concurrence(p, n_points=4096)
        c2 = numeric_concurrence(p, n_points=8192)
        assert abs(c1 - c2) < 1e-8


class TestHermiteGauss:
    def test_reproduces_overlap(self):
        c = hg_coefficients(2.0, 1.0, 40)
        signs = (-1.0) ** np.arange(41)
        assert abs(float(c @ (signs * c)) - D_S2) < 1e-12

    def test_zero_separation(self):
        c = hg_coefficients(0.0, 1.0, 25)
        assert c[0] == 1.0
        assert np.count_nonzero(c[1:]) == 0

    def test_normalization(self):
        for s in (0.5, 2.0, 4.0):
            c = hg_coefficients(s, 1.0, 40)
            assert abs(float(c @ c) - 1.0) < 1e-12

    def test_agrees_with_grid_on_overlap_and_qfi(self):
        # two independent representations of the same displaced source
        hp, hm = make_sources(2.0, 1.0)
        c = hg_coefficients(2.0, 1.0, 40)
        signs = (-1.0) ** np.arange(41)
        assert abs(hp.inner(hm) - float(c @ (signs * c))) < 1e-8
        assert abs(grid_branch_fi(2.0, 0.0, 1.0) - hg_pure_qfi(2.0)) < 1e-8
