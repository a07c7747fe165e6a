"""Property tests of the two-parameter closed forms over random points
(skipped when hypothesis is not installed)."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from superres import (  # noqa: E402
    ModelParams,
    concurrence,
    precision,
    precision_concurrence,
    precision_gamma,
    qfim,
)

# separations in units of sigma, as on the figure axes and beyond
ratios = st.floats(1e-4, 20.0)
sigmas = st.floats(0.1, 10.0)
thetas = st.floats(0.0, math.pi / 2)
# the concurrence chart is singular at theta = pi/2, and asin's
# conditioning grows as 1/cos(theta) before it
chart_thetas = st.floats(0.0, math.pi / 2 - 1e-4)

common = settings(deadline=None)


@common
@given(r=ratios, sigma=sigmas, theta=thetas)
def test_h_s_between_zero_and_f_ss(r, sigma, theta):
    p = ModelParams(r * sigma, sigma, theta)
    assert 0.0 <= precision(p).h_s <= qfim(p).f_ss


@common
@given(r=ratios, sigma=sigmas, theta=chart_thetas)
def test_h_s_is_the_same_in_every_chart(r, sigma, theta):
    # the charts see theta again through acos(cos theta) and
    # asin(C / C_max), so only that round trip separates them
    s = r * sigma
    p = ModelParams(s, sigma, theta)
    h_s = precision(p).h_s
    assert precision_gamma(s, sigma, math.cos(theta)).h_s == pytest.approx(h_s, rel=1e-9)
    assert precision_concurrence(s, sigma, concurrence(p)).h_s == pytest.approx(h_s, rel=1e-9)


@common
@given(r=ratios, sigma=sigmas, theta=thetas, j=st.integers(-8, 8))
def test_scaling_by_powers_of_two_is_exact(r, sigma, theta, j):
    # (s, sigma) -> (k s, k sigma) leaves d and theta alone and scales the
    # information by 1/k^2; with k a power of two every rounding scales too
    k = 2.0 ** j
    s = r * sigma
    p, pk = ModelParams(s, sigma, theta), ModelParams(k * s, k * sigma, theta)
    assert qfim(pk).f_ss == qfim(p).f_ss / (k * k)
    assert precision(pk).h_s == precision(p).h_s / (k * k)


@common
@given(r=ratios, sigma=sigmas, theta=thetas, k=st.floats(0.1, 10.0))
def test_scaling(r, sigma, theta, k):
    s = r * sigma
    p, pk = ModelParams(s, sigma, theta), ModelParams(k * s, k * sigma, theta)
    assert qfim(pk).f_ss * (k * k) == pytest.approx(qfim(p).f_ss, rel=1e-12)
    assert precision(pk).h_s * (k * k) == pytest.approx(precision(p).h_s, rel=1e-12)
