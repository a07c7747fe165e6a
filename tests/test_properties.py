"""Property tests of the two-parameter closed forms over random points,
and of the sweep emitter over random tables (skipped when hypothesis is not
installed)."""

import io
import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import superres  # noqa: E402
from helpers import cell_by_cell_text, e16_cell_texts, repr_cell_texts  # noqa: E402
from superres import (  # noqa: E402
    DomainError,
    ModelParams,
    SweepTable,
    concurrence,
    concurrence_max,
    emit,
    precision,
    precision_concurrence,
    precision_gamma,
    qfim,
)
from superres.sweep import CSV_FIELDS, DELTA_FIELDS  # noqa: E402

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


# every public scalar entry point, called at (s, sigma) with a nuisance in
# [0, 1) (a fraction of C_max for the concurrence charts), and the power of
# 1/sigma of each numeric field of its result (records as dicts)
SCALED = {
    "overlap": (lambda s, sg, x: superres.overlap(s, sg), {"d": 0, "d1": 1, "d2": 2}),
    "concurrence_max": (lambda s, sg, x: superres.concurrence_max(s, sg), 0),
    "concurrence": (lambda s, sg, x: superres.concurrence(ModelParams(s, sg, x)), 0),
    "concurrence_normalized": (
        lambda s, sg, x: superres.concurrence_normalized(ModelParams(s, sg, x)), 0),
    "theta_from_concurrence": (
        lambda s, sg, x: superres.theta_from_concurrence(s, sg, x * concurrence_max(s, sg)), 0),
    "spectral": (lambda s, sg, x: superres.spectral(ModelParams(s, sg, x)),
                 {"lambda1": 0, "lambda2": 0, "a3": 1, "a4": 1}),
    "f_tot_coherence": (superres.f_tot_coherence,
                        {"theta": 0, "gamma": 0, "concurrence": 0, "f_tot": 2}),
    "f_tot_concurrence": (lambda s, sg, x: superres.f_tot_concurrence(
        s, sg, x * concurrence_max(s, sg)), {"theta": 0, "gamma": 0, "concurrence": 0, "f_tot": 2}),
    "weighted_fi_reconstruct": (
        lambda s, sg, x: superres.weighted_fi_reconstruct(ModelParams(s, sg, x)), 2),
    "qfim": (lambda s, sg, x: qfim(ModelParams(s, sg, x)), {"f_ss": 2, "f_tt": 0, "f_st": 1}),
    "precision": (lambda s, sg, x: precision(ModelParams(s, sg, x)),
                  {"h_s": 2, "h_nuisance": 0}),
    "qfim_gamma": (superres.qfim_gamma, {"f_ss": 2, "f_tt": 0, "f_st": 1}),
    "precision_gamma": (precision_gamma, {"h_s": 2, "h_nuisance": 0}),
    "precision_gamma-limit": (lambda s, sg, x: precision_gamma(s, sg, 1.0),
                              {"h_s": 2, "h_nuisance": 0}),
    "qfim_concurrence": (lambda s, sg, x: superres.qfim_concurrence(
        s, sg, x * concurrence_max(s, sg)), {"f_ss": 2, "f_tt": 0, "f_st": 1}),
    "precision_concurrence": (lambda s, sg, x: precision_concurrence(
        s, sg, x * concurrence_max(s, sg)), {"h_s": 2, "h_nuisance": 0}),
}


@pytest.mark.parametrize("name", SCALED)
@common
@given(u=st.floats(1e-2, 30.0), log_sigma=st.floats(-150.0, 150.0),
       x=st.floats(0.0, 0.999))
def test_scale_law(name, u, log_sigma, x):
    # sigma^k f(s, sigma) = f(s / sigma, 1): every output is evaluated at
    # sigma = 1 on u = s / sigma and divided by sigma once per power, so
    # the k = 0 fields agree bit for bit and the others within the two
    # roundings of that division and the two of multiplying it back
    sigma = 10.0 ** log_sigma
    s = u * sigma
    call, powers = SCALED[name]
    got, want = call(s, sigma, x), call(s / sigma, 1.0, x)
    if isinstance(powers, int):
        got, want, powers = {"value": got}, {"value": want}, {"value": powers}
    else:
        got, want = vars(got), vars(want)
    for field, k in powers.items():
        back = got[field] * sigma ** k if k else got[field]
        if k and abs(got[field]) < sys.float_info.min:
            continue        # a subnormal output has lost bits
        if k == 0:
            assert back == want[field], field
        else:
            assert abs(back - want[field]) <= 4.0 * math.ulp(want[field]), field


# the outputs that are nonnegative: the informations, the eigenvalues, the
# mode norms and the concurrences (a float result by its entry point's name)
NONNEGATIVE = {"f_ss", "f_tt", "h_s", "h_nuisance", "f_tot", "lambda1", "lambda2", "a3", "a4",
               "concurrence", "concurrence_max", "concurrence_normalized",
               "weighted_fi_reconstruct"}


@pytest.mark.parametrize("name", SCALED)
@settings(deadline=None, max_examples=150)
# 0, subnormals and the largest float among them; x is theta, gamma or C / C_max
@given(s=st.floats(0.0, sys.float_info.max), sigma=st.floats(0.0, sys.float_info.max),
       x=st.floats(0.0, math.pi / 2))
# where the concurrence chart's G_ss cancelled: -1.03e-25 at 1e-4 C_max
# (h_nuisance -0.12), and exactly 0 (ZeroDivisionError in the precision)
@example(s=1.2589254117941661e-12, sigma=1.0, x=1e-4)
@example(s=2.511886431509582e-13, sigma=1.0, x=1e-5)
@example(s=1.2576392155256425e+173, sigma=9.356767809316603e+283, x=1.6029497940975682e-05)
# weighted_fi_reconstruct's <dv|dv> cancelled: F_tot = -3.5e-69 at theta = 0
@example(s=3.3496370837541587e-34, sigma=1.0, x=0.0)
@example(s=1.0, sigma=1.0, x=1.0)
def test_scalar_outputs_are_finite_and_signed_or_a_domain_error(name, s, sigma, x):
    call = SCALED[name][0]
    try:
        got = call(s, sigma, x)
    except DomainError:
        return
    fields = vars(got).items() if hasattr(got, "__dict__") else [(name, got)]
    for field, value in fields:
        if field == "tag":
            continue
        if field == "h_nuisance" and name.startswith("precision_gamma") and (
                name.endswith("limit") or x == 1.0):
            assert value == math.inf            # the documented gamma = 1 limit
            continue
        assert math.isfinite(value), field
        assert value >= 0.0 or field not in NONNEGATIVE, field


# few values, so that columns repeat: signed zeros, infinities, NaN,
# subnormals and the edge of the float range among them
CELLS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e308, -1e308,
         1.0, 0.1, -3.5, 1 / 3, 6.02e23]


@st.composite
def tables(draw):
    m = draw(st.integers(1, len(CELLS) - 1))
    rows = 2 * m
    names = CSV_FIELDS + (DELTA_FIELDS if draw(st.booleans()) else ())
    columns = {n: draw(st.lists(st.sampled_from(CELLS), min_size=rows, max_size=rows))
               for n in names}
    # one column with exactly half of its values distinct and one with one
    # more, so that both sides of the format-once rule run
    half, more = draw(st.permutations(names))[:2]
    for name, distinct in ((half, m), (more, m + 1)):
        values = draw(st.permutations(CELLS))[:distinct]
        columns[name] = draw(st.permutations(values + values[:rows - distinct]))
    reach = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    return SweepTable({n: np.array(c) for n, c in columns.items()}, np.array(reach))


@common
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_emit_matches_cell_by_cell_formatting(table, fmt):
    out = io.StringIO()
    emit(table, fmt, out)
    assert out.getvalue() == cell_by_cell_text(table, fmt)


# every finite float, subnormals and signed zeros among them
@common
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_e16_cells_match_percent_format(values):
    texts, _ = e16_cell_texts(values)
    assert texts == ["%.16e" % v for v in values]


@common
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_repr_cells_match_repr(values):
    texts, _ = repr_cell_texts(values)
    assert texts == [repr(v) for v in values]
