import collections
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special, stats

import mutants
from cdf_oracle import (branch_form_cdf, cdf_oracle, pdf_integral_oracle, pdf_oracle,
                        quantile_oracle)
from model_helpers import (cooperative_quadratic, mean_quadrature_per_call, nn_distance,
                           placements_by_expression, tanh_sinh_uncached)
from nncc import (
    IntegrationError,
    PowerQuadratic,
    cdf_scale_free,
    energy_efficiency,
    expected_power,
    expected_power_quadrature,
    pdf_scale_free,
)
from nncc import (ExperimentSpec, Geometry, Link, OutageTargets, ParameterError,
                  SystemParams, conventional_coefficients, partner_distance_to_bs,
                  power_breakdown, power_coefficients, sample_nn_geometries, validate,
                  validate_report)
from nncc import distribution
from nncc.distribution import _i0e, _integrate, _tanh_sinh, _y_upper
from nncc.montecarlo import (RandomStream, draw_power_samples, ks_distance,
                             sample_power_distribution)

ROOT = Path(__file__).resolve().parent.parent

# frozen references for the high-rate regime (rate 1e7, p_out 1e-3, r1 2000 m)
A_GOLDEN = 1.255845624464336e-5
C0_GOLDEN = 0.1227648606882469
INF_GOLDEN = 0.1226898553953679
EP_GOLDEN = 0.1627396684670124  # at rho 1e-4


@pytest.fixture(scope="module")
def quad5(dense_params):
    return cooperative_quadratic(dense_params, 2000.0)


@pytest.fixture(scope="module")
def k5(quad5, dense_params):
    """The shape k of quad5's law (``PowerQuadratic.law``), 0.0866."""
    return quad5.law(dense_params.rho)[2]


def floor_of(k):
    """The support's floor -k^2/4: the least y, reached at cos(theta) = -1."""
    return -0.25 * k * k


def y_of_c0(quad, rho):
    """c0 in units of A, c0/A: y = c0_y*x is a total x*c0 away from c0."""
    return quad.c0 / quad.law(rho)[0]


def conventional_quadratic(params, r1):
    """The baseline's round total as a quadratic in the neighbor distance."""
    return PowerQuadratic.from_coefficients(conventional_coefficients(params), r1)


def test_quadratic_coefficients_golden(quad5, dense_params):
    """The coefficients, and the least total c0 - A*k^2/4 of the law's map."""
    assert quad5.a == pytest.approx(A_GOLDEN, rel=1e-12, abs=0)
    assert quad5.c0 == pytest.approx(C0_GOLDEN, rel=1e-12, abs=0)
    big_a, _, k = quad5.law(dense_params.rho)
    assert quad5.c0 + big_a * floor_of(k) == pytest.approx(INF_GOLDEN, rel=1e-12, abs=0)


def test_quadratic_reproduces_breakdown_total(dense_params, quad5):
    rng = np.random.default_rng(3)
    for _ in range(200):
        r1 = 2000.0
        r = rng.uniform(0.0, 300.0)
        theta = rng.uniform(-0.5 * math.pi, 1.5 * math.pi)
        geom = Geometry(r1=r1, r=r, theta=theta)
        total = power_breakdown(geom, power_coefficients(dense_params)).total
        total_power = quad5.a * r * r + quad5.b_coeff * np.cos(theta) * r + quad5.c0
        assert total_power == pytest.approx(total, rel=1e-9, abs=0)


def _kernel_inputs(monkeypatch, y, k):
    """(v, sinh(v)^2, beta) the CDF kernel receives for the one point y, or None.

    beta = -|y| once floored, so the engine's roots sqrt(|y|)*exp(-+w) scale
    with sqrt(-beta).
    """
    seen = []
    kernel = distribution._cdf_integrand

    def recording(v, s2, beta, *rest):
        seen.append((float(v[0, 0]), float(s2[0, 0]), float(beta[0, 0])))
        return kernel(v, s2, beta, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(distribution, "_cdf_integrand", recording)
        cdf_scale_free(y, k)
    return seen[0] if seen else None


def _engine_roots(beta, upper, w):
    """The roots at w, and the half_b = (k/2)*cos(theta) they solve x^2 + 2*half_b*x = y for.

    Above 0 half_b = c*sinh(w) and the root is c*exp(-w); below, -half_b =
    d*cosh(w) and the roots are d*exp(-w) and d*exp(w), with c, d = sqrt(-beta).
    """
    scale = math.sqrt(-beta)
    if upper:
        return scale * np.sinh(w), [scale * np.exp(-w)]
    return -scale * np.cosh(w), [scale * np.exp(-w), scale * np.exp(w)]


def test_power_roots_at_constant_term(k5, monkeypatch):
    """At y = 0 the roots are 0 and -k*cos(theta), on both sides of the split."""
    _, _, beta = _kernel_inputs(monkeypatch, 5e-324, k5)
    c = math.sqrt(-beta)
    for theta in (2.5, 0.5):  # cos < 0: root -k*cos; cos > 0: root 0
        _, (root,) = _engine_roots(beta, True, math.asinh(0.5 * k5 * math.cos(theta) / c))
        if theta > 0.5 * math.pi:
            assert root == pytest.approx(-k5 * math.cos(theta), rel=1e-9, abs=0)
        else:
            assert root <= 0.5e-9 * k5
    # at y = 0 itself (below the split) only bearings with cos < 0 have roots
    _, _, beta = _kernel_inputs(monkeypatch, 0.0, k5)
    d = math.sqrt(-beta)
    theta = np.linspace(0.55 * math.pi, 1.45 * math.pi, 9)
    w = np.arccosh(-0.5 * k5 * np.cos(theta) / d)
    _, (x_lo, x_hi) = _engine_roots(beta, False, w)
    assert np.max(x_lo) <= 1e-9 * np.max(x_hi)
    assert np.allclose(x_hi, -k5 * np.cos(theta), rtol=1e-9)


def test_power_roots_residuals(k5, monkeypatch):
    """The engine's exponential roots solve the level-y equation, and w in
    [-v, v] (above 0) or [0, v] (below) spans the bearings from cos = +-1."""
    half_k = 0.5 * k5
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(400):
        y = floor_of(k5) + rng.uniform(-0.01, 1.0) * (6.0 - floor_of(k5))
        if y <= floor_of(k5):
            continue
        upper = y > 0.0
        v, _, beta = _kernel_inputs(monkeypatch, y, k5)
        half_b, _ = _engine_roots(beta, upper, v)
        assert abs(half_b) == pytest.approx(half_k, rel=1e-12, abs=0)  # |cos(theta)| = 1
        for w in rng.uniform(-v if upper else 0.0, v, 5):
            half_b, roots = _engine_roots(beta, upper, w)
            assert abs(half_b) <= half_k * (1.0 + 1e-12)
            for x in roots:
                terms = (x * x, 2.0 * half_b * x, -y)
                assert abs(sum(terms)) <= 1e-12 * max(abs(t) for t in terms)
                assert x > 0.0
        found += 1
    assert found > 100


def test_power_roots_none_below_vertex(k5, monkeypatch):
    """Below the support no bearing has real roots: the lower branch degenerates."""
    below, above = 1.001 * floor_of(k5), 0.999 * floor_of(k5)
    # half_b^2 + y < 0 at every bearing, and the engine integrates nothing
    assert 0.25 * k5 * k5 + below < 0.0
    assert _kernel_inputs(monkeypatch, below, k5) is None
    v, s2, _ = _kernel_inputs(monkeypatch, above, k5)
    assert v > 0.0 and s2 > 0.0
    assert cdf_scale_free(below, k5) == 0.0
    assert pdf_scale_free(below, k5) == 0.0


def test_cdf_reference_basics(k5):
    """0 at and below the floor -k^2/4, small just above it, then a CDF up to the tail."""
    floor = floor_of(k5)
    assert cdf_scale_free(2.0 * floor, k5) == 0.0
    assert cdf_scale_free(floor, k5) == 0.0
    assert cdf_scale_free(floor * (1.0 - 1e-12), k5) < 1e-6
    grid = np.linspace(floor, _y_upper(k5, 1e-6), 60)
    values = cdf_scale_free(grid, k5)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) >= -1e-12)
    assert values[-1] == pytest.approx(1.0, abs=2e-6)


def test_cdf_reference_at_branch_point_against_direct_quadrature(k5):
    """Independent oracle at y = 0: the roots are {0, -k*cos(theta)} for the admissible half."""
    def integrand(theta):
        x = -k5 * math.cos(theta)
        return (1.0 - math.exp(-x * x)) / (2.0 * math.pi)

    direct, _ = integrate.quad(integrand, 0.5 * math.pi, 1.5 * math.pi,
                               epsabs=1e-13, limit=200)
    assert cdf_scale_free(0.0, k5) == pytest.approx(direct, abs=1e-9)


def test_cdf_batch_matches_scalar(k5):
    grid = np.unique(np.concatenate([
        floor_of(k5) * np.geomspace(1e-12, 1.0 - 1e-7, 25),
        np.geomspace(1e-12, 1e-2, 25),
        np.geomspace(1e-2, _y_upper(k5, 1e-6), 25),
    ]))
    scalar = np.array([cdf_oracle(y, k5) for y in grid])
    batch = cdf_scale_free(grid, k5)
    assert np.max(np.abs(batch - scalar)) < 5e-11


def _probe_point(quad, rho, where, x):
    """An abscissa y of the hypothesis tests, x in [0, 1] placing it within
    ``where``; the windows are those of totals p = c0 + A*y near c0 and the edge."""
    c0_y, floor = y_of_c0(quad, rho), floor_of(quad.law(rho)[2])
    if where == "c0":  # a total within 1e-12 of c0 (relative), on either side
        return c0_y * (2.0 * x - 1.0) * 1e-12
    if where == "junction":  # within 1e-9 of c0 (relative), on either side
        return c0_y * (2.0 * x - 1.0) * 1e-9
    if where == "edge":  # a total within 1e-12 (relative) above the least one
        return floor + (c0_y + floor) * x * 1e-12
    if where == "below":
        return floor * (1.0 - x)
    # the upper branch spreads over the mean excess 1
    return 10.0 ** (13.5 * x - 12.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rho=st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e),
       r1=st.floats(math.log10(50.0), 5.0).map(lambda e: 10.0 ** e),
       where=st.sampled_from(("c0", "edge", "below", "above")),
       x=st.floats(0.0, 1.0))
# dense, far regimes just above c0, where a fixed 128-node Gauss-Legendre rule
# in the bearing was off by 2.4e-3 and 1.6e-4
@example(rho=0.1, r1=20_000.0, where="c0", x=1.0)
@example(rho=1.0, r1=100_000.0, where="c0", x=1.0)
def test_cdf_within_tolerance_of_oracle(rho, r1, where, x):
    """Each value is within 1e-10 of the oracle, and within its own error estimate."""
    quad = cooperative_quadratic(validate(SystemParams(rho=rho)), r1)
    k = quad.law(rho)[2]
    y = _probe_point(quad, rho, where, x)
    value, estimate = (float(v) for v in _integrate(*distribution._y_points(y, k), k))
    gap = abs(value - cdf_oracle(y, k))
    assert gap <= 1e-10
    assert gap <= estimate + 1e-12  # the slack covers the oracle's own error


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rho=st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e),
       r1=st.floats(math.log10(50.0), 5.0).map(lambda e: 10.0 ** e),
       where=st.sampled_from(("c0", "junction", "edge", "below", "above")),
       x=st.floats(0.0, 1.0))
# rho 1, r1 100 km (k = 1.77e3), where the density is 70022.56 (in 1/W) on both
# sides of c0: an adaptive rule in the bearing gave 1397.5 at c0 (1 + 1e-12)
# and 39988 at c0 (1 + 1e-9)
@example(rho=1.0, r1=100_000.0, where="c0", x=1.0)
@example(rho=1.0, r1=100_000.0, where="c0", x=0.0)
@example(rho=1.0, r1=100_000.0, where="junction", x=1.0)
def test_pdf_within_tolerance_of_oracle(rho, r1, where, x):
    """Each density value is within 1e-9 (relative) of the adaptive oracle."""
    quad = cooperative_quadratic(validate(SystemParams(rho=rho)), r1)
    k = quad.law(rho)[2]
    y = _probe_point(quad, rho, where, x)
    oracle = pdf_oracle(y, k)
    assert abs(pdf_scale_free(y, k) - oracle) <= 1e-9 * oracle


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rho=st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e),
       r1=st.floats(math.log10(50.0), 5.0).map(lambda e: 10.0 ** e),
       tail=st.floats(-9.0, -6.0).map(lambda e: 10.0 ** e))
def test_y_upper_bounds_the_tail(rho, r1, tail):
    """At most ``tail`` lies above ``_y_upper``, which is near the quantile."""
    k = cooperative_quadratic(validate(SystemParams(rho=rho)), r1).law(rho)[2]
    bound = _y_upper(k, tail)
    assert cdf_scale_free(bound, k) >= 1.0 - tail - 1e-10
    assert bound <= 1.25 * quantile_oracle(k, tail)


def test_pdf_array_matches_pointwise(k5):
    """A 0-d input gives a float; an array gives its shape and the pointwise bits."""
    floor = floor_of(k5)
    y = np.array([[2.0 * floor, floor], [0.5 * floor, 0.0], [1e-9, 3.0]])
    values = pdf_scale_free(y, k5)
    assert values.shape == y.shape
    pointwise = [pdf_scale_free(x, k5) for x in y.ravel()]
    assert all(isinstance(x, float) for x in pointwise)
    assert np.array_equal(values.ravel(), pointwise)
    assert np.all(values[0] == 0.0) and np.all(values[1:] > 0.0)


def _far_dense_law():
    """rho 1 and r1 100 km: k = 1.77e3, and c0/A."""
    quad = cooperative_quadratic(validate(SystemParams(rho=1.0)), 100_000.0)
    return quad.law(1.0)[2], y_of_c0(quad, 1.0)


def test_cdf_raises_integration_error_past_the_cap(monkeypatch):
    k, c0_y = _far_dense_law()
    y = c0_y * 1e-12  # takes 128 intervals on [0, pi/2]
    monkeypatch.setattr(distribution, "_MAX_NODES", 32)
    with pytest.raises(IntegrationError) as err:
        cdf_scale_free(np.array([-0.5 * c0_y, c0_y, y]), k)
    assert str(err.value).startswith(f"CDF at y = {y!r} (k = {k!r}) did not converge "
                                     "within 32 intervals")
    monkeypatch.undo()
    value, estimate = _integrate(*distribution._y_points(y, k), k)
    assert estimate <= 1e-10


def test_a_nan_point_never_converges(monkeypatch):
    """A point whose kernel value is NaN is refused by name, never returned,
    and on the starting rule, as a NaN in the running sum never clears: the
    one kernel call is the opening one, over the 8-interval grid and its midpoints.

    The kernel is made to return NaN on the second point's row: since the
    engine floors sinh(V)^2, no point of the parameter space reaches the 0/0
    at V = 0 that used to give one (``test_vanishing_k_is_the_exponential_law``).
    """
    quad = cooperative_quadratic(validate(SystemParams()), 2000.0)
    rho = 1e-4
    k, c0_y = quad.law(rho)[2], y_of_c0(quad, rho)
    nodes = []
    kernel = distribution._cdf_integrand

    def poisoned(v, s2, beta, cos_phi, *rest):
        nodes.append(cos_phi.size)
        g = kernel(v, s2, beta, cos_phi, *rest)
        g[-1] = np.nan  # the last row: the one point above 0
        return g

    monkeypatch.setattr(distribution, "_cdf_integrand", poisoned)
    with pytest.raises(IntegrationError) as err:
        cdf_scale_free(np.array([-0.5 * c0_y, c0_y]), k)
    assert str(err.value).startswith(f"CDF at y = {c0_y!r} (k = {k!r}) ")
    assert "is not finite at 8 intervals" in str(err.value)
    assert nodes == [16]


def test_vanishing_k_is_the_exponential_law():
    """Where k = b_coeff*sqrt(pi*rho)/a is 3.5e-261, k^2/(4y) underflows to 0;
    the floor on sinh(V)^2 keeps the phi = 0 limits finite, and the law is
    1 - exp(-y), to within k, with density exp(-y)."""
    params = validate(SystemParams(sigma2_short=1e-150, g_u1_db=-1100.0, n0=1e-200))
    k = cooperative_quadratic(params, 2000.0).law(params.rho)[2]
    assert k < 1e-260 and floor_of(k) == 0.0
    y = np.array([1e-6, 0.1, 1.0, 5.0, 30.0])
    np.testing.assert_allclose(cdf_scale_free(y, k), -np.expm1(-y), rtol=0, atol=1e-10)
    np.testing.assert_allclose(pdf_scale_free(y, k), np.exp(-y), rtol=1e-9, atol=0)


@pytest.mark.parametrize("k", [1e200, 9.5e153, math.inf, -math.inf, math.nan,
                               np.float64(1e200), np.float64(math.nan)])
def test_scale_free_law_refuses_a_shape_out_of_range(k):
    """A k that is not finite, or whose 2*k^2 overflows, is a ValueError naming
    k, raised before any numpy operation, so no RuntimeWarning leaks first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for law in (cdf_scale_free, pdf_scale_free):
            with pytest.raises(ValueError, match=r"shape k must be finite with 2\*k\^2 "
                                                 r"finite, got "):
                law(1.0, k)


_TOP = sys.float_info.max


@pytest.mark.parametrize("k", [1e-300, 1.0, 1e139, 1.8e144, 3.53e151, 9.48e153])
def test_scale_free_law_at_the_top_of_the_float_range(k):
    """At y = -+max float, -+1e308 and 1.7e308, where y + k^2/4 and the root
    masses' exponents overflow, and at y = 0 and -+5e-324, both entries are
    finite, H lies in [0, 1 + 1e-10] and the density is >= 0, with no
    RuntimeWarning (turned into an error for the suite)."""
    y = np.array([_TOP, -_TOP, 1e308, -1e308, 1.7e308, 0.0, 5e-324, -5e-324])
    for points in [y] + list(y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, density = cdf_scale_free(points, k), pdf_scale_free(points, k)
        assert np.all(np.isfinite(h) & (h >= 0.0) & (h <= 1.0 + 1e-10))
        assert np.all(np.isfinite(density) & (density >= 0.0))


@pytest.mark.parametrize("k", [1e-6, 1e-4, 1e-2, 0.353, 1.0, 10.0, 100.0, 1e3])
def test_scale_free_law_is_noncentral_chi_square(k):
    """2*y + k^2/2 is chi^2_2 with noncentrality k^2/2 (the module docstring's
    identity): on [max(-k^2/4, -y_hi), y_hi], H meets scipy's ``ncx2.cdf`` to
    1e-12 and the density meets twice its ``ncx2.pdf`` to 1e-12 relative."""
    floor, y_hi = -0.25 * k * k, distribution._y_upper(k, 1e-9)
    y = np.concatenate([np.linspace(max(floor, -y_hi), 0.0, 21)[1:],
                        np.linspace(0.0, y_hi, 41)[1:]])
    x, lam = 2.0 * y + 0.5 * k * k, 0.5 * k * k
    assert np.max(np.abs(cdf_scale_free(y, k) - stats.ncx2.cdf(x, 2, lam))) <= 1e-12
    density = 2.0 * stats.ncx2.pdf(x, 2, lam)
    assert np.all(np.abs(pdf_scale_free(y, k) - density) <= 1e-12 * density)


def test_i0e_meets_scipy_on_both_sides_of_700():
    """``np.i0`` times exp(-x) up to 700 and Hankel's series above meet
    ``scipy.special.i0e`` to 1e-15 relative, up to x = 1e300."""
    x = np.concatenate([np.linspace(0.0, 700.0, 1401), np.nextafter(700.0, [0.0, np.inf]),
                        np.geomspace(700.5, 1e300, 600)])
    assert np.max(np.abs(_i0e(x) / special.i0e(x) - 1.0)) <= 1e-15


@pytest.mark.parametrize("k", [3.5e-261, 3.53e151])
def test_density_at_the_edges_without_warnings(k):
    """At the smallest and largest shapes ``validate`` meets, the closed form is
    0 at y = -+inf, NaN and the support's floor -k^2/4, and finite and > 0
    inside, with no RuntimeWarning.  Where k^2/4 underflows, the floor reads
    -0.0, which is y = 0, where the density is the exponential law's 1."""
    floor = -0.25 * k * k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edges = pdf_scale_free(np.array([-math.inf, math.inf, math.nan, floor]), k)
        inside = pdf_scale_free(np.array([1e-300, 1.0, distribution._y_upper(k, 1e-9)]), k)
    assert np.array_equal(edges, [0.0, 0.0, 0.0, 0.0 if floor else 1.0])
    assert np.all(np.isfinite(inside) & (inside > 0.0))


@pytest.mark.parametrize("k", [0.0, 5e-324, 1e-300, 3e-162, 1e-150])
def test_density_at_zero_is_the_exponential_law_as_k_vanishes(k):
    """At y = -0.0, 0.0 and 5e-324 the density is 1, the Exp(1) law's, also
    where k^2/4 underflows so that y = 0 is the support's computed floor, and
    at k = 0, where y/(s + k/2) would be 0/0; with no RuntimeWarning."""
    y = np.array([-0.0, 0.0, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(pdf_scale_free(y, k), np.ones(3))
        assert [pdf_scale_free(point, k) for point in y] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("k", [1.0, 1e5, 1e150, 3.5e151, 9.48e153])
def test_scale_free_cdf_at_zero_where_sinh_squared_overflows(k):
    """Next to y = 0, k^2/(4y) and (y + k^2/4)/|y| overflow; the floors on |y|
    keep sinh(V)^2 <= 1e300, so H stays finite, with no warning, and meets
    H(0; k) = (2/pi) * integral over [0, k] of arccos(t/k)*t*exp(-t^2) dt."""
    at_zero, _ = integrate.quad(lambda t: math.acos(t / k) * t * math.exp(-t * t),
                                0.0, min(k, 40.0), epsabs=1e-13, epsrel=1e-13)
    y = np.array([-1e-300, -5e-324, 0.0, 5e-324, 1e-320, 1e-300])
    np.testing.assert_allclose(cdf_scale_free(y, k), 2.0 / math.pi * at_zero,
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("cells", [4096 * 128, 1000])
def test_cdf_temporaries_stay_within_cells(monkeypatch, cells):
    """Points that need many nodes are taken in fewer rows at a time, same bits."""
    k, c0_y = _far_dense_law()
    y = c0_y * np.linspace(-1e-12, 1e-12, 5000)
    default = cdf_scale_free(y, k)
    sizes = []
    kernel = distribution._cdf_integrand

    def recording(v, s2, beta, cos_phi, sin_phi, upper):
        sizes.append((v.shape[0], cos_phi.size))
        return kernel(v, s2, beta, cos_phi, sin_phi, upper)

    monkeypatch.setattr(distribution, "_cdf_integrand", recording)
    monkeypatch.setattr(distribution, "_CELLS", cells)
    assert np.array_equal(cdf_scale_free(y, k), default)
    assert max(cols for _, cols in sizes) >= 64
    assert max(rows * cols for rows, cols in sizes) <= cells


def _batch_probe_points(k, c0_y):
    """Points below the support, in Q1 and in Q2; neither branch a whole number of chunks."""
    floor = floor_of(k)
    return np.concatenate([
        np.linspace(2.0 * floor, floor, 101),
        np.linspace(floor, 0.0, 20_001)[1:],
        c0_y * np.geomspace(1e-12, 5.0, 25_000),
    ])


def test_cdf_batch_zero_below_support_and_float_at_0d(quad5, dense_params, k5):
    """0 below the support, positive above it; a 0-d input gives its array value as a float."""
    y = _batch_probe_points(k5, y_of_c0(quad5, dense_params.rho))
    assert y.size % distribution._CHUNK != 0
    values = cdf_scale_free(y, k5)
    assert np.all(values[:101] == 0.0) and np.all(values[101:] > 0.0)
    for i in (50, 5000, -3):
        one = cdf_scale_free(np.float64(y[i]), k5)
        assert isinstance(one, float) and one == values[i]


@pytest.mark.parametrize("chunk", [1000, 16384])
def test_cdf_batch_bitwise_independent_of_chunk(quad5, dense_params, k5, monkeypatch, chunk):
    y = _batch_probe_points(k5, y_of_c0(quad5, dense_params.rho))
    default = cdf_scale_free(y, k5)
    monkeypatch.setattr(distribution, "_CHUNK", chunk)
    assert np.array_equal(cdf_scale_free(y, k5), default)


def _small_validate_cdf():
    """H(y; k) at the KS sample of ``validate --seed 7 --trials 10000``, its
    scale-free totals y."""
    params = validate(SystemParams())
    quad = cooperative_quadratic(params, 2000.0)
    y = draw_power_samples(10_000, params.rho, quad, RandomStream(7, stream_id=101)).y
    y.sort()
    return cdf_scale_free(y, quad.law(params.rho)[2])


def test_cdf_batch_bitwise_independent_of_blas_threads():
    """A child process with one BLAS thread computes the same bytes.

    On this input a BLAS matrix-vector node sum rounded the last point
    differently with one BLAS thread than with the default thread pool.
    """
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    child = ("import sys; from test_distribution import _small_validate_cdf; "
             "sys.stdout.buffer.write(_small_validate_cdf().tobytes())")
    done = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == _small_validate_cdf().tobytes()


def test_branch_form_matches_reference_below_c0(k5):
    grid = np.linspace(floor_of(k5), 0.0, 20)[1:]
    for y, value in zip(grid, cdf_scale_free(grid, k5)):
        assert branch_form_cdf(y, k5) == pytest.approx(value, abs=1e-10)


def test_branch_form_carries_constant_offset_above_c0(quad5, dense_params, k5):
    """The upper branch exceeds the reference by exactly the boundary term."""
    boundary = cdf_scale_free(0.0, k5)
    assert boundary > 0.0
    grid = np.geomspace(1e-4 * y_of_c0(quad5, dense_params.rho), _y_upper(k5, 1e-6), 12)
    for y, value in zip(grid, cdf_scale_free(grid, k5)):
        assert branch_form_cdf(y, k5) - value == pytest.approx(boundary, abs=1e-9)
    # consequence: the branch form overshoots 1 in the far tail
    assert branch_form_cdf(_y_upper(k5, 1e-9), k5) > 1.0


def _branch_form_grid(k):
    """192 points from the floor to the 1e-6 tail bound, most of them above 0."""
    floor, hi = floor_of(k), _y_upper(k, 1e-6)
    return np.concatenate([np.linspace(floor, 0.0, 24), np.geomspace(1e-6, hi, 168)])


def test_branch_form_is_reference_plus_boundary_term_bitwise(k5):
    """The branch form as one grid call plus one at 0 is bitwise the sum of
    one-point calls, and within 1e-10 of the stated form."""
    grid = _branch_form_grid(k5)
    boundary = cdf_scale_free(0.0, k5)
    from_grid = cdf_scale_free(grid, k5) + boundary * (grid > 0.0)
    pointwise = [cdf_scale_free(y, k5) + (boundary if y > 0.0 else 0.0) for y in grid]
    assert np.array_equal(from_grid, pointwise)
    stated = np.array([branch_form_cdf(y, k5) for y in grid])
    assert np.max(np.abs(from_grid - stated)) <= 1e-10
    assert np.count_nonzero(grid > 0.0) > 100


def test_pdf_nonnegative_on_grid(k5):
    values = np.array([pdf_scale_free(y, k5) for y in _branch_form_grid(k5)])
    assert np.all(values >= 0.0)


def test_pdf_integrates_to_one(k5):
    hi = _y_upper(k5, 1e-9)
    q1, _ = integrate.quad(lambda y: pdf_scale_free(y, k5), floor_of(k5), 0.0, limit=300)
    q2, _ = integrate.quad(lambda y: pdf_scale_free(y, k5), 0.0, hi, limit=300)
    assert q1 + q2 == pytest.approx(1.0, abs=1e-3)
    assert q1 + q2 == pytest.approx(1.0, abs=1e-6)  # much tighter in practice


def test_pdf_continuous_at_branch_junction(quad5, dense_params, k5):
    c0_y = y_of_c0(quad5, dense_params.rho)
    below = pdf_scale_free(-1e-9 * c0_y, k5)
    above = pdf_scale_free(1e-9 * c0_y, k5)
    assert above == pytest.approx(below, rel=1e-6, abs=0)


def test_pdf_matches_cdf_finite_differences(quad5, dense_params, k5):
    """Central differences of the CDF against the density, to 1e-4/W in totals."""
    span = _y_upper(k5, 1e-6)
    points = span * np.linspace(0.02, 0.9, 50)
    h = span * 2e-5
    slopes = (cdf_scale_free(points + h, k5) - cdf_scale_free(points - h, k5)) / (2.0 * h)
    # a density of y is A times that of the total p = c0 + A*y
    bound = 1e-4 * quad5.law(dense_params.rho)[0]
    for y, fd in zip(points, slopes):
        assert abs(fd - pdf_scale_free(y, k5)) < bound


def test_expected_power_closed_form_golden(quad5, dense_params):
    assert expected_power(quad5, dense_params.rho) == pytest.approx(EP_GOLDEN, rel=1e-12,
                                                                    abs=0)


@pytest.mark.parametrize("rho,r1", [
    (1e-5, 3000.0), (1e-4, 2000.0), (1e-3, 1000.0), (3e-3, 500.0), (1e-2, 150.0),
])
def test_expected_power_triple_agreement(dense_params, rho, r1):
    params = validate(dense_params._replace(rho=rho))
    quad = cooperative_quadratic(params, r1)
    closed = expected_power(quad, rho)
    by_quad = expected_power_quadrature(quad, rho)
    assert by_quad == pytest.approx(closed, rel=1e-9, abs=0)
    mean, stderr = sample_power_distribution(1_000_000, rho, quad, RandomStream(31))
    assert abs(mean - closed) < 3.0 * stderr


def test_expected_power_dense_limit(quad5):
    """As density grows the neighbor collapses onto the handset: mean -> c0."""
    for rho in (1e-2, 1.0, 1e2):
        assert expected_power(quad5, rho) == pytest.approx(
            quad5.c0 + quad5.a / (math.pi * rho), rel=1e-15, abs=0)
    assert expected_power(quad5, 1e6) == pytest.approx(quad5.c0, rel=1e-6, abs=0)


def test_energy_efficiency_not_proportional_to_rate(params):
    quad_r = cooperative_quadratic(params, 2000.0)
    ee_r = energy_efficiency(expected_power(quad_r, params.rho), params.rate)
    params2 = validate(params._replace(rate=2.0 * params.rate))
    quad_2r = cooperative_quadratic(params2, 2000.0)
    ee_2r = energy_efficiency(expected_power(quad_2r, params2.rho), params2.rate)
    assert ee_2r != pytest.approx(2.0 * ee_r, rel=1e-3)


def test_energy_efficiency_dense_limit(quad5, dense_params):
    ee_inf = energy_efficiency(quad5.c0, dense_params.rate)
    assert ee_inf == pytest.approx(2.0 * dense_params.rate / quad5.c0, rel=1e-15, abs=0)
    assert energy_efficiency(expected_power(quad5, 1e8), dense_params.rate) == \
        pytest.approx(ee_inf, rel=1e-4, abs=0)
    with pytest.raises(ValueError):
        energy_efficiency(0.0, 1e5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_efficiency_inputs_refuse_non_finite_or_non_positive(params, bad):
    """A nan passes a ``<= 0`` test: every non-finite or non-positive input is refused."""
    with pytest.raises(ParameterError) as err:
        conventional_quadratic(params, bad)
    assert err.value.field == "r1"
    with pytest.raises(ValueError, match="expected power must be finite and > 0"):
        energy_efficiency(bad, params.rate)


def test_cooperation_more_efficient_in_figure_regime(params):
    for r1 in np.linspace(500.0, 3000.0, 11):
        quad = cooperative_quadratic(params, r1)
        ee_nncc = energy_efficiency(expected_power(quad, params.rho), params.rate)
        ee_conv = energy_efficiency(
            expected_power(conventional_quadratic(params, r1), params.rho), params.rate)
        assert ee_nncc > ee_conv


def test_expected_power_conventional_moment_form(params):
    t = OutageTargets.for_target(params.p_out_target)
    eta_c = Link.cellular(params, 1).coeff(t.p_out_c)
    r1 = 1200.0
    expected = eta_c * (2.0 * r1 * r1 + 1.0 / (math.pi * params.rho))
    assert expected_power(conventional_quadratic(params, r1), params.rho) == pytest.approx(
        expected, rel=1e-15, abs=0)


def test_conventional_quadratic_mean_meets_quadrature():
    """The baseline's quadratic a = eta2, b_coeff = 2*eta2*r1, c0 = (eta1 +
    eta2)*r1^2 at section [c]'s five sets: its moment mean is the nested
    quadrature's, at equal and unequal handset gains."""
    rhos = np.array([1e-5, 1e-4, 1e-3, 3e-3, 1e-2])
    r1s = np.array([3000.0, 2000.0, 1000.0, 500.0, 150.0])
    for raw in (SystemParams(), SystemParams(g_u2_db=-3.0), SystemParams(rate=1e9),
                SystemParams(p_out_target=0.1)):
        coeff = conventional_coefficients(validate(raw))
        quads = PowerQuadratic.from_coefficients(coeff, r1s)
        assert quads.a == coeff.eta2
        np.testing.assert_array_equal(quads.b_coeff, 2.0 * coeff.eta2 * r1s)
        np.testing.assert_array_equal(quads.c0, (coeff.eta1 + coeff.eta2) * r1s * r1s)
        closed = expected_power(quads, rhos)
        np.testing.assert_allclose(closed, expected_power_quadrature(quads, rhos),
                                   rtol=1e-9, atol=0)


def test_expected_power_conventional_unequal_gains():
    """Handset 2 pays its own coefficient on the random distance r2."""
    params = validate(SystemParams(g_u2_db=-3.0))
    p_c = OutageTargets.for_target(params.p_out_target).p_out_c
    eta1 = Link.cellular(params, 1).coeff(p_c)
    eta2 = Link.cellular(params, 2).coeff(p_c)
    r1 = 1200.0
    closed = expected_power(conventional_quadratic(params, r1), params.rho)
    assert closed == pytest.approx(
        eta1 * r1 * r1 + eta2 * (r1 * r1 + 1.0 / (math.pi * params.rho)), rel=1e-12, abs=0)
    area, theta = sample_nn_geometries(RandomStream(31).block(0), 1_000_000)
    r = nn_distance(area, params.rho)
    r2 = partner_distance_to_bs(r1, r, theta)
    totals = eta1 * r1 * r1 + eta2 * r2 * r2
    stderr = np.std(totals, ddof=1) / math.sqrt(totals.size)
    assert abs(np.mean(totals) - closed) < 3.0 * stderr


def test_evaluate_distribution_grid(dense_params):
    rho = dense_params.rho
    quad = cooperative_quadratic(dense_params, 2000.0)
    big_a, _, k = quad.law(rho)
    grid = np.linspace(floor_of(k), _y_upper(k, 1e-6), 64)
    cdf_ref = cdf_scale_free(grid, k)
    cdf_branch = np.array([branch_form_cdf(y, k) for y in grid])
    pdf_branch = np.array([pdf_scale_free(y, k) for y in grid])
    assert quad.c0 + big_a * grid[0] == pytest.approx(INF_GOLDEN, rel=1e-12, abs=0)
    assert np.all(np.diff(cdf_ref) >= -1e-12)
    assert cdf_ref[-1] == pytest.approx(1.0, abs=2e-6)
    assert expected_power(quad, rho) == pytest.approx(EP_GOLDEN, rel=1e-12, abs=0)
    assert np.all(pdf_branch >= 0.0)
    # the branch-form CDF ends above 1 by exactly the boundary term
    boundary = cdf_scale_free(0.0, k)
    assert cdf_branch[-1] - cdf_ref[-1] == pytest.approx(boundary, abs=1e-9)


def test_quadratic_rejects_coefficients_whose_square_overflows(dense_params):
    with pytest.raises(ParameterError) as err:
        cooperative_quadratic(dense_params, 1e160)
    assert err.value.field == "rate" and "c0" in str(err.value)
    huge = validate(SystemParams(rate=2e9))
    with pytest.raises(ParameterError, match="coefficient a "):
        cooperative_quadratic(huge, 2000.0)
    # array distances are checked element-wise
    with pytest.raises(ParameterError), np.errstate(over="ignore"):
        cooperative_quadratic(dense_params, np.array([2000.0, 1e160]))


def test_quadratic_rejects_a_or_c0_whose_square_underflows():
    """The lower twin: the engine divides by a*a and by squares of c0, so
    either below sqrt(float min) is refused, naming the coefficient."""
    for raw, r1, name in ((SystemParams(n0=1e-170), 2000.0, "a"),
                          (SystemParams(rate=1e-300), 2000.0, "a"),
                          (SystemParams(), 1e-200, "c0"),
                          (SystemParams(), np.array([2000.0, 1e-200]), "c0")):
        with pytest.raises(ParameterError, match=f"coefficient {name} .* underflows"):
            cooperative_quadratic(validate(raw), r1)
    # at n0 = 1e-150, a is ~3.6e-138, whose square is normal
    quad = cooperative_quadratic(validate(SystemParams(n0=1e-150)), 2000.0)
    assert quad.a * quad.a >= sys.float_info.min


def _one(f, lo, hi, atol, rtol):
    """``_tanh_sinh`` on the batch of one interval [lo, hi] of the 1-D integrand f."""
    return _tanh_sinh(lambda x, live: f(x[0])[None], np.array([lo]), np.array([hi]),
                      atol, rtol)[0]


def test_quad_helper_raises_on_divergence():
    """1/x is not integrable at 0: the end terms never shrink, so the rule gives up."""
    with pytest.raises(IntegrationError,
                       match=r"^quadrature on \[0\.0, 1\.0\] did not converge within 7 "):
        _one(lambda x: 1.0 / x, 0.0, 1.0, atol=1e-12, rtol=0.0)


def test_tanh_sinh_known_integrals():
    """Smooth, endpoint-singular and row-wise integrands, each to its tolerance."""
    assert _one(np.exp, 0.0, 1.0, 0.0, 1e-13) == pytest.approx(math.e - 1.0, rel=1e-13, abs=0)
    # integrable singularities at lo = 0, whose nodes keep their digits
    assert _one(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 0.0, 1e-10) \
        == pytest.approx(2.0, rel=1e-10, abs=0)
    assert _one(np.log, 0.0, 1.0, 0.0, 1e-10) == pytest.approx(-1.0, rel=1e-10, abs=0)
    rows = _one(lambda x: np.array([[1.0], [2.0]]) * x * x, 1.0, 4.0, 0.0, 1e-13)
    assert rows.shape == (2,) and np.allclose(rows, [21.0, 42.0], rtol=1e-13, atol=0.0)


def test_tanh_sinh_non_finite_sum_raises_without_warning():
    """An infinite node value is a failed quadrature, never a RuntimeWarning."""
    with pytest.raises(IntegrationError, match=r"estimate inf"):
        _one(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0, 1e-12, 1e-12)


def test_tanh_sinh_shared_rule_is_bitwise_the_per_call_rule():
    """The steps shared between calls give the bits of steps computed per call."""
    cases = [(np.exp, 0.0, 1.0, 0.0, 1e-13), (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 0.0, 1e-10),
             (np.log, 0.0, 1.0, 0.0, 1e-10), (np.cos, -0.3, 7.1, 1e-12, 0.0),
             (lambda x: np.array([[1.0], [2.0]]) * x * x, 1.0, 4.0, 0.0, 1e-13)]
    for case in cases:
        assert np.array_equal(_one(*case), tanh_sinh_uncached(*case))
    for case in ((lambda x: 1.0 / x, 0.0, 1.0, 1e-12, 0.0),
                 (lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0, 1e-12, 1e-12)):
        with pytest.raises(IntegrationError) as shared:
            _one(*case)
        with pytest.raises(IntegrationError) as per_call:
            tanh_sinh_uncached(*case)
        assert str(shared.value) == str(per_call.value)


def _alone(f, i):
    """Interval ``i`` of the batch integrand ``f`` as a one-interval integrand."""
    return lambda x: f(x[None], np.array([i]))[0]


def test_tanh_sinh_batch_is_bitwise_each_interval_alone():
    """Intervals that stop at different levels each get their per-call bits.

    The batch takes levels 0 to ``_TS_OPEN`` - 1 in its opening call and each
    later level in a call of its own, so an interval that stops at level L is in
    1 + max(0, L - ``_TS_OPEN`` + 1) calls; the level-by-level reference gives L.
    """
    lo = np.array([0.0, 0.0, -0.3, 1.0, 0.0, 2.0])
    hi = np.array([1.0, 1.0, 7.1, 4.0, 30.0, 2.5])
    rate = np.array([1.0, -0.5, 0.3, 2.0, -1.0, 0.0])
    power = np.array([-0.5, 0.0, 0.0, 2.0, 0.5, 0.0])
    rows = np.array([[1.0, 2.0, -3.0]]) ** np.arange(6)[:, None]  # three entries each
    seen = []

    def f(x, live):  # (intervals, entries, nodes)
        seen.append(set(live))
        return (rows[live][:, :, None] * (x ** power[live, None]
                                           * np.exp(rate[live, None] * x))[:, None, :])

    batch = _tanh_sinh(f, lo, hi, 0.0, 1e-12)
    assert batch.shape == (6, 3)
    # a frozen interval never comes back
    assert all(after <= before for before, after in zip(seen, seen[1:]))
    calls = [sum(i in live for live in seen) for i in range(6)]
    levels = []
    for i in range(6):
        del seen[:]
        assert np.array_equal(batch[i],
                              tanh_sinh_uncached(_alone(f, i), lo[i], hi[i], 0.0, 1e-12))
        levels.append(len(seen) - 1)  # the reference calls f once per level from 0
    opened = distribution._TS_OPEN - 1
    assert len(set(levels)) >= 3 and max(levels) > opened
    assert calls == [1 + max(0, level - opened) for level in levels]


def test_tanh_sinh_batch_never_evaluates_a_frozen_interval():
    """Rows handed to f hold nodes of the live intervals only, in their bounds.

    The first interval stops inside the opening call, the second at the first
    level after it and the third later, so both kinds of freezing are seen.
    """
    lo, hi = np.zeros(3), np.array([1.0, 30.0, 5.0])
    power, rate = np.array([-0.3, 0.5, -0.5]), np.array([0.0, -1.0, 1.0])
    frozen, seen = set(), []

    def f(x, live):
        assert not frozen & set(live)
        assert np.all((x >= lo[live, None]) & (x <= hi[live, None]))
        seen.append(set(live))
        return x ** power[live, None] * np.exp(rate[live, None] * x)

    def record(x, live):
        if seen:
            frozen.update(seen[-1] - set(live))
        return f(x, live)

    _tanh_sinh(record, lo, hi, 0.0, 1e-13)
    assert seen[:3] == [{0, 1, 2}, {1, 2}, {2}] and len(seen) > 3 and frozen == {0, 1}


def test_tanh_sinh_batch_names_the_interval_that_fails():
    """One diverging interval: the error names its bounds, as a call on it alone."""
    lo, hi = np.array([0.5, 0.0, 2.0]), np.array([1.5, 1.0, 3.0])
    pole = np.array([np.nan, 0.0, np.nan])

    def f(x, live):  # 1/x on the middle interval, smooth elsewhere
        return np.where(np.isnan(pole[live, None]), np.cos(x), 1.0 / x)

    with pytest.raises(IntegrationError) as batch:
        _tanh_sinh(f, lo, hi, 1e-12, 0.0)
    with pytest.raises(IntegrationError) as alone:
        tanh_sinh_uncached(lambda x: 1.0 / x, 0.0, 1.0, 1e-12, 0.0)
    assert str(batch.value) == str(alone.value)
    assert str(batch.value).startswith("quadrature on [0.0, 1.0] did not converge")


def _density_cells(k):
    """Section [e]'s three y cells: the floor -k^2/4 to s = max(-k^2/4, -y_hi),
    s to 0, and 0 to y_hi = u_t + k*sqrt(u_t), u_t = -log(1e-9)."""
    floor, y_hi = -0.25 * k * k, distribution._y_upper(k, 1e-9)
    split = max(floor, -y_hi)
    return np.array([floor, split, 0.0]), np.array([split, 0.0, y_hi])


def _density_integrals(k):
    """Section [e]'s one call: the density of y over its three cells."""
    return _tanh_sinh(lambda y, live: pdf_scale_free(y, k), *_density_cells(k),
                      atol=1e-10, rtol=1e-12)


def test_validate_batches_are_bitwise_each_interval_alone(monkeypatch):
    """Every batched quadrature of a report equals per-interval calls bitwise.

    Sections [c] and [e] make one inner mean call over the five sets, each
    row holding a set's 8 bearings, and one density call over three y cells.
    """
    calls = []

    def spy(f, lo, hi, atol, rtol):
        value = _tanh_sinh(f, lo, hi, atol, rtol)
        calls.append((f, lo, hi, atol, rtol, value))
        return value

    monkeypatch.setattr(distribution, "_tanh_sinh", spy)
    validate_report(ExperimentSpec(kind="validate", out=os.devnull, seed=7,
                                   n_trials=10_000))
    monkeypatch.undo()
    mean = [c for c in calls if c[1].size == 5 and not c[1].any()]
    density = [c for c in calls if c[1].size == 3 and c[1][0] < 0]
    # the bearing rule meets its test at its first 8 bearings: 2 calls, not 5
    assert len(mean) == 1 and len(density) == 1 and len(calls) == 2
    for f, lo, hi, atol, rtol, value in calls:
        for i in range(lo.size):
            assert np.array_equal(
                value[i], tanh_sinh_uncached(_alone(f, i), lo[i], hi[i], atol, rtol))


def test_validate_work_count(monkeypatch):
    """The kernel calls of a report: the CDF's opening call takes its first 16
    nodes and tanh-sinh's takes four levels, so at the defaults [c]'s mean makes
    2 integrand calls (9000 values), [e]'s density 1 (339 values, one ``np.i0``
    call) and the CDF kernel is called 8 times."""
    kernel, rule, i0 = distribution._cdf_integrand, distribution._tanh_sinh, np.i0
    counts = collections.Counter()

    def counting_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def counting_rule(f, lo, hi, atol, rtol):
        name = "mean" if lo.size == 5 else "density"

        def counting_f(x, live):
            values = f(x, live)
            counts[name] += 1
            counts[name + " values"] += values.size
            return values

        return rule(counting_f, lo, hi, atol, rtol)

    def counting_i0(x):
        counts["i0"] += 1
        return i0(x)

    monkeypatch.setattr(distribution, "_cdf_integrand", counting_kernel)
    monkeypatch.setattr(distribution, "_tanh_sinh", counting_rule)
    monkeypatch.setattr(np, "i0", counting_i0)
    validate_report(ExperimentSpec(kind="validate", out=os.devnull, seed=7,
                                   n_trials=10_000))
    assert counts == {"kernel": 8, "mean": 2, "mean values": 9000, "density": 1,
                      "density values": 339, "i0": 1}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rho=st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e),
       r1=st.floats(math.log10(50.0), 5.0).map(lambda e: 10.0 ** e),
       rate=st.floats(4.0, 8.0).map(lambda e: 10.0 ** e),
       g_u2_db=st.floats(-6.0, 6.0))
@example(rho=1.0, r1=100_000.0, rate=1e5, g_u2_db=0.0)
@example(rho=0.1, r1=20_000.0, rate=1e5, g_u2_db=0.0)
def test_validate_quadratures_across_regimes(rho, r1, rate, g_u2_db):
    """The nested mean meets the closed form, each density cell meets QUADPACK."""
    quad = cooperative_quadratic(
        validate(SystemParams(rho=rho, rate=rate, g_u2_db=g_u2_db)), r1)
    assert expected_power_quadrature(quad, rho) == pytest.approx(
        expected_power(quad, rho), rel=1e-9)
    k = quad.law(rho)[2]
    for integral, lo, hi in zip(_density_integrals(k), *_density_cells(k)):
        assert abs(integral - pdf_integral_oracle(k, lo, hi)) <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rho=st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e),
       r1=st.floats(math.log10(50.0), 5.0).map(lambda e: 10.0 ** e),
       rate=st.floats(4.0, 8.0).map(lambda e: 10.0 ** e),
       g_u2_db=st.floats(-6.0, 6.0))
@example(rho=1.0, r1=100_000.0, rate=1e5, g_u2_db=0.0)
@example(rho=0.1, r1=20_000.0, rate=1e5, g_u2_db=0.0)
def test_expected_power_quadrature_batch_is_bitwise_scalar_calls(rho, r1, rate, g_u2_db):
    """Section [c]'s five sets, and the regime's own, in one call: per-set bits."""
    params = validate(SystemParams(rho=rho, rate=rate, g_u2_db=g_u2_db))
    rhos = np.array([1e-5, 1e-4, 1e-3, 3e-3, 1e-2, rho])
    r1s = np.array([3000.0, 2000.0, 1000.0, 500.0, 150.0, r1])
    quads = PowerQuadratic.from_coefficients(power_coefficients(params), r1s)
    batch = expected_power_quadrature(quads, rhos)
    for i, (rho_i, r1_i) in enumerate(zip(rhos, r1s)):
        quad = cooperative_quadratic(validate(params._replace(rho=rho_i)), r1_i)
        assert quad == PowerQuadratic(quads.a, quads.b_coeff[i], quads.c0[i])
        scalar = expected_power_quadrature(quad, rho_i)
        assert isinstance(scalar, float)
        assert batch[i] == scalar == mean_quadrature_per_call(quad, rho_i)
    assert np.array_equal(expected_power(quads, rhos),
                          [expected_power(PowerQuadratic(quads.a, b, c), rho_i)
                           for b, c, rho_i in zip(quads.b_coeff, quads.c0, rhos)])


def test_mean_bearing_rule_raises_past_its_cap(monkeypatch, quad5):
    """Inner values that are not a smooth periodic function of the bearing
    (each perturbed by 1e-6 relative noise) double the trapezoid rule to
    ``_MAX_BEARINGS`` bearings per set; then it raises, naming the first set
    still going."""
    rng, widths = np.random.default_rng(1), []

    def noisy(f, lo, hi, atol, rtol):
        value = _tanh_sinh(f, lo, hi, atol, rtol)
        widths.append(value.shape)
        return value * (1.0 + 1e-6 * rng.standard_normal(value.shape))

    monkeypatch.setattr(distribution, "_tanh_sinh", noisy)
    with pytest.raises(IntegrationError, match=r"^mean of set 0 \(rho = 0\.0001\) did not "
                                               r"converge within 256 bearings \(change "):
        expected_power_quadrature(quad5, np.array([1e-4, 1e-3]))
    assert widths == [(2, 8), (2, 8), (2, 16), (2, 32), (2, 64), (2, 128)]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_density_functions_refuse_bad_rho(quad5, bad):
    """Every density guard refuses nan and inf as well as rho <= 0."""
    calls = [lambda rho: expected_power(quad5, rho),
             lambda rho: expected_power_quadrature(quad5, rho),
             lambda rho: quad5.law(rho),
             # array densities are checked element-wise
             lambda rho: expected_power(quad5, np.array([1e-4, rho])),
             lambda rho: expected_power_quadrature(quad5, np.array([1e-4, rho]))]
    for call in calls:
        with pytest.raises(ParameterError, match=r"^rho: must be finite and > 0"):
            call(bad)


def test_ks_against_the_scale_free_law_on_a_grid_of_k():
    """One (u, theta) draw gives y = u + k*v at every k, and H(y; k) meets it
    under section [b]'s bound on a log grid of k: from 1e-300, past the
    defaults' 3.5e151 at rho = 1e300, up to the largest k ``validate``
    accepts (2*k^2 finite, ~9.48e153).  Every law [b] can meet is on the grid,
    since a parameter set reaches [b]'s law only through k."""
    n = 10_000
    area, theta = placements_by_expression(n, RandomStream(7, stream_id=101))
    v = np.cos(theta) * np.sqrt(area)
    k_top = math.sqrt(sys.float_info.max / 2.0)
    while not 2.0 * k_top * k_top < math.inf:
        k_top = math.nextafter(k_top, 0.0)
    params = validate(SystemParams(rho=1e300))
    k_dense = cooperative_quadratic(params, 2000.0).law(params.rho)[2]
    assert 3.4e151 < k_dense < k_top
    bound = max(0.005, 1.5 * 1.36 / math.sqrt(n))
    for k in np.append(10.0 ** np.arange(-300.0, 160.0, 10.0), [k_dense, k_top]):
        y = np.sort(area + k * v)
        assert ks_distance(y, lambda x: cdf_scale_free(x, k)) <= bound, k


# a correct program fails each bound with probability at most 1e-4
_Z_MAX = 4.0  # two-sided normal tail 6.3e-5


def _poisson_ground_truth(n=20_000, seed=2016):
    """z of the mean and KS statistic (with its bound) of the round total over
    n placements of a Poisson process, against the one map's closed forms.

    Each placement puts Poisson(40) handsets uniformly in a disc of area
    40/rho around the tagged handset (none with probability e^-40), and the
    nearest is the partner.  Its round total comes from
    ``partner_distance_to_bs`` and the coefficients, never from the neighbour
    law.  The KS bound sqrt(ln(2/alpha)/(2n)), alpha = 1e-4, is the
    Dvoretzky-Kiefer-Wolfowitz-Massart tail.
    """
    params = validate(SystemParams())
    rho, r1 = params.rho, 2000.0
    coeff = power_coefficients(params)
    quad = PowerQuadratic.from_coefficients(coeff, r1)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(40.0, n)
    assert counts.min() > 0
    group = np.repeat(np.arange(n), counts)
    # a squared distance uniform on [0, R^2] and a uniform bearing: uniform in the disc
    d2 = rng.uniform(0.0, 40.0 / (math.pi * rho), group.size)
    bearing = rng.uniform(-0.5 * math.pi, 1.5 * math.pi, group.size)
    nearest = np.lexsort((d2, group))[np.cumsum(counts) - counts]
    r, theta = np.sqrt(d2[nearest]), bearing[nearest]
    r2 = partner_distance_to_bs(r1, r, theta)
    totals = (2.0 * coeff.zeta * r * r
              + coeff.eps_total * (coeff.eta1 * r1 * r1 + coeff.eta2 * r2 * r2))
    z = (np.mean(totals) - expected_power(quad, rho)) / (np.std(totals, ddof=1) / math.sqrt(n))
    big_a, _, k = quad.law(rho)
    ks = ks_distance(np.sort((totals - quad.c0) / big_a), lambda y: cdf_scale_free(y, k))
    return float(z), ks, math.sqrt(math.log(2.0 / 1e-4) / (2.0 * n))


def test_poisson_ground_truth_meets_the_one_map():
    """The void probability behind ``PowerQuadratic.law``, checked on handsets
    placed as a Poisson process: the mean meets ``expected_power`` (|z| <= 4)
    and the CDF H((p - c0)/A; k) (KS under the DKW-Massart bound)."""
    z, ks, bound = _poisson_ground_truth()
    assert abs(z) <= _Z_MAX
    assert ks <= bound


def test_poisson_ground_truth_sees_the_law_mutant(monkeypatch):
    """pi*rho taken 5 % too large in the one map moves the closed-form mean
    and CDF together, so no reader of the map sees it against another; the
    Poisson placements do."""
    mutants.law_scale(monkeypatch, 0.05)
    z, ks, bound = _poisson_ground_truth()
    assert abs(z) > _Z_MAX or ks > bound
