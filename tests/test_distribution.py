import math
import sys

import numpy as np
import pytest
from scipy import integrate

from nncc import (
    IntegrationError,
    PowerQuadratic,
    cdf_branch_form,
    cdf_reference,
    cdf_reference_batch,
    energy_efficiency,
    evaluate_distribution,
    expected_power,
    expected_power_conventional,
    expected_power_quadrature,
    pdf_branch_form,
    power_roots,
    support_upper,
)
from nncc import nncc_power_breakdown, Geometry, OutageTargets, cellular_coeff
from nncc.distribution import _quad
from nncc.montecarlo import RandomStream, sample_power_distribution

# frozen references for the high-rate regime (rate 1e7, p_out 1e-3, r1 2000 m)
A_GOLDEN = 1.255845624464336e-5
C0_GOLDEN = 0.1227648606882469
INF_GOLDEN = 0.1226898553953679
EP_GOLDEN = 0.1627396684670124  # at rho 1e-4


@pytest.fixture(scope="module")
def quad5(dense_params):
    return PowerQuadratic.from_params(dense_params, 2000.0)


def test_quadratic_coefficients_golden(quad5):
    assert quad5.a == pytest.approx(A_GOLDEN, rel=1e-12)
    assert quad5.c0 == pytest.approx(C0_GOLDEN, rel=1e-12)
    assert quad5.support_min == pytest.approx(INF_GOLDEN, rel=1e-12)


def test_quadratic_reproduces_breakdown_total(dense_params, quad5):
    rng = np.random.default_rng(3)
    for _ in range(200):
        r1 = 2000.0
        r = rng.uniform(0.0, 300.0)
        theta = rng.uniform(-0.5 * math.pi, 1.5 * math.pi)
        geom = Geometry(r1=r1, r=r, theta=theta,
                        r2=math.sqrt(r * r + r1 * r1 + 2 * r1 * r * math.cos(theta)))
        total = nncc_power_breakdown(geom, dense_params).total_nncc
        assert quad5.total_power(r, theta) == pytest.approx(total, rel=1e-9)


def test_power_roots_at_constant_term(quad5):
    roots = power_roots(quad5.c0, 2.5, quad5)  # cos(2.5) < 0
    assert roots is not None
    assert min(abs(roots.r_small), abs(roots.r_large)) <= 1e-9
    assert max(roots.r_small, roots.r_large) == pytest.approx(
        -quad5.b(2.5) / quad5.a, rel=1e-9)
    roots = power_roots(quad5.c0, 0.5, quad5)  # cos(0.5) > 0
    assert roots is not None
    assert roots.r_small == pytest.approx(-quad5.b(0.5) / quad5.a, rel=1e-9)
    assert abs(roots.r_large) <= 1e-9


def test_power_roots_residuals(quad5):
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(2000):
        p = quad5.support_min * rng.uniform(0.99, 6.0)
        theta = rng.uniform(-0.5 * math.pi, 1.5 * math.pi)
        roots = power_roots(p, theta, quad5)
        if roots is None:
            continue
        found += 1
        for root in (roots.r_small, roots.r_large):
            residual = quad5.a * root * root + quad5.b(theta) * root + quad5.c0 - p
            assert abs(residual) <= 1e-7 * max(p, quad5.c0)
        assert roots.r_small <= roots.r_large
    assert found > 100


def test_power_roots_none_below_vertex(quad5):
    assert power_roots(quad5.support_min * 0.999, math.pi, quad5) is None
    with pytest.raises(ValueError):
        power_roots(-1.0, 0.0, quad5)


def test_support_min_matches_grid_minimum(quad5):
    r = np.linspace(0.0, 50.0, 4001)[None, :]
    theta = np.linspace(-0.5 * math.pi, 1.5 * math.pi, 2001)[:, None]
    values = quad5.a * r * r + quad5.b_coeff * np.cos(theta) * r + quad5.c0
    assert quad5.support_min == pytest.approx(float(values.min()), rel=1e-6)
    assert quad5.support_min <= values.min()


def test_cdf_reference_basics(quad5, dense_params):
    rho = dense_params.rho
    assert cdf_reference(quad5.support_min * 0.5, quad5, rho) == 0.0
    assert cdf_reference(quad5.support_min, quad5, rho) == 0.0
    assert cdf_reference(quad5.support_min * (1 + 1e-12), quad5, rho) < 1e-6
    grid = np.geomspace(quad5.support_min, support_upper(quad5, rho), 60)
    values = [cdf_reference(p, quad5, rho) for p in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=2e-6)


def test_cdf_reference_at_branch_point_against_direct_quadrature(quad5, dense_params):
    """Independent oracle at p = c0: roots are {0, -b/a} for the admissible half."""
    rho = dense_params.rho

    def integrand(theta):
        r2 = -quad5.b(theta) / quad5.a
        return (1.0 - math.exp(-math.pi * rho * r2 * r2)) / (2.0 * math.pi)

    direct, _ = integrate.quad(integrand, 0.5 * math.pi, 1.5 * math.pi,
                               epsabs=1e-13, limit=200)
    assert cdf_reference(quad5.c0, quad5, rho) == pytest.approx(direct, abs=1e-9)


def test_cdf_reference_tolerance_stability(quad5, dense_params):
    rho = dense_params.rho
    grid = np.geomspace(quad5.support_min * 1.0000001,
                        support_upper(quad5, rho), 40)
    for p in grid:
        coarse = cdf_reference(p, quad5, rho, epsabs=1e-9)
        fine = cdf_reference(p, quad5, rho, epsabs=1e-11)
        assert abs(coarse - fine) < 1e-8


def test_cdf_batch_matches_scalar(quad5, dense_params):
    rho = dense_params.rho
    c0 = quad5.c0
    grid = np.unique(np.concatenate([
        np.geomspace(quad5.support_min * 1.0000001, c0, 25),
        c0 * (1.0 + np.geomspace(1e-12, 1e-2, 25)),
        np.geomspace(c0 * 1.01, support_upper(quad5, rho), 25),
    ]))
    scalar = np.array([cdf_reference(p, quad5, rho, epsabs=1e-12) for p in grid])
    batch = cdf_reference_batch(grid, quad5, rho)
    assert np.max(np.abs(batch - scalar)) < 5e-11


def _batch_probe_points(quad):
    """Points below the support, in Q1 and in Q2; neither branch a whole number of chunks."""
    c0 = quad.c0
    return np.concatenate([
        np.linspace(0.5 * quad.support_min, quad.support_min, 101),
        np.linspace(quad.support_min, c0, 20_001)[1:],
        c0 * (1.0 + np.geomspace(1e-12, 5.0, 25_000)),
    ])


def _batch_cdf_allocating(p_values, quad, rho, n_nodes=128, chunk=16384):
    """The batch CDF written with plain allocating expressions, same chunks."""
    out = np.zeros(p_values.shape)
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    k, a = quad.half_b_max, quad.a
    t = 0.25 * math.pi * (x + 1.0)
    wt = (0.25 * math.pi / math.pi) * w
    sin_t, cos_t = np.sin(t)[None, :], np.cos(t)[None, :]
    idx = np.flatnonzero((p_values > quad.support_min) & (p_values <= quad.c0))
    for start in range(0, idx.size, chunk):
        sel = idx[start:start + chunk]
        p = p_values[sel][:, None]
        m2 = np.clip(a * (quad.c0 - p) / (k * k), 0.0, 1.0)
        s = np.sqrt(1.0 - m2)
        sin_u = s * sin_t
        cos_u = np.sqrt(np.maximum(1.0 - sin_u * sin_u, m2))
        gap = (k / a) * s * cos_t
        mid = (k / a) * cos_u
        g = (np.exp(-math.pi * rho * np.square(mid - gap))
             - np.exp(-math.pi * rho * np.square(mid + gap)))
        out[sel] = (g * (s * cos_t) / cos_u) @ wt
    theta = 0.5 * math.pi * (x + 1.0)
    wth = (0.5 * math.pi / math.pi) * w
    half_b = k * np.cos(theta)[None, :]
    idx = np.flatnonzero(p_values > quad.c0)
    for start in range(0, idx.size, chunk):
        sel = idx[start:start + chunk]
        q = (p_values[sel] - quad.c0)[:, None]
        disc = np.sqrt(a * q + half_b * half_b) + np.abs(half_b)
        r_hi = np.where(half_b > 0.0, q / disc, disc / a)
        out[sel] = -np.expm1(-math.pi * rho * (r_hi * r_hi)) @ wth
    return out


def test_cdf_batch_in_place_kernel_matches_allocating_form_bitwise(quad5, dense_params):
    p = _batch_probe_points(quad5)
    fast = cdf_reference_batch(p, quad5, dense_params.rho)
    assert np.array_equal(fast, _batch_cdf_allocating(p, quad5, dense_params.rho))


def test_cdf_batch_bitwise_independent_of_workers(quad5, dense_params):
    rho = dense_params.rho
    p = _batch_probe_points(quad5)
    assert p.size % 16384 != 0
    serial = cdf_reference_batch(p, quad5, rho, workers=1)
    assert np.all(serial[:101] == 0.0) and np.all(serial[101:] > 0.0)
    # more threads than cores, with frequent thread switches
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 4):
            assert np.array_equal(cdf_reference_batch(p, quad5, rho, workers=workers),
                                  serial)
    finally:
        sys.setswitchinterval(interval)
    for p0 in (p[50], p[5000], p[-3]):
        one = cdf_reference_batch(np.float64(p0), quad5, rho, workers=1)
        two = cdf_reference_batch(np.float64(p0), quad5, rho, workers=2)
        assert isinstance(two, float) and two == one


def test_branch_form_matches_reference_below_c0(quad5, dense_params):
    rho = dense_params.rho
    for p in np.linspace(quad5.support_min, quad5.c0, 20)[1:]:
        assert cdf_branch_form(p, quad5, rho) == pytest.approx(
            cdf_reference(p, quad5, rho), abs=1e-12)


def test_branch_form_carries_constant_offset_above_c0(quad5, dense_params):
    """The upper branch exceeds the reference by exactly the boundary term."""
    rho = dense_params.rho
    boundary = cdf_reference(quad5.c0, quad5, rho)
    assert boundary > 0.0
    for p in np.geomspace(quad5.c0 * 1.0001, support_upper(quad5, rho), 12):
        gap = cdf_branch_form(p, quad5, rho) - cdf_reference(p, quad5, rho)
        assert gap == pytest.approx(boundary, abs=1e-9)
    # consequence: the branch form overshoots 1 in the far tail
    assert cdf_branch_form(support_upper(quad5, rho, 1e-9), quad5, rho) > 1.0


def test_pdf_nonnegative_on_grid(quad5, dense_params):
    rho = dense_params.rho
    grid = np.geomspace(quad5.support_min, support_upper(quad5, rho), 200)
    values = np.array([pdf_branch_form(p, quad5, rho) for p in grid])
    assert np.all(values >= 0.0)


def test_pdf_integrates_to_one(quad5, dense_params):
    rho = dense_params.rho
    hi = support_upper(quad5, rho, tail=1e-9)
    q1, _ = integrate.quad(lambda p: pdf_branch_form(p, quad5, rho),
                           quad5.support_min, quad5.c0, limit=300)
    q2, _ = integrate.quad(lambda p: pdf_branch_form(p, quad5, rho),
                           quad5.c0, hi, limit=300)
    assert q1 + q2 == pytest.approx(1.0, abs=1e-3)
    assert q1 + q2 == pytest.approx(1.0, abs=1e-6)  # much tighter in practice


def test_pdf_continuous_at_branch_junction(quad5, dense_params):
    rho = dense_params.rho
    below = pdf_branch_form(quad5.c0 * (1.0 - 1e-9), quad5, rho)
    above = pdf_branch_form(quad5.c0 * (1.0 + 1e-9), quad5, rho)
    assert above == pytest.approx(below, rel=1e-6)


def test_pdf_matches_cdf_finite_differences(quad5, dense_params):
    """Central differences of the reference CDF against the density, 1e-4 abs."""
    rho = dense_params.rho
    hi = support_upper(quad5, rho)
    span = hi - quad5.c0
    points = quad5.c0 + span * np.linspace(0.02, 0.9, 50)
    h = span * 2e-5
    for p in points:
        fd = (cdf_reference(p + h, quad5, rho, epsabs=1e-12)
              - cdf_reference(p - h, quad5, rho, epsabs=1e-12)) / (2.0 * h)
        assert abs(fd - pdf_branch_form(p, quad5, rho)) < 1e-4


def test_expected_power_closed_form_golden(quad5, dense_params):
    assert expected_power(quad5, dense_params.rho) == pytest.approx(EP_GOLDEN, rel=1e-12)


@pytest.mark.parametrize("rho,r1", [
    (1e-5, 3000.0), (1e-4, 2000.0), (1e-3, 1000.0), (3e-3, 500.0), (1e-2, 150.0),
])
def test_expected_power_triple_agreement(dense_params, rho, r1):
    params = dense_params.replace_raw(rho=rho)
    quad = PowerQuadratic.from_params(params, r1)
    closed = expected_power(quad, rho)
    by_quad = expected_power_quadrature(quad, rho)
    assert by_quad == pytest.approx(closed, rel=1e-9)
    report = sample_power_distribution(1_000_000, rho, r1, params, RandomStream(31))
    assert abs(report.mean_energy - closed) < 3.0 * report.energy_stderr


def test_expected_power_dense_limit(quad5):
    """As density grows the neighbor collapses onto the handset: mean -> c0."""
    for rho in (1e-2, 1.0, 1e2):
        assert expected_power(quad5, rho) == pytest.approx(
            quad5.c0 + quad5.a / (math.pi * rho), rel=1e-15)
    assert expected_power(quad5, 1e6) == pytest.approx(quad5.c0, rel=1e-6)


def test_energy_efficiency_not_proportional_to_rate(params):
    quad_r = PowerQuadratic.from_params(params, 2000.0)
    ee_r = energy_efficiency(expected_power(quad_r, params.rho), params.rate)
    params2 = params.replace_raw(rate=2.0 * params.rate)
    quad_2r = PowerQuadratic.from_params(params2, 2000.0)
    ee_2r = energy_efficiency(expected_power(quad_2r, params2.rho), params2.rate)
    assert ee_2r != pytest.approx(2.0 * ee_r, rel=1e-3)


def test_energy_efficiency_dense_limit(quad5, dense_params):
    ee_inf = energy_efficiency(quad5.c0, dense_params.rate)
    assert ee_inf == pytest.approx(2.0 * dense_params.rate / quad5.c0, rel=1e-15)
    assert energy_efficiency(expected_power(quad5, 1e8), dense_params.rate) == \
        pytest.approx(ee_inf, rel=1e-4)
    with pytest.raises(ValueError):
        energy_efficiency(0.0, 1e5)


def test_cooperation_more_efficient_in_figure_regime(params):
    for r1 in np.linspace(500.0, 3000.0, 11):
        quad = PowerQuadratic.from_params(params, r1)
        ee_nncc = energy_efficiency(expected_power(quad, params.rho), params.rate)
        ee_conv = energy_efficiency(expected_power_conventional(params, r1), params.rate)
        assert ee_nncc > ee_conv


def test_expected_power_conventional_moment_form(params):
    t = OutageTargets.for_target(params.p_out_target)
    eta_c = cellular_coeff(params, t.p_out_c)
    r1 = 1200.0
    expected = eta_c * (2.0 * r1 * r1 + 1.0 / (math.pi * params.rho))
    assert expected_power_conventional(params, r1) == pytest.approx(expected, rel=1e-15)


def test_evaluate_distribution_grid(dense_params):
    result = evaluate_distribution(dense_params, 2000.0, n_grid=64)
    assert result.p_grid.shape == (64,)
    assert result.p_grid[0] == pytest.approx(INF_GOLDEN, rel=1e-12)
    assert np.all(np.diff(result.cdf_reference) >= -1e-12)
    assert result.cdf_reference[-1] == pytest.approx(1.0, abs=2e-6)
    assert result.expected_power == pytest.approx(EP_GOLDEN, rel=1e-12)
    assert np.all(result.pdf_branch >= 0.0)
    # the branch-form CDF ends above 1 by exactly the boundary term
    quad = PowerQuadratic.from_params(dense_params, 2000.0)
    boundary = cdf_reference(quad.c0, quad, dense_params.rho)
    assert result.cdf_branch[-1] - result.cdf_reference[-1] == pytest.approx(
        boundary, abs=1e-9)


def test_quad_helper_raises_on_divergence():
    with pytest.raises(IntegrationError):
        _quad(lambda x: 1.0 / x, 0.0, 1.0, epsabs=1e-12)
