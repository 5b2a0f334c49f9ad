import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from cdf_oracle import branch_form_cdf, cdf_oracle, pdf_oracle, quantile_oracle
from nncc import (
    IntegrationError,
    PowerQuadratic,
    cdf_reference_batch,
    energy_efficiency,
    expected_power,
    expected_power_conventional,
    expected_power_quadrature,
    pdf_branch_form,
    support_upper,
)
from nncc import (Geometry, Link, OutageTargets, ParameterError, SystemParams,
                  nncc_power_breakdown, partner_distance_to_bs, sample_nn_geometries,
                  validate)
from nncc import distribution
from nncc.distribution import _cdf_and_error, _quad
from nncc.montecarlo import RandomStream, sample_power_distribution

ROOT = Path(__file__).resolve().parent.parent

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
        geom = Geometry(r1=r1, r=r, theta=theta)
        total = nncc_power_breakdown(geom, dense_params).total
        total_power = quad5.a * r * r + quad5.b_coeff * np.cos(theta) * r + quad5.c0
        assert total_power == pytest.approx(total, rel=1e-9)


def _kernel_inputs(monkeypatch, p, quad, rho):
    """(v, sinh(v)^2, beta) the CDF kernel receives for the one point p, or None.

    beta = -pi*rho*(d/a)^2 (c in place of d above c0), so the engine's roots
    (d/a)*exp(-+w) scale with sqrt(-beta/(pi*rho)).
    """
    seen = []
    kernel = distribution._cdf_integrand

    def recording(v, s2, beta, *rest):
        seen.append((float(v[0, 0]), float(s2[0, 0]), float(beta[0, 0])))
        return kernel(v, s2, beta, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(distribution, "_cdf_integrand", recording)
        cdf_reference_batch(p, quad, rho)
    return seen[0] if seen else None


def _engine_roots(beta, quad, rho, upper, w):
    """The roots at w, and the half_b = k*cos(theta) they solve P(r, theta) = p for.

    Above c0 half_b = c*sinh(w) and the root is (c/a)*exp(-w); below,
    -half_b = d*cosh(w) and the roots are (d/a)*exp(-w) and (d/a)*exp(w).
    """
    scale = math.sqrt(-beta / (math.pi * rho))
    if upper:
        return quad.a * scale * np.sinh(w), [scale * np.exp(-w)]
    return -quad.a * scale * np.cosh(w), [scale * np.exp(-w), scale * np.exp(w)]


def test_power_roots_at_constant_term(quad5, dense_params, monkeypatch):
    """At p = c0 the roots are 0 and -b(theta)/a, on both sides of the split."""
    rho, k, a = dense_params.rho, quad5.half_b_max, quad5.a
    above = float(np.nextafter(quad5.c0, np.inf))
    _, _, beta = _kernel_inputs(monkeypatch, above, quad5, rho)
    c = a * math.sqrt(-beta / (math.pi * rho))
    for theta in (2.5, 0.5):  # cos < 0: root -b/a; cos > 0: root 0
        _, (root,) = _engine_roots(beta, quad5, rho, True,
                                   math.asinh(k * math.cos(theta) / c))
        if theta > 0.5 * math.pi:
            assert root == pytest.approx(-quad5.b(theta) / a, rel=1e-9)
        else:
            assert root <= 1e-9 * k / a
    # at p = c0 itself (below the split) only bearings with cos < 0 have roots
    _, _, beta = _kernel_inputs(monkeypatch, quad5.c0, quad5, rho)
    d = a * math.sqrt(-beta / (math.pi * rho))
    theta = np.linspace(0.55 * math.pi, 1.45 * math.pi, 9)
    w = np.arccosh(-k * np.cos(theta) / d)
    _, (r_lo, r_hi) = _engine_roots(beta, quad5, rho, False, w)
    assert np.max(r_lo) <= 1e-9 * np.max(r_hi)
    assert np.allclose(r_hi, -quad5.b_coeff * np.cos(theta) / a, rtol=1e-9)


def test_power_roots_residuals(quad5, dense_params, monkeypatch):
    """The engine's exponential roots solve the level-p equation, and w in
    [-v, v] (above c0) or [0, v] (below) spans the bearings from cos = +-1."""
    rho, k = dense_params.rho, quad5.half_b_max
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(400):
        p = quad5.support_min * rng.uniform(0.99, 6.0)
        if p <= quad5.support_min:
            continue
        upper = p > quad5.c0
        v, _, beta = _kernel_inputs(monkeypatch, p, quad5, rho)
        half_b, _ = _engine_roots(beta, quad5, rho, upper, v)
        assert abs(half_b) == pytest.approx(k, rel=1e-12)  # |cos(theta)| = 1
        for w in rng.uniform(-v if upper else 0.0, v, 5):
            half_b, roots = _engine_roots(beta, quad5, rho, upper, w)
            assert abs(half_b) <= k * (1.0 + 1e-12)
            for root in roots:
                residual = quad5.a * root * root + 2.0 * half_b * root + quad5.c0 - p
                assert abs(residual) <= 1e-12 * max(p, quad5.c0)
                assert root > 0.0
        found += 1
    assert found > 100


def test_power_roots_none_below_vertex(quad5, dense_params, monkeypatch):
    """Below the support no bearing has real roots: the lower branch degenerates."""
    rho = dense_params.rho
    below, above = quad5.support_min * 0.999, quad5.support_min * 1.001
    # half_b^2 - a*(c0 - p) < 0 at every bearing, and the engine integrates nothing
    assert quad5.half_b_max ** 2 < quad5.a * (quad5.c0 - below)
    assert _kernel_inputs(monkeypatch, below, quad5, rho) is None
    v, s2, _ = _kernel_inputs(monkeypatch, above, quad5, rho)
    assert v > 0.0 and s2 > 0.0
    assert cdf_reference_batch(below, quad5, rho) == 0.0
    assert pdf_branch_form(below, quad5, rho) == 0.0


def test_support_min_matches_grid_minimum(quad5):
    r = np.linspace(0.0, 50.0, 4001)[None, :]
    theta = np.linspace(-0.5 * math.pi, 1.5 * math.pi, 2001)[:, None]
    values = quad5.a * r * r + quad5.b_coeff * np.cos(theta) * r + quad5.c0
    assert quad5.support_min == pytest.approx(float(values.min()), rel=1e-6)
    assert quad5.support_min <= values.min()


def test_cdf_reference_basics(quad5, dense_params):
    rho = dense_params.rho
    assert cdf_reference_batch(quad5.support_min * 0.5, quad5, rho) == 0.0
    assert cdf_reference_batch(quad5.support_min, quad5, rho) == 0.0
    assert cdf_reference_batch(quad5.support_min * (1 + 1e-12), quad5, rho) < 1e-6
    grid = np.geomspace(quad5.support_min, support_upper(quad5, rho), 60)
    values = cdf_reference_batch(grid, quad5, rho)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) >= -1e-12)
    assert values[-1] == pytest.approx(1.0, abs=2e-6)


def test_cdf_reference_at_branch_point_against_direct_quadrature(quad5, dense_params):
    """Independent oracle at p = c0: roots are {0, -b/a} for the admissible half."""
    rho = dense_params.rho

    def integrand(theta):
        r2 = -quad5.b(theta) / quad5.a
        return (1.0 - math.exp(-math.pi * rho * r2 * r2)) / (2.0 * math.pi)

    direct, _ = integrate.quad(integrand, 0.5 * math.pi, 1.5 * math.pi,
                               epsabs=1e-13, limit=200)
    assert cdf_reference_batch(quad5.c0, quad5, rho) == pytest.approx(direct, abs=1e-9)


def test_cdf_reference_tolerance_stability(quad5, dense_params):
    """The starting rule does not move a value by more than the tolerance allows."""
    rho = dense_params.rho
    grid = np.geomspace(quad5.support_min * 1.0000001,
                        support_upper(quad5, rho), 40)
    coarse = cdf_reference_batch(grid, quad5, rho, n_nodes=2)
    fine = cdf_reference_batch(grid, quad5, rho, n_nodes=64)
    assert np.max(np.abs(coarse - fine)) < 1e-8


def test_cdf_batch_matches_scalar(quad5, dense_params):
    rho = dense_params.rho
    c0 = quad5.c0
    grid = np.unique(np.concatenate([
        np.geomspace(quad5.support_min * 1.0000001, c0, 25),
        c0 * (1.0 + np.geomspace(1e-12, 1e-2, 25)),
        np.geomspace(c0 * 1.01, support_upper(quad5, rho), 25),
    ]))
    scalar = np.array([cdf_oracle(p, quad5, rho) for p in grid])
    batch = cdf_reference_batch(grid, quad5, rho)
    assert np.max(np.abs(batch - scalar)) < 5e-11


def _probe_point(quad, rho, where, x):
    """An abscissa of the hypothesis tests, x in [0, 1] placing it within ``where``."""
    if where == "c0":  # within 1e-12 (relative) on either side
        return quad.c0 * (1.0 + (2.0 * x - 1.0) * 1e-12)
    if where == "junction":  # within 1e-9, where the report takes one-sided limits
        return quad.c0 * (1.0 + (2.0 * x - 1.0) * 1e-9)
    if where == "support_min":
        return quad.support_min * (1.0 + x * 1e-12)
    if where == "below":
        return quad.support_min + x * (quad.c0 - quad.support_min)
    # the upper branch spreads over the mean excess a/(pi*rho)
    return quad.c0 + quad.a / (math.pi * rho) * 10.0 ** (13.5 * x - 12.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rho=st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e),
       r1=st.floats(math.log10(50.0), 5.0).map(lambda e: 10.0 ** e),
       where=st.sampled_from(("c0", "support_min", "below", "above")),
       x=st.floats(0.0, 1.0))
# dense, far regimes just above c0, where a fixed 128-node Gauss-Legendre rule
# in the bearing was off by 2.4e-3 and 1.6e-4
@example(rho=0.1, r1=20_000.0, where="c0", x=1.0)
@example(rho=1.0, r1=100_000.0, where="c0", x=1.0)
def test_cdf_within_tolerance_of_oracle(rho, r1, where, x):
    """Each value is within 1e-10 of the oracle, and within its own error estimate."""
    quad = PowerQuadratic.from_params(validate(SystemParams(rho=rho)), r1)
    p = _probe_point(quad, rho, where, x)
    value, estimate = (float(v) for v in _cdf_and_error(p, quad, rho))
    gap = abs(value - cdf_oracle(p, quad, rho))
    assert gap <= 1e-10
    assert gap <= estimate + 1e-12  # the slack covers the oracle's own error


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rho=st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e),
       r1=st.floats(math.log10(50.0), 5.0).map(lambda e: 10.0 ** e),
       where=st.sampled_from(("c0", "junction", "support_min", "below", "above")),
       x=st.floats(0.0, 1.0))
# rho 1, r1 100 km, where the density is 70022.56 on both sides of c0: an
# adaptive rule in the bearing gave 1397.5 at c0 (1 + 1e-12) and 39988 at
# c0 (1 + 1e-9)
@example(rho=1.0, r1=100_000.0, where="c0", x=1.0)
@example(rho=1.0, r1=100_000.0, where="c0", x=0.0)
@example(rho=1.0, r1=100_000.0, where="junction", x=1.0)
def test_pdf_within_tolerance_of_oracle(rho, r1, where, x):
    """Each density value is within 1e-9 (relative) of the adaptive oracle."""
    quad = PowerQuadratic.from_params(validate(SystemParams(rho=rho)), r1)
    p = _probe_point(quad, rho, where, x)
    oracle = pdf_oracle(p, quad, rho)
    # near the subnormal range neither method keeps relative digits; the
    # engine's floor there is the smallest normal float times pi*rho/a < 1e-299
    assert abs(pdf_branch_form(p, quad, rho) - oracle) <= 1e-9 * oracle + 1e-290


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rho=st.floats(-7.0, 0.0).map(lambda e: 10.0 ** e),
       r1=st.floats(math.log10(50.0), 5.0).map(lambda e: 10.0 ** e),
       tail=st.floats(-9.0, -6.0).map(lambda e: 10.0 ** e),
       bad_tail=st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0),
                          st.just(math.nan)),
       bad_rho=st.floats(max_value=0.0))
def test_support_upper_bounds_the_tail(rho, r1, tail, bad_tail, bad_rho):
    """At most ``tail`` lies above the closed form, which is near the quantile."""
    quad = PowerQuadratic.from_params(validate(SystemParams(rho=rho)), r1)
    bound = support_upper(quad, rho, tail)
    assert cdf_reference_batch(bound, quad, rho) >= 1.0 - tail - 1e-10
    assert bound - quad.c0 <= 1.25 * (quantile_oracle(quad, rho, tail) - quad.c0)
    with pytest.raises(ValueError, match="tail must lie in"):
        support_upper(quad, rho, bad_tail)
    with pytest.raises(ValueError, match="rho must be"):
        support_upper(quad, bad_rho, tail)


def test_pdf_array_matches_pointwise(quad5, dense_params):
    """A 0-d input gives a float; an array gives its shape and the pointwise bits."""
    rho = dense_params.rho
    p = np.array([[0.5 * quad5.support_min, quad5.support_min],
                  [0.5 * (quad5.support_min + quad5.c0), quad5.c0],
                  [quad5.c0 * (1.0 + 1e-9), 2.0 * quad5.c0]])
    values = pdf_branch_form(p, quad5, rho)
    assert values.shape == p.shape
    pointwise = [pdf_branch_form(x, quad5, rho) for x in p.ravel()]
    assert all(isinstance(x, float) for x in pointwise)
    assert np.array_equal(values.ravel(), pointwise)
    assert np.all(values[0] == 0.0) and np.all(values[1:] > 0.0)


def test_pdf_raises_integration_error_past_the_cap(monkeypatch):
    rho = 1.0
    quad = PowerQuadratic.from_params(validate(SystemParams(rho=rho)), 100_000.0)
    p = quad.c0 * (1.0 + 1e-12)
    monkeypatch.setattr(distribution, "_MAX_NODES", 8)
    with pytest.raises(IntegrationError) as err:
        pdf_branch_form(np.array([0.5 * quad.c0, p]), quad, rho)
    assert str(err.value).startswith("density at p = ")
    assert "rho = 1.0" in str(err.value) and "of the value" in str(err.value)


def test_cdf_raises_integration_error_past_the_cap(monkeypatch):
    rho = 1.0
    quad = PowerQuadratic.from_params(validate(SystemParams(rho=rho)), 100_000.0)
    p = quad.c0 * (1.0 + 1e-12)  # takes 128 intervals on [0, pi/2]
    monkeypatch.setattr(distribution, "_MAX_NODES", 32)
    with pytest.raises(IntegrationError) as err:
        cdf_reference_batch(np.array([0.5 * quad.c0, 2.0 * quad.c0, p]), quad, rho,
                            workers=2)
    assert f"p = {p!r}" in str(err.value) and "rho = 1.0" in str(err.value)
    monkeypatch.undo()
    value, estimate = _cdf_and_error(p, quad, rho)
    assert estimate <= 1e-10


@pytest.mark.parametrize("cells", [4096 * 128, 1000])
def test_cdf_temporaries_stay_within_cells(monkeypatch, cells):
    """Points that need many nodes are taken in fewer rows at a time, same bits."""
    rho = 1.0
    quad = PowerQuadratic.from_params(validate(SystemParams(rho=rho)), 100_000.0)
    p = quad.c0 * (1.0 + np.linspace(-1e-12, 1e-12, 5000))
    default = cdf_reference_batch(p, quad, rho)
    sizes = []
    kernel = distribution._cdf_integrand

    def recording(v, s2, beta, cos_phi, sin_phi, upper):
        sizes.append((v.shape[0], cos_phi.size))
        return kernel(v, s2, beta, cos_phi, sin_phi, upper)

    monkeypatch.setattr(distribution, "_cdf_integrand", recording)
    monkeypatch.setattr(distribution, "_CELLS", cells)
    assert np.array_equal(cdf_reference_batch(p, quad, rho), default)
    assert max(cols for _, cols in sizes) >= 64
    assert max(rows * cols for rows, cols in sizes) <= cells


def _batch_probe_points(quad):
    """Points below the support, in Q1 and in Q2; neither branch a whole number of chunks."""
    c0 = quad.c0
    return np.concatenate([
        np.linspace(0.5 * quad.support_min, quad.support_min, 101),
        np.linspace(quad.support_min, c0, 20_001)[1:],
        c0 * (1.0 + np.geomspace(1e-12, 5.0, 25_000)),
    ])


def test_cdf_batch_bitwise_independent_of_workers(quad5, dense_params):
    rho = dense_params.rho
    p = _batch_probe_points(quad5)
    assert p.size % distribution._CHUNK != 0
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


@pytest.mark.parametrize("chunk", [1000, 16384])
def test_cdf_batch_bitwise_independent_of_chunk(quad5, dense_params, monkeypatch, chunk):
    rho = dense_params.rho
    p = _batch_probe_points(quad5)
    default = cdf_reference_batch(p, quad5, rho, workers=2)
    monkeypatch.setattr(distribution, "_CHUNK", chunk)
    assert np.array_equal(cdf_reference_batch(p, quad5, rho, workers=2), default)


def _small_validate_cdf():
    """Batch CDF at the KS sample of ``validate --seed 7 --trials 10000``."""
    params = validate(SystemParams())
    quad = PowerQuadratic.from_params(params, 2000.0)
    samples = sample_power_distribution(10_000, params.rho, 2000.0, params,
                                        RandomStream(7, stream_id=101)).power_samples
    return cdf_reference_batch(samples, quad, params.rho)


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


def test_branch_form_matches_reference_below_c0(quad5, dense_params):
    rho = dense_params.rho
    grid = np.linspace(quad5.support_min, quad5.c0, 20)[1:]
    for p, value in zip(grid, cdf_reference_batch(grid, quad5, rho)):
        assert branch_form_cdf(p, quad5, rho) == pytest.approx(value, abs=1e-10)


def test_branch_form_carries_constant_offset_above_c0(quad5, dense_params):
    """The upper branch exceeds the reference by exactly the boundary term."""
    rho = dense_params.rho
    boundary = cdf_reference_batch(quad5.c0, quad5, rho)
    assert boundary > 0.0
    grid = np.geomspace(quad5.c0 * 1.0001, support_upper(quad5, rho), 12)
    for p, value in zip(grid, cdf_reference_batch(grid, quad5, rho)):
        assert branch_form_cdf(p, quad5, rho) - value == pytest.approx(boundary, abs=1e-9)
    # consequence: the branch form overshoots 1 in the far tail
    assert branch_form_cdf(support_upper(quad5, rho, 1e-9), quad5, rho) > 1.0


def test_branch_form_is_reference_plus_boundary_term_bitwise(quad5, dense_params):
    """The branch form as the report builds it, from one grid call and one at c0,
    is bitwise the sum of one-point calls, and within 1e-10 of the stated form."""
    rho = dense_params.rho
    grid = np.geomspace(quad5.support_min, support_upper(quad5, rho), 192)
    boundary = cdf_reference_batch(quad5.c0, quad5, rho)
    from_grid = cdf_reference_batch(grid, quad5, rho) + boundary * (grid > quad5.c0)
    pointwise = [cdf_reference_batch(p, quad5, rho) + (boundary if p > quad5.c0 else 0.0)
                 for p in grid]
    assert np.array_equal(from_grid, pointwise)
    stated = np.array([branch_form_cdf(p, quad5, rho) for p in grid])
    assert np.max(np.abs(from_grid - stated)) <= 1e-10
    assert np.count_nonzero(grid > quad5.c0) > 100


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
    slopes = (cdf_reference_batch(points + h, quad5, rho)
              - cdf_reference_batch(points - h, quad5, rho)) / (2.0 * h)
    for p, fd in zip(points, slopes):
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
    eta_c = Link.cellular(params, 1).coeff(t.p_out_c)
    r1 = 1200.0
    expected = eta_c * (2.0 * r1 * r1 + 1.0 / (math.pi * params.rho))
    assert expected_power_conventional(params, r1) == pytest.approx(expected, rel=1e-15)


def test_expected_power_conventional_unequal_gains():
    """Handset 2 pays its own coefficient on the random distance r2."""
    params = validate(SystemParams(g_u2_db=-3.0))
    p_c = OutageTargets.for_target(params.p_out_target).p_out_c
    eta1 = Link.cellular(params, 1).coeff(p_c)
    eta2 = Link.cellular(params, 2).coeff(p_c)
    r1 = 1200.0
    closed = expected_power_conventional(params, r1)
    assert closed == pytest.approx(
        eta1 * r1 * r1 + eta2 * (r1 * r1 + 1.0 / (math.pi * params.rho)), rel=1e-12)
    r, theta = sample_nn_geometries(RandomStream(31).generator(), params.rho, r1, 1_000_000)
    r2 = partner_distance_to_bs(r1, r, theta)
    totals = eta1 * r1 * r1 + eta2 * r2 * r2
    stderr = np.std(totals, ddof=1) / math.sqrt(totals.size)
    assert abs(np.mean(totals) - closed) < 3.0 * stderr


def test_evaluate_distribution_grid(dense_params):
    rho = dense_params.rho
    quad = PowerQuadratic.from_params(dense_params, 2000.0)
    grid = np.geomspace(quad.support_min, support_upper(quad, rho), 64)
    cdf_ref = cdf_reference_batch(grid, quad, rho)
    cdf_branch = np.array([branch_form_cdf(p, quad, rho) for p in grid])
    pdf_branch = np.array([pdf_branch_form(p, quad, rho) for p in grid])
    assert grid[0] == pytest.approx(INF_GOLDEN, rel=1e-12)
    assert np.all(np.diff(cdf_ref) >= -1e-12)
    assert cdf_ref[-1] == pytest.approx(1.0, abs=2e-6)
    assert expected_power(quad, rho) == pytest.approx(EP_GOLDEN, rel=1e-12)
    assert np.all(pdf_branch >= 0.0)
    # the branch-form CDF ends above 1 by exactly the boundary term
    boundary = cdf_reference_batch(quad.c0, quad, rho)
    assert cdf_branch[-1] - cdf_ref[-1] == pytest.approx(boundary, abs=1e-9)


def test_quadratic_rejects_coefficients_whose_square_overflows(dense_params):
    with pytest.raises(ParameterError) as err:
        PowerQuadratic.from_params(dense_params, 1e160)
    assert err.value.field == "rate" and "c0" in str(err.value)
    huge = validate(SystemParams(rate=2e9))
    with pytest.raises(ParameterError, match="coefficient a "):
        PowerQuadratic.from_params(huge, 2000.0)
    # array distances are checked element-wise
    with pytest.raises(ParameterError), np.errstate(over="ignore"):
        PowerQuadratic.from_params(dense_params, np.array([2000.0, 1e160]))


def test_quad_helper_raises_on_divergence():
    with pytest.raises(IntegrationError):
        _quad(lambda x: 1.0 / x, 0.0, 1.0, epsabs=1e-12)
