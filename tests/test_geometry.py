import math

import numpy as np
import pytest
from scipy import integrate, stats

from model_helpers import nn_distance, nn_distance_cdf, nn_distance_pdf
from nncc import (
    Geometry,
    ParameterError,
    partner_distance_to_bs,
    sample_nn_geometries,
)
from nncc.montecarlo import RandomStream


def test_pdf_vanishes_at_origin():
    assert nn_distance_pdf(0.0, 1e-4) == 0.0


def test_pdf_rejects_negative_distance():
    with pytest.raises(ValueError):
        nn_distance_pdf(-1.0, 1e-4)
    with pytest.raises(ValueError):
        nn_distance_pdf(1.0, 0.0)


@pytest.mark.parametrize("rho", [1e-5, 1e-4, 1e-3])
def test_pdf_normalizes(rho):
    scale = 1.0 / math.sqrt(math.pi * rho)
    total, _ = integrate.quad(lambda r: nn_distance_pdf(r, rho), 0.0, 50.0 * scale,
                              epsabs=1e-12, epsrel=1e-12, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pdf_mode_matches_analytic_and_grid():
    rho = 1e-4
    analytic = 1.0 / math.sqrt(2.0 * math.pi * rho)
    assert analytic == pytest.approx(39.894228040143268, rel=1e-12, abs=0)
    grid = np.linspace(30.0, 50.0, 200001)
    assert grid[np.argmax(nn_distance_pdf(grid, rho))] == pytest.approx(analytic, abs=1e-3)


def test_partner_distance_special_cases():
    assert partner_distance_to_bs(100.0, 0.0, 1.234) == 100.0
    assert partner_distance_to_bs(100.0, 20.0, 0.0) == pytest.approx(120.0, rel=1e-14, abs=0)
    assert partner_distance_to_bs(100.0, 20.0, math.pi) == pytest.approx(80.0, rel=1e-12,
                                                                         abs=0)


def test_partner_distance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        partner_distance_to_bs(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        partner_distance_to_bs(1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        partner_distance_to_bs(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 0.0)
    with pytest.raises(ValueError):
        Geometry(r1=0.0, r=1.0, theta=0.0)
    with pytest.raises(ValueError):
        Geometry(r1=1.0, r=-1.0, theta=0.0)


@pytest.mark.parametrize("r1,r,field", [(2000.0, 1e200, "r"), (1e10, 1e300, "r"),
                                        (1e200, 20.0, "r1")])
def test_partner_distance_overflow_names_the_larger_distance(r1, r, field):
    """A squared distance beyond the float range (inf, or inf - inf = nan on
    the BS side) is refused without numpy's warning."""
    for theta in (0.0, math.pi):
        with pytest.raises(ParameterError) as err:
            partner_distance_to_bs(r1, r, theta)
        assert err.value.field == field
    with pytest.raises(ParameterError):
        partner_distance_to_bs(np.array([2000.0, r1]), np.array([20.0, r]), math.pi)


def test_partner_distance_scalar_and_array_agree():
    area, theta = sample_nn_geometries(RandomStream(6).block(0), 500)
    r = nn_distance(area, 1e-4)
    r2 = partner_distance_to_bs(800.0, r, theta)
    assert r2.shape == (500,)
    for i in range(0, 500, 25):
        one = partner_distance_to_bs(800.0, float(r[i]), float(theta[i]))
        assert isinstance(one, float) and one == r2[i]
        assert Geometry(r1=800.0, r=float(r[i]), theta=float(theta[i])).r2 == one
    # the neighbor on the BS: rounding may not take the squared distance below 0
    assert partner_distance_to_bs(np.full(3, 0.1), np.full(3, 0.1), math.pi) == \
        pytest.approx(np.zeros(3), abs=1e-9)


def test_sampled_geometry_satisfies_identities():
    area, theta = sample_nn_geometries(RandomStream(5).block(0), 2000)
    r = nn_distance(area, 1e-4)
    for g in (Geometry(r1=800.0, r=float(ri), theta=float(ti)) for ri, ti in zip(r, theta)):
        lhs = g.r2 * g.r2
        rhs = g.r * g.r + g.r1 * g.r1 + 2.0 * g.r1 * g.r * math.cos(g.theta)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=0)
        assert abs(g.r1 - g.r) - 1e-9 <= g.r2 <= g.r1 + g.r + 1e-9
        assert -0.5 * math.pi <= g.theta < 1.5 * math.pi
        assert g.r >= 0.0


def test_sampling_reproducible():
    area_a, th_a = sample_nn_geometries(RandomStream(9, 3).block(0), 64)
    area_b, th_b = sample_nn_geometries(RandomStream(9, 3).block(0), 64)
    assert np.array_equal(area_a, area_b) and np.array_equal(th_a, th_b)
    g_a = Geometry(r1=500.0, r=nn_distance(float(area_a[0]), 1e-4), theta=float(th_a[0]))
    assert g_a == Geometry(r1=500.0, r=nn_distance(float(area_b[0]), 1e-4),
                           theta=float(th_b[0]))


@pytest.mark.parametrize("rho", [1e-7, 1e-4, 1.0])
def test_density_free_draw_gives_the_distances_at_any_density(rho):
    """The areas give the inverse-CDF distances at any density: all areas are
    drawn first, then all bearings, from one uniform each."""
    rng = RandomStream(14).block(0)
    u, v = rng.random(1000), rng.random(1000)
    area, theta = sample_nn_geometries(RandomStream(14).block(0), 1000)
    assert np.array_equal(theta, -0.5 * math.pi + 2.0 * math.pi * v)
    assert np.array_equal(area, -np.log1p(-u))
    r = np.sqrt(-np.log1p(-u) / (math.pi * rho))
    assert np.array_equal(nn_distance(area, rho), r)
    assert nn_distance(float(area[0]), rho) == r[0]


def test_empirical_mean_distance():
    rho = 1e-4
    r = nn_distance(sample_nn_geometries(RandomStream(11).block(0), 1_000_000)[0], rho)
    assert np.mean(r) == pytest.approx(50.0, rel=5e-3, abs=0)


def test_empirical_distance_cdf_ks():
    rho = 1e-4
    n = 1_000_000
    r = nn_distance(sample_nn_geometries(RandomStream(12).block(0), n)[0], rho)
    r.sort()
    f = nn_distance_cdf(r, rho)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - f), np.max(f - (i - 1) / n))
    assert ks < 0.002
    assert ks < 1.36 / math.sqrt(n) * 1.5


def test_bearing_uniform_chi_square():
    _, theta = sample_nn_geometries(RandomStream(13).block(0), 1_000_000)
    counts, _ = np.histogram(theta, bins=64, range=(-0.5 * math.pi, 1.5 * math.pi))
    assert stats.chisquare(counts).pvalue > 0.01


def mean_nn_distance(rho):
    """Mean nearest-neighbor distance by adaptive quadrature of the density."""
    scale = 1.0 / math.sqrt(math.pi * rho)
    val, _ = integrate.quad(lambda r: r * nn_distance_pdf(r, rho), 0.0, 40.0 * scale,
                            epsabs=0.0, epsrel=1e-12, limit=200)
    return val


@pytest.mark.parametrize("rho,expected", [(1e-4, 50.0), (1e-2, 5.0)])
def test_mean_nn_distance_closed_form(rho, expected):
    """The density's first moment is the closed form 1/(2*sqrt(rho))."""
    assert mean_nn_distance(rho) == pytest.approx(expected, rel=1e-9, abs=0)


def test_mean_nn_distance_self_consistency():
    rho = 1.0 / (4.0 * math.pi)
    assert mean_nn_distance(rho) == pytest.approx(0.5 / math.sqrt(rho), rel=1e-9, abs=0)
