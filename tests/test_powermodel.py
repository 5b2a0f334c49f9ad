import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from model_helpers import cooperative_quadratic, link_capacity, received_snr
from nncc import (
    Geometry,
    Link,
    OutageTargets,
    ParameterError,
    SystemParams,
    conventional_coefficients,
    per_link_outage_conventional,
    per_link_outage_nncc,
    power_breakdown,
    power_coefficients,
    validate,
)
from nncc.montecarlo import RandomStream

# frozen high-precision references (40-digit evaluation of the closed forms
# under the documented default constants)
PNC_1E4 = 0.009803931276436949
PNC_1E3 = 0.029742656133926221
PNC_1E2 = 0.083409757868088148
PNC_1E1 = 0.198724508495671783
PC_1E3 = 5.0012506253908986e-4
ZETA_GOLDEN = 7.1343845378999808e-9     # rate 1e5, p_out 1e-3
ETA_GOLDEN = 3.5738503795029088e-11     # rate 1e5, per-link target PNC_1E3
ETA_C_GOLDEN = 2.1570931921302666e-9    # rate 1e5, per-link target PC_1E3


def bisect_per_link(p_out, tol=1e-14):
    """Independent oracle: bisection on the composite-outage polynomial."""
    eps = (1.0 - p_out) ** 2

    def g(x):
        return eps * x * x + (1.0 - eps) * (2.0 * x - x * x) - p_out

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fixed_geom(r1=2000.0, r=20.0, theta=0.5 * math.pi):
    return Geometry(r1=r1, r=r, theta=theta)


# --- per-link outage targets -------------------------------------------------

def test_per_link_nncc_frozen_values():
    assert per_link_outage_nncc(1e-3) == pytest.approx(0.029743, abs=1e-6)
    for p, ref in [(1e-4, PNC_1E4), (1e-3, PNC_1E3), (1e-2, PNC_1E2), (0.1, PNC_1E1)]:
        assert per_link_outage_nncc(p) == pytest.approx(ref, rel=1e-12, abs=0)


def test_per_link_nncc_matches_bisection_on_grid():
    for p in np.linspace(0.002, 0.2, 100):
        assert abs(per_link_outage_nncc(p) - bisect_per_link(p)) < 1e-10


def test_per_link_nncc_through_singular_point():
    # closed form degenerates to a linear equation at p = 1 - 1/sqrt(2)
    p_star = 1.0 - 1.0 / math.sqrt(2.0)
    for p in (p_star, p_star * (1 - 1e-9), p_star * (1 + 1e-9), 0.29, 0.295):
        assert abs(per_link_outage_nncc(p) - bisect_per_link(p)) < 1e-10


def test_per_link_nncc_composite_closure():
    for p in (1e-4, 1e-3, 1e-2, 0.1):
        x = per_link_outage_nncc(p)
        eps = (1.0 - p) ** 2
        assert abs(eps * x * x + (1.0 - eps) * (2.0 * x - x * x) - p) < 1e-12


def test_per_link_nncc_at_every_decade_to_the_float_floor():
    """Within 1e-15 relative of the 60-digit root of (2*eps-1)*x^2 +
    2*(1-eps)*x - p = 0, eps = (1-p)^2, at p = 1e-1 to 1e-307: the form keeps
    1 - (1-p)^2 from cancelling, which alone was 3.1e-14 off at 1e-5."""
    with localcontext() as ctx:
        ctx.prec = 60
        for e in range(1, 308):
            p = 10.0 ** -e
            eps = (1 - Decimal(p)) ** 2
            a, b = 2 * eps - 1, 2 * (1 - eps)
            root = 2 * Decimal(p) / (b + (b * b + 4 * a * Decimal(p)).sqrt())
            assert abs(Decimal(per_link_outage_nncc(p)) - root) <= Decimal(1e-15) * root, e


def test_per_link_nncc_rejects_out_of_range():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            per_link_outage_nncc(bad)


def test_per_link_conventional_values():
    assert per_link_outage_conventional(1e-3) == pytest.approx(PC_1E3, abs=1e-9)
    assert per_link_outage_conventional(0.0) == 0.0
    assert per_link_outage_conventional(0.75) == pytest.approx(0.5, rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        per_link_outage_conventional(1.0)


def test_per_link_conventional_closure():
    for p in (1e-4, 1e-3, 1e-2, 0.1):
        x = per_link_outage_conventional(p)
        assert abs(1.0 - (1.0 - x) ** 2 - p) < 1e-12


def test_per_link_ordering():
    for p in np.linspace(0.002, 0.2, 100):
        assert 0.0 < per_link_outage_conventional(p) < per_link_outage_nncc(p) < 1.0


def test_outage_targets_consistency():
    t = OutageTargets.for_target(1e-3)
    assert t.eps_short == (1.0 - 1e-3) ** 2
    assert t.eps_total == 1.0 + t.eps_short
    assert 0.0 < t.p_out_c < t.p_out_nc < 1.0


# --- power coefficients -------------------------------------------------------

def zeta_of(params):
    return Link.short(params).coeff(params.p_out_target)


def eta_of(params, p_link, user=1):
    return Link.cellular(params, user).coeff(p_link)


def test_short_range_coeff_golden(params):
    assert zeta_of(params) == pytest.approx(7.1e-9, rel=0.02, abs=0)
    assert zeta_of(params) == pytest.approx(ZETA_GOLDEN, rel=1e-12, abs=0)
    assert power_coefficients(params).zeta == zeta_of(params)


def test_cellular_coeff_golden(params):
    eta = eta_of(params, PNC_1E3)
    assert eta == pytest.approx(3.57e-11, rel=0.02, abs=0)
    assert eta == pytest.approx(ETA_GOLDEN, rel=1e-12, abs=0)
    assert eta_of(params, PC_1E3) == pytest.approx(ETA_C_GOLDEN, rel=1e-12, abs=0)
    # equal handset gains: both uplinks share the coefficient bit for bit
    assert eta_of(params, PNC_1E3, user=2) == eta
    coeff = power_coefficients(params)
    assert coeff.eta1 == coeff.eta2 == eta_of(params, OutageTargets.for_target(1e-3).p_out_nc)


def test_zeta_decreases_with_target(params):
    zetas = [zeta_of(validate(params._replace(p_out_target=p)))
             for p in (1e-4, 1e-3, 1e-2, 0.1, 0.5)]
    assert all(a > b for a, b in zip(zetas, zetas[1:]))


def test_eta_decreases_with_per_link_target(params):
    etas = [eta_of(params, p) for p in (1e-4, 1e-3, 1e-2, 0.1)]
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_eta_conventional_exceeds_eta_nncc(params):
    assert eta_of(params, PC_1E3) > eta_of(params, PNC_1E3)


def test_cellular_coeff_rejects_bad_target(params):
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            eta_of(params, bad)
    with pytest.raises(ValueError):
        Link.cellular(params, 3)


def test_coeff_refuses_a_target_whose_outage_term_underflows(params):
    """-log1p(-5e-324) times the short link's constants is 0: the target is at
    fault, not a division by zero."""
    with pytest.raises(ParameterError) as err:
        Link.short(params).coeff(5e-324)
    assert err.value.field == "p_out_target"
    assert Link.short(params).coeff(1e-300) < math.inf


def test_coeff_of_a_link_without_gain_is_inf(params):
    """A link whose own constants underflow is left to the callers' checks."""
    assert Link.short(params)._replace(gain=0.0).coeff(1e-3) == math.inf


def test_zeta_is_distance_free(params):
    g1, g2 = fixed_geom(r=10.0), fixed_geom(r=20.0)
    coeff = power_coefficients(params)
    b1, b2 = power_breakdown(g1, coeff), power_breakdown(g2, coeff)
    assert b2.p12 == pytest.approx(4.0 * b1.p12, rel=1e-12, abs=0)


# --- scheme totals -------------------------------------------------------------

def test_breakdown_coincident_handsets(params):
    t = OutageTargets.for_target(params.p_out_target)
    eta = eta_of(params, t.p_out_nc)
    geom = Geometry(r1=1000.0, r=0.0, theta=0.3)
    b = power_breakdown(geom, power_coefficients(params))
    assert b.p12 == 0.0  # each direction of the exchange
    assert b.total == pytest.approx(2.0 * t.eps_total * eta * 1000.0 ** 2, rel=1e-12, abs=0)


def test_breakdown_slot_accounting(params):
    t = OutageTargets.for_target(params.p_out_target)
    b = power_breakdown(fixed_geom(), power_coefficients(params))
    assert b.total == pytest.approx(
        2.0 * b.p12 + t.eps_total * (b.p1b + b.p2b), rel=1e-12, abs=0)
    assert min(b.p12, b.p1b, b.p2b) >= 0.0


def quadratic_form(coeff, eps_total, r1, r, theta):
    """Round total expanded in r, written out independently of PowerQuadratic."""
    ee2 = eps_total * coeff.eta2
    return ((2.0 * coeff.zeta + ee2) * r * r + 2.0 * ee2 * r1 * math.cos(theta) * r
            + eps_total * (coeff.eta1 + coeff.eta2) * r1 * r1)


def test_total_equals_quadratic_form_example(params):
    t = OutageTargets.for_target(params.p_out_target)
    coeff = power_coefficients(params)
    geom = fixed_geom(r1=2000.0, r=50.0, theta=0.5 * math.pi)
    b = power_breakdown(geom, power_coefficients(params))
    quadratic = quadratic_form(coeff, t.eps_total, geom.r1, geom.r, geom.theta)
    assert b.total == pytest.approx(quadratic, rel=1e-12, abs=0)


def test_total_equals_quadratic_form_random(params):
    t = OutageTargets.for_target(params.p_out_target)
    coeff = power_coefficients(params)
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        r1 = rng.uniform(100.0, 3000.0)
        r = rng.uniform(0.0, 400.0)
        theta = rng.uniform(-0.5 * math.pi, 1.5 * math.pi)
        geom = fixed_geom(r1=r1, r=r, theta=theta)
        b = power_breakdown(geom, power_coefficients(params))
        quadratic = quadratic_form(coeff, t.eps_total, r1, r, theta)
        assert abs(b.total - quadratic) <= 1e-9 * b.total


def test_total_increasing_in_r1(params):
    totals = [power_breakdown(fixed_geom(r1=r1), power_coefficients(params)).total
              for r1 in np.linspace(500.0, 3000.0, 26)]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_total_increasing_in_r_and_decreasing_in_target(params):
    totals = [power_breakdown(fixed_geom(r=r), power_coefficients(params)).total
              for r in np.linspace(1.0, 200.0, 25)]
    assert all(a < b for a, b in zip(totals, totals[1:]))
    totals = [power_breakdown(fixed_geom(), power_coefficients(
                  validate(params._replace(p_out_target=p)))).total
              for p in np.geomspace(1e-4, 0.5, 25)]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_conventional_coincident(params):
    t = OutageTargets.for_target(params.p_out_target)
    eta_c = eta_of(params, t.p_out_c)
    for theta in (0.0, 1.0, math.pi):
        geom = Geometry(r1=700.0, r=0.0, theta=theta)
        b = power_breakdown(geom, conventional_coefficients(params))
        assert b.total == pytest.approx(2.0 * eta_c * 700.0 ** 2, rel=1e-12, abs=0)
        assert b.total == b.p1b + b.p2b  # solo uplinks only
        assert b.p12 == 0.0


def test_conventional_breakdown_is_the_solo_uplinks_bitwise():
    """The baseline is the cooperative total with zeta = 0 and one slot:
    2*0.0 + 1.0*(p1b + p2b) keeps the bits of the solo uplinks' sum."""
    rng = np.random.default_rng(5)
    for raw in (SystemParams(), SystemParams(g_u2_db=-3.0), SystemParams(rate=1e9)):
        params = validate(raw)
        coeff = conventional_coefficients(params)
        assert coeff.zeta == 0.0 and coeff.eps_total == 1.0
        for _ in range(200):
            geom = fixed_geom(r1=rng.uniform(50.0, 1e5), r=rng.uniform(0.0, 1e3),
                              theta=rng.uniform(-0.5 * math.pi, 1.5 * math.pi))
            b = power_breakdown(geom, coeff)
            assert b.p12 == 0.0
            assert b.total == b.p1b + b.p2b


def test_cooperation_beats_baseline_in_figure_regime(params):
    for r1 in np.linspace(500.0, 3000.0, 26):
        geom = fixed_geom(r1=r1, r=20.0)
        assert (power_breakdown(geom, power_coefficients(params)).total
                < power_breakdown(geom, conventional_coefficients(params)).total)


# --- outage probability and SNR ------------------------------------------------

def test_short_range_inversion_closure(params):
    zeta = zeta_of(params)
    for r in (1.0, 20.0, 100.0):
        out = Link.short(params).outage(zeta * r * r, r)
        assert abs(out - params.p_out_target) < 1e-12


def test_short_range_outage_vanishes_at_high_power(params):
    short = Link.short(params)
    assert short.outage(1e6, 20.0) == pytest.approx(0.0, abs=1e-12)
    assert short.outage(1e9, 20.0) < short.outage(1e6, 20.0) < short.outage(1e3, 20.0)
    with pytest.raises(ValueError):
        short.outage(0.0, 20.0)
    with pytest.raises(ValueError):
        short.outage(1.0, 0.0)


def test_short_range_outage_monte_carlo(params):
    """Fading-level oracle: empirical outage at the inverted power hits target."""
    zeta = zeta_of(params)
    r = 20.0
    n = 10_000_000
    h = RandomStream(21).block(0).exponential(params.sigma2_short, n)
    snr_scale = received_snr(Link.short(params), zeta * r * r, r, 1.0)
    cap = params.b_s * np.log2(1.0 + snr_scale * h / params.delta_s)
    rate = np.mean(cap < params.rate)
    target = params.p_out_target
    assert abs(rate - target) < 3.0 * math.sqrt(target * (1 - target) / n)


def test_link_capacity_values():
    assert link_capacity(0.0, 2e6, 2.0) == 0.0
    assert link_capacity(2.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-14, abs=0)
    gap = 2.51188643150958
    snr = gap * (2 ** 0.05 - 1)
    assert snr == pytest.approx(0.088581483705375, rel=1e-12, abs=0)
    assert link_capacity(snr, 2e6, gap) == pytest.approx(1e5, rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        link_capacity(1.0, 2e6, 0.5)


def test_received_snr_short_properties(params):
    short = Link.short(params)
    assert received_snr(short, 1.0, 20.0, 0.0) == 0.0
    one = received_snr(short, 1.0, 20.0, 1.0)
    two = received_snr(short, 1.0, 40.0, 1.0)
    assert one == pytest.approx(4.0 * two, rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        received_snr(short, 1.0, 0.0, 1.0)


def test_received_snr_chains_into_capacity(params):
    p_tx, r, h = 2e-3, 35.0, 0.7
    snr = received_snr(Link.short(params), p_tx, r, h)
    by_hand = params.b_s * math.log2(
        1.0 + p_tx * params.g_u1 * params.g_u2 * h
        * (params.lambda_s / (4.0 * math.pi * r)) ** 2
        / (params.delta_s * params.n0 * params.b_s))
    assert link_capacity(snr, params.b_s, params.delta_s) == pytest.approx(by_hand, rel=1e-12,
                                                                           abs=0)


def test_received_snr_cellular_inverse_square(params):
    uplink = Link.cellular(params, 1)
    near = received_snr(uplink, 1.0, 100.0, 1.0)
    far = received_snr(uplink, 1.0, 200.0, 1.0)
    assert near == pytest.approx(4.0 * far, rel=1e-12, abs=0)


def test_received_snr_cellular_distance_free_at_inverted_power(params):
    """With power eta*r^2 the SNR scale is the same at any distance."""
    uplink = Link.cellular(params, 1)
    eta = uplink.coeff(PNC_1E3)
    scale_a = received_snr(uplink, eta * 100.0 ** 2, 100.0, 1.0)
    scale_b = received_snr(uplink, eta * 2500.0 ** 2, 2500.0, 1.0)
    assert scale_a == pytest.approx(scale_b, rel=1e-12, abs=0)
    # distribution-level check on fading draws
    n = 1_000_000
    rng = RandomStream(22).block(0)
    snr_a = np.sort(scale_a * rng.exponential(params.sigma2_cell, n))
    snr_b = np.sort(scale_b * rng.exponential(params.sigma2_cell, n))
    cdf_b = 1.0 - np.exp(-snr_b / (scale_b * params.sigma2_cell))
    i = np.arange(1, n + 1)
    f_at_a = 1.0 - np.exp(-snr_a / (scale_b * params.sigma2_cell))
    ks = max(np.max(i / n - f_at_a), np.max(f_at_a - (i - 1) / n))
    assert ks < 0.005
    assert np.all(cdf_b >= 0.0) and np.all(cdf_b <= 1.0)


# --- one link budget ----------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(gap=st.floats(1.0, 100.0), bandwidth=st.floats(1e3, 1e8),
       wavelength=st.floats(1e-3, 10.0), gain=st.floats(1e-3, 1e3),
       sigma2=st.floats(0.1, 10.0), n0=st.floats(1e-22, 1e-18),
       efficiency=st.floats(1e-3, 20.0), p_link=st.floats(1e-9, 0.99),
       d=st.floats(0.1, 1e5), scale=st.floats(1e-3, 1e3))
def test_link_inversion_and_threshold_agree(gap, bandwidth, wavelength, gain, sigma2,
                                            n0, efficiency, p_link, d, scale):
    """The closed-form inversion and the simulator's threshold are one model."""
    link = Link(gap, bandwidth, wavelength, gain, sigma2, n0, efficiency * bandwidth)
    p_tx = link.coeff(p_link) * d * d
    assert link.outage(p_tx, d) == pytest.approx(p_link, rel=1e-12, abs=0)
    for p in (p_tx, p_tx * scale):
        assert link.outage(p, d) == pytest.approx(
            -math.expm1(-link.threshold(p, d) / link.sigma2), rel=1e-12, abs=0)


def test_unequal_handset_gains_closed_forms():
    params = validate(SystemParams(g_u2_db=-3.0))
    coeff = power_coefficients(params)
    t = OutageTargets.for_target(params.p_out_target)
    assert coeff.eta2 / coeff.eta1 == pytest.approx(10.0 ** 0.3, rel=1e-12, abs=0)
    assert coeff.eta1 == power_coefficients(validate(SystemParams())).eta1
    # the baseline charges each handset its own uplink as well
    solo = power_breakdown(Geometry(r1=700.0, r=0.0, theta=0.0), conventional_coefficients(params))
    assert solo.p2b / solo.p1b == pytest.approx(10.0 ** 0.3, rel=1e-12, abs=0)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        r1 = rng.uniform(100.0, 3000.0)
        r = rng.uniform(0.0, 400.0)
        theta = rng.uniform(-0.5 * math.pi, 1.5 * math.pi)
        geom = fixed_geom(r1=r1, r=r, theta=theta)
        b = power_breakdown(geom, power_coefficients(params))
        assert b.p2b / b.p1b == pytest.approx(10.0 ** 0.3 * (geom.r2 / r1) ** 2,
                                              rel=1e-12, abs=0)
        quad = cooperative_quadratic(params, r1)
        total_power = quad.a * r * r + quad.b_coeff * np.cos(theta) * r + quad.c0
        assert total_power == pytest.approx(b.total, rel=1e-12, abs=0)
        assert quadratic_form(coeff, t.eps_total, r1, r, theta) == pytest.approx(
            b.total, rel=1e-12, abs=0)


def test_required_snr_overflow_names_rate():
    # expm1 overflows outright, or stays finite until the gap scales it
    for rate in (1e10, 709.5 * 2e6 / math.log(2.0)):
        link = Link.short(validate(SystemParams(rate=rate)))
        with pytest.raises(ParameterError) as err:
            link.coeff(1e-3)
        assert err.value.field == "rate"
