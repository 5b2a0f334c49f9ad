import math

import numpy as np
import pytest
from scipy import stats

from nncc import (
    Geometry,
    OutageTargets,
    PowerQuadratic,
    cdf_reference,
    cdf_reference_batch,
    cellular_coeff,
    expected_power,
    nncc_power_breakdown,
)
from nncc.montecarlo import (
    MIN_TRIALS,
    ProtocolFading,
    RandomStream,
    estimate_link_outage,
    estimate_outage,
    ks_distance,
    sample_power_distribution,
    simulate_protocol_trial,
)

INF = float("inf")


def fixed_geom(r1=2000.0, r=20.0):
    return Geometry(r1=r1, r=r, theta=0.5 * math.pi, r2=math.hypot(r1, r))


# --- random stream contract --------------------------------------------------

def test_stream_determinism():
    a = RandomStream(123, 4).generator().random(16)
    b = RandomStream(123, 4).generator().random(16)
    assert np.array_equal(a, b)


def test_streams_differ_across_ids():
    a = RandomStream(123, 0).generator().random(16)
    b = RandomStream(123, 1).generator().random(16)
    c = RandomStream(124, 0).generator().random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_offsets():
    s = RandomStream(5, 10)
    assert s.substream(3) == RandomStream(5, 13)


# --- single protocol trial -----------------------------------------------------

def test_trial_infinite_fading(params):
    geom = fixed_geom()
    powers = nncc_power_breakdown(geom, params)
    out = simulate_protocol_trial(
        RandomStream(1), geom, powers, params,
        fading=ProtocolFading(INF, INF, INF, INF, INF, INF))
    assert out.delta == 0
    assert out.d1_delivered and out.d2_delivered
    assert not out.pair_outage_composite
    cellular = powers.p1b + powers.p2b
    assert out.energy == pytest.approx(
        powers.p12 + powers.p21 + 2.0 * cellular, rel=1e-12)


def test_trial_zero_fading(params):
    geom = fixed_geom()
    powers = nncc_power_breakdown(geom, params)
    out = simulate_protocol_trial(
        RandomStream(1), geom, powers, params,
        fading=ProtocolFading(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert out.delta == 1
    assert not out.d1_delivered and not out.d2_delivered
    assert out.pair_outage_composite
    assert out.energy == pytest.approx(
        powers.p12 + powers.p21 + powers.p1b + powers.p2b, rel=1e-12)


def test_trial_relay_saves_message(params):
    geom = fixed_geom()
    powers = nncc_power_breakdown(geom, params)
    # exchange succeeds; U1's own uplink dies but U2's relay carries message 1
    out = simulate_protocol_trial(
        RandomStream(1), geom, powers, params,
        fading=ProtocolFading(INF, INF, 0.0, INF, INF, INF))
    assert out.delta == 0
    assert out.d1_delivered and out.d2_delivered
    assert not out.pair_outage_composite


def test_trial_energy_accounting_identity(params):
    geom = fixed_geom()
    powers = nncc_power_breakdown(geom, params)
    cellular = powers.p1b + powers.p2b
    rng = RandomStream(77).generator()
    for _ in range(10_000):
        out = simulate_protocol_trial(rng, geom, powers, params)
        slots = 2 if out.delta == 0 else 1
        assert out.energy == pytest.approx(
            powers.p12 + powers.p21 + slots * cellular, rel=1e-12)


# --- estimators ----------------------------------------------------------------

def test_estimate_outage_requires_minimum_trials(params):
    with pytest.raises(ValueError) as err:
        estimate_outage(10, fixed_geom(), params, RandomStream(0))
    assert str(MIN_TRIALS) in str(err.value)


def test_estimate_outage_statistics(params):
    n = 1_000_000
    rep = estimate_outage(n, fixed_geom(), params, RandomStream(41))
    t = OutageTargets.for_target(params.p_out_target)
    assert abs(rep.delta0_rate - t.eps_short) < 3.0 * rep.delta0_stderr
    assert abs(rep.outage_composite - params.p_out_target) < 3.0 * rep.outage_composite_stderr
    # per-message rate sits below the composite target
    x = t.p_out_nc
    per_msg = t.eps_short * x * x + (1.0 - t.eps_short) * x
    assert abs(rep.outage_d1 - per_msg) < 4.0 * rep.outage_d1_stderr
    assert abs(rep.outage_d2 - per_msg) < 4.0 * rep.outage_d2_stderr
    assert per_msg < params.p_out_target


def test_estimate_outage_conventional(params):
    n = 1_000_000
    rep = estimate_outage(n, fixed_geom(), params, RandomStream(42),
                          scheme="conventional")
    assert abs(rep.outage_composite - params.p_out_target) < 3.0 * rep.outage_composite_stderr
    t = OutageTargets.for_target(params.p_out_target)
    assert abs(rep.outage_d1 - t.p_out_c) < 3.0 * rep.outage_d1_stderr
    assert rep.delta0_rate is None
    assert rep.energy_stderr == 0.0


def test_estimate_outage_unknown_scheme(params):
    with pytest.raises(ValueError):
        estimate_outage(MIN_TRIALS, fixed_geom(), params, RandomStream(0), scheme="x")


def test_estimate_outage_worker_invariance(params):
    kwargs = dict(n=150_000, geom=fixed_geom(), params=params)
    a = estimate_outage(stream=RandomStream(43), workers=1, **kwargs)
    b = estimate_outage(stream=RandomStream(43), workers=4, **kwargs)
    for field in ("outage_d1", "outage_d2", "outage_composite", "delta0_rate",
                  "mean_energy", "energy_stderr"):
        assert getattr(a, field) == getattr(b, field)


def test_estimate_link_outage_cellular(params):
    t = OutageTargets.for_target(params.p_out_target)
    eta = cellular_coeff(params, t.p_out_nc)
    n = 1_000_000
    rate, se = estimate_link_outage(n, eta * 2000.0 ** 2, 2000.0, params,
                                    RandomStream(44))
    assert abs(rate - t.p_out_nc) < 3.0 * se


def test_estimate_link_outage_short(params):
    from nncc import short_range_coeff
    zeta = short_range_coeff(params)
    n = 1_000_000
    rate, se = estimate_link_outage(n, zeta * 20.0 ** 2, 20.0, params,
                                    RandomStream(45), link="short")
    assert abs(rate - params.p_out_target) < 3.0 * se


def test_fading_marginals(params):
    n = 1_000_000
    h = RandomStream(46).generator().exponential(params.sigma2_cell, n)
    assert abs(np.mean(h) - params.sigma2_cell) < 0.005 * params.sigma2_cell
    d, _ = stats.kstest(h, "expon", args=(0.0, params.sigma2_cell))
    assert d < 1.36 / math.sqrt(n) * 1.5


def test_slot_fading_independence(params):
    # draw in the same order as the block kernel and correlate slot 2 vs slot 3
    rng = RandomStream(47).block(0)
    n = 1_000_000
    _ = rng.exponential(params.sigma2_short, n)
    _ = rng.exponential(params.sigma2_short, n)
    slot2_u1 = rng.exponential(params.sigma2_cell, n)
    slot2_u2 = rng.exponential(params.sigma2_cell, n)
    slot3_u1 = rng.exponential(params.sigma2_cell, n)
    slot3_u2 = rng.exponential(params.sigma2_cell, n)
    assert abs(np.corrcoef(slot2_u1, slot3_u1)[0, 1]) < 0.01
    assert abs(np.corrcoef(slot2_u2, slot3_u2)[0, 1]) < 0.01


def test_sample_power_distribution(dense_params):
    n = 1_000_000
    rho, r1 = dense_params.rho, 2000.0
    rep = sample_power_distribution(n, rho, r1, dense_params, RandomStream(48))
    quad = PowerQuadratic.from_params(dense_params, r1)
    assert rep.power_samples.shape == (n,)
    assert np.all(np.diff(rep.power_samples) >= 0.0)
    assert rep.power_samples[0] >= quad.support_min
    closed = expected_power(quad, rho)
    assert abs(rep.mean_energy - closed) < 3.0 * rep.energy_stderr
    ks = ks_distance(rep.power_samples,
                     lambda p: cdf_reference_batch(p, quad, rho))
    assert ks < 0.005


def test_sample_power_distribution_worker_invariance(dense_params):
    a = sample_power_distribution(120_000, 1e-4, 1500.0, dense_params,
                                  RandomStream(49), workers=1)
    b = sample_power_distribution(120_000, 1e-4, 1500.0, dense_params,
                                  RandomStream(49), workers=3)
    assert np.array_equal(a.power_samples, b.power_samples)
    assert a.mean_energy == b.mean_energy and a.energy_stderr == b.energy_stderr


# --- KS statistic ---------------------------------------------------------------

def test_ks_distance_inverse_transform():
    n = 100_000
    u = np.sort(RandomStream(50).generator().random(n))
    assert ks_distance(u, lambda x: x) < 1.36 / math.sqrt(n) * 1.5


def test_ks_distance_degenerate_cases():
    assert ks_distance(np.array([1.0, 2.0, 3.0]), lambda x: np.zeros_like(x)) == 1.0
    assert ks_distance(np.array([5.0]), lambda x: np.full_like(x, 0.5)) == 0.5


def test_ks_distance_contract_errors():
    with pytest.raises(ValueError):
        ks_distance(np.array([2.0, 1.0]), lambda x: x)
    with pytest.raises(ValueError):
        ks_distance(np.array([]), lambda x: x)


def test_ks_distance_accepts_scalar_callable():
    samples = np.array([0.2, 0.4, 0.9])
    assert ks_distance(samples, lambda x: float(np.clip(x, 0, 1))) == pytest.approx(
        ks_distance(samples, lambda x: np.clip(x, 0, 1)))


def test_ks_distance_takes_cdf_values():
    samples = np.array([0.2, 0.4, 0.9])
    values = np.clip(samples, 0, 1)
    assert ks_distance(samples, values) == ks_distance(samples, lambda x: np.clip(x, 0, 1))
    with pytest.raises(ValueError):
        ks_distance(samples, values[:2])


def test_ks_distance_propagates_vectorised_cdf_error():
    def cdf(x):
        if np.ndim(x):
            raise ValueError("bad vectorised evaluation")
        return 0.5

    with pytest.raises(ValueError, match="bad vectorised evaluation"):
        ks_distance(np.array([0.2, 0.4, 0.9]), cdf)


def test_ks_distance_scalar_reference_cdf_is_passed_as_values(dense_params):
    """cdf_reference fails on an array with ValueError; its values are passed instead."""
    rho = dense_params.rho
    quad = PowerQuadratic.from_params(dense_params, 1500.0)
    samples = np.concatenate([np.linspace(quad.support_min, quad.c0, 6)[1:],
                              quad.c0 * np.linspace(1.01, 1.5, 5)])
    with pytest.raises(ValueError, match="truth value"):
        ks_distance(samples, lambda p: cdf_reference(p, quad, rho))
    values = [cdf_reference(p, quad, rho) for p in samples]
    assert ks_distance(samples, values) == pytest.approx(
        ks_distance(samples, cdf_reference_batch(samples, quad, rho)), abs=1e-9)
