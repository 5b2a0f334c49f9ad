import collections
import math
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from cdf_oracle import cdf_oracle
from model_helpers import (binomial_z, cooperative_quadratic, ks_distance_of_values,
                           event_rates, placements_by_expression,
                           power_samples_by_expression, rounds_drawn_directly)
from nncc import (
    Geometry,
    SystemParams,
    Link,
    OutageTargets,
    ParameterError,
    PowerQuadratic,
    cdf_scale_free,
    expected_power,
    power_breakdown,
    power_coefficients,
    validate,
)
from nncc import montecarlo
from nncc.montecarlo import (
    _BLOCK,
    MIN_TRIALS,
    RandomStream,
    _thresholds,
    draw_power_samples,
    estimate_outage,
    exchange_counts,
    exchange_energy,
    ks_distance,
    protocol_round,
    sample_power_distribution,
)

INF = float("inf")


def fixed_geom(r1=2000.0, r=20.0):
    return Geometry(r1=r1, r=r, theta=0.5 * math.pi)


# --- random stream contract --------------------------------------------------

def test_stream_determinism():
    a = RandomStream(123, 4).block(0).random(16)
    b = RandomStream(123, 4).block(0).random(16)
    assert np.array_equal(a, b)


def test_streams_differ_across_ids():
    a = RandomStream(123, 0).block(0).random(16)
    b = RandomStream(123, 1).block(0).random(16)
    c = RandomStream(124, 0).block(0).random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- the block runner ----------------------------------------------------------

def recorded_call(log, i, fail=()):
    """Call i of a runner test: logs its thread and the live thread count."""
    log[i] = (threading.current_thread(), threading.active_count())
    if i in fail:
        raise ValueError(f"call {i}")
    return i * i


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_in_order_keeps_call_order_and_runs_call_0_on_the_caller(workers):
    """Seven calls come back in call order; the caller does the first run of
    consecutive calls and each other run is off the calling thread."""
    log, before = {}, threading.active_count()
    calls = [partial(recorded_call, log, i) for i in range(7)]
    assert montecarlo._in_order(calls, workers) == [i * i for i in range(7)]
    caller = threading.current_thread()
    on_caller = [log[i][0] is caller for i in range(7)]
    assert on_caller == [i < 7 // workers for i in range(7)]
    if workers == 1:  # one worker starts no thread
        assert all(count == before for _, count in log.values())
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_in_order_raises_the_first_error_once_every_run_has_ended(workers):
    log, before = {}, threading.active_count()
    calls = [partial(recorded_call, log, i, fail=(2, 5)) for i in range(7)]
    with pytest.raises(ValueError, match="^call 2$"):
        montecarlo._in_order(calls, workers)
    assert threading.active_count() == before


def _sort_inputs():
    """Arrays for the parallel sort: n = 2, n = MIN_TRIALS, an odd n, and one
    with many equal values around its median."""
    rng = RandomStream(62).block(0)
    return {"n=2": np.array([0.7, 0.3]),
            "min-trials": rng.random(MIN_TRIALS),
            "odd": rng.standard_normal(MIN_TRIALS + 1),
            "ties": np.repeat(rng.integers(0, 7, 2_001), 5).astype(float)}


@pytest.mark.parametrize("name", list(_sort_inputs()))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sort_in_place_is_np_sort_on_at_most_one_more_thread(monkeypatch, workers, name):
    """The sort is ``np.sort``'s bit for bit on any worker count; one worker is
    one ``ndarray.sort`` on the caller, with no ``_in_order`` call; more run the
    two halves with at most one thread beyond the caller, and no thread
    outlives it."""
    samples = _sort_inputs()[name]
    expected, before, log = np.sort(samples), threading.active_count(), []
    in_order = montecarlo._in_order

    def logged(calls, workers):
        def run(call):
            log.append((threading.current_thread(), threading.active_count()))
            return call()
        return in_order([partial(run, call) for call in calls], workers)

    monkeypatch.setattr(montecarlo, "_in_order", logged)
    montecarlo._sort_in_place(samples, workers)
    assert samples.tobytes() == expected.tobytes()
    assert all(count <= before + 1 for _, count in log)
    on_caller = {thread is threading.current_thread() for thread, _ in log}
    assert on_caller == (set() if workers == 1 else {True, False})
    assert threading.active_count() == before


def test_sum_blocks_gives_python_numbers_independent_of_workers():
    """Column sums in block order, Python ints and floats, the same bits on 1 to
    3 workers; block j reads stream.block(j) and its own start and size."""
    n, stream = 5 * _BLOCK + 123, RandomStream(61, 7)

    def block_fn(rng, start, size):
        return size, start, float(rng.random()) * 1e-3 ** (start // _BLOCK)

    sums = [montecarlo._sum_blocks(n, stream, workers, block_fn) for workers in (1, 2, 3)]
    expected = 0.0
    for j in range(6):
        expected += float(stream.block(j).random()) * 1e-3 ** j
    assert sums[0] == [n, _BLOCK * 15, expected]
    assert [list(map(type, s)) for s in sums] == [[int, int, float]] * 3
    assert sums[1] == sums[0] and sums[2] == sums[0]
    with pytest.raises(ValueError, match=str(MIN_TRIALS)):
        montecarlo._sum_blocks(MIN_TRIALS - 1, stream, 1, block_fn)


# --- one protocol round --------------------------------------------------------

def round_at_fading(params, h12, h21, h1b_slot2, h2b_slot2, h1b_slot3, h2b_slot3):
    """One round at fixed fading gains and the production thresholds."""
    geom = fixed_geom()
    t12, t1b, t2b = _thresholds(geom, power_breakdown(geom, power_coefficients(params)),
                                params)
    delta0 = np.array([h12 >= t12 and h21 >= t12])
    d1, d2, composite = protocol_round(
        delta0, np.array([h1b_slot2 >= t1b]), np.array([h2b_slot2 >= t2b]),
        np.array([h2b_slot3 >= t2b]), np.array([h1b_slot3 >= t1b]))
    return bool(delta0[0]), bool(d1[0]), bool(d2[0]), bool(composite[0])


def test_trial_infinite_fading(params):
    assert round_at_fading(params, INF, INF, INF, INF, INF, INF) == (True, True, True, False)


def test_trial_zero_fading(params):
    assert round_at_fading(params, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) == (False, False, False, True)


def test_trial_relay_saves_message(params):
    # exchange succeeds; U1's own uplink dies but U2's relay carries message 1
    assert round_at_fading(params, INF, INF, 0.0, INF, INF, INF) == (True, True, True, False)


def test_protocol_round_failed_exchange_is_conventional():
    """Without the exchange the relayed copies are ignored: solo uplinks only."""
    own1 = np.array([True, True, False, False])
    own2 = np.array([True, False, True, False])
    relay = np.ones(4, dtype=bool)
    d1, d2, composite = protocol_round(False, own1, own2, relay, relay)
    assert np.array_equal(d1, own1) and np.array_equal(d2, own2)
    assert np.array_equal(composite, ~(own1 & own2))
    d1, d2, composite = protocol_round(np.ones(4, dtype=bool), own1, own2, ~own2, ~own1)
    assert np.array_equal(d1, own1 | ~own2) and np.array_equal(d2, own2 | ~own1)
    assert np.array_equal(composite, ~d1)


def test_trial_energy_accounting_identity(params):
    """Each round pays both exchange directions and one or two cellular slots."""
    geom = fixed_geom()
    powers = power_breakdown(geom, power_coefficients(params))
    counts = estimate_outage(50_000, geom, params, RandomStream(77))
    assert 0 < counts.exchanged < 50_000
    assert counts.mean_energy == pytest.approx(
        2.0 * powers.p12 + (1.0 + counts.exchanged / 50_000) * (powers.p1b + powers.p2b),
        rel=1e-12, abs=0)


# --- estimators ----------------------------------------------------------------

def test_estimate_outage_requires_minimum_trials(params):
    with pytest.raises(ValueError) as err:
        estimate_outage(10, fixed_geom(), params, RandomStream(0))
    assert str(MIN_TRIALS) in str(err.value)


@pytest.mark.parametrize("r", [1e-160, 1e-150, 1e200])
def test_estimate_outage_refuses_exchange_power_outside_normal_floats(params, r):
    """At 1e-160 m the exchange power zeta*r*r is 0 (no exchange would decode),
    at 1e-150 m subnormal, at 1e200 m inf; 1e-140 m is still a normal power."""
    with pytest.raises(ParameterError) as err:
        montecarlo.require_exchange_distance(r, params)
    assert err.value.field == "r"
    montecarlo.require_exchange_distance(1e-140, params)
    with pytest.raises(ParameterError):
        estimate_outage(MIN_TRIALS, fixed_geom(r=1e-160), params, RandomStream(0))


def test_estimate_outage_statistics(params):
    n = 1_000_000
    counts = estimate_outage(n, fixed_geom(), params, RandomStream(41))
    t = OutageTargets.for_target(params.p_out_target)
    assert abs(binomial_z(counts.exchanged, n, t.eps_short)) < 3.0
    assert abs(binomial_z(counts.outages, n, params.p_out_target)) < 3.0
    # per-message rate sits below the composite target
    x = t.p_out_nc
    per_msg = t.eps_short * x * x + (1.0 - t.eps_short) * x
    assert abs(binomial_z(counts.lost_d1, n, per_msg)) < 4.0
    assert abs(binomial_z(counts.lost_d2, n, per_msg)) < 4.0
    assert per_msg < params.p_out_target


def test_estimate_outage_conventional(params):
    """The baseline's solo uplinks, on the cooperative round's slot-2 fades,
    meet the end-to-end target."""
    n = 1_000_000
    counts = estimate_outage(n, fixed_geom(), params, RandomStream(42))
    assert abs(binomial_z(counts.conv_outages, n, params.p_out_target)) < 3.0


def outcome_law(geom, params) -> dict:
    """The exact probability of each observable round outcome, (delta0, own1,
    conv1, own2, conv2, d1, d2), summed over ``_round_classes``'s classes."""
    (x, not_x), events, probs = montecarlo._round_classes(geom, params)
    delta0, own1, own2, relay1, relay2, conv1, conv2 = events
    d1, d2, _ = protocol_round(delta0, own1, own2, relay1, relay2)
    law = collections.defaultdict(float)
    for key, p in zip(zip(delta0, own1, conv1, own2, conv2, d1, d2),
                      np.concatenate((x * probs, not_x * probs))):
        law[tuple(map(bool, key))] += p
    return law


@pytest.mark.parametrize("overrides", [{}, {"g_u2_db": -3.0}, {"rate": 1e9},
                                       {"p_out_target": 0.1}, {"p_out_target": 1e-5}])
def test_round_classes_give_the_closed_form_rates(overrides):
    """Summed over the enumerated classes, each event's probability is its
    closed-form target to 1e-12 relative: the event algebra the per-link
    targets were derived from, reproduced from ``protocol_round``."""
    params = validate(SystemParams(**overrides))
    _, events, probs = montecarlo._round_classes(fixed_geom(), params)
    assert len(probs) == 36 and all(len(column) == 72 for column in events)
    assert math.fsum(probs) == pytest.approx(1.0, rel=1e-15, abs=0)
    t = OutageTargets.for_target(params.p_out_target)
    per_msg = t.eps_short * t.p_out_nc ** 2 + (1.0 - t.eps_short) * t.p_out_nc
    targets = dict(exchanged=t.eps_short, lost_d1=per_msg, lost_d2=per_msg,
                   outages=params.p_out_target, uplink1_lost=t.p_out_nc,
                   uplink2_lost=t.p_out_nc, conv_outages=params.p_out_target)
    assert event_rates(fixed_geom(), params) == pytest.approx(targets, rel=1e-12, abs=0)


def test_per_round_kernel_follows_the_class_law():
    """Rounds simulated fade by fade (``rounds_drawn_directly``) fall in the
    outcomes with the enumerated probabilities: a chi-square goodness of fit at
    alpha = 1e-3, outcomes expected fewer than 5 times pooled into one cell.
    At p_out_target = 0.1 every kind of round is common."""
    params = validate(SystemParams(p_out_target=0.1))
    geom, n = fixed_geom(), 100_000
    law = outcome_law(geom, params)
    rounds = rounds_drawn_directly(n, geom, params, RandomStream(58))
    keys = zip(*(rounds[name] for name in ("delta0", "own1", "conv1", "own2", "conv2",
                                           "d1", "d2")))
    seen = collections.Counter(tuple(map(bool, key)) for key in keys)
    assert set(seen) <= set(law)
    expected = np.array([n * p for p in law.values()])
    observed = np.array([seen[key] for key in law])
    rare = expected < 5.0
    if rare.any():
        expected = np.append(expected[~rare], expected[rare].sum())
        observed = np.append(observed[~rare], observed[rare].sum())
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 1e-3


@pytest.mark.parametrize("scheme", ["nncc", "conventional"])
def test_estimate_outage_counts_follow_the_draw_order(params, scheme):
    """Each scheme's counts are those of the documented draw on block 0: the
    exchange count k ~ Bin(n, Pr(delta = 0)), then one multinomial over the
    classes after a successful exchange (k rounds) and one after a failed
    one (n - k), each class's outcome by the protocol's rules written out."""
    geom, n = fixed_geom(r1=2600.0, r=35.0), 70_000
    counts = estimate_outage(n, geom, params, RandomStream(53))
    (x, _), events, probs = montecarlo._round_classes(geom, params)
    rng = RandomStream(53).block(0)
    k = rng.binomial(n, x)
    by_class = np.concatenate((rng.multinomial(k, probs), rng.multinomial(n - k, probs)))
    lost = np.zeros(5, dtype=int)
    for m, x0, o1, o2, r1, r2, v1, v2 in zip(by_class, *events):
        d1, d2 = o1 or (x0 and r1), o2 or (x0 and r2)
        composite = not d1 if x0 else not (d1 and d2)
        lost += m * np.array([not d1, not d2, composite, not o1, not (v1 and v2)])
    if scheme == "nncc":
        assert counts.exchanged == k
        assert (counts.lost_d1, counts.lost_d2, counts.outages,
                counts.uplink1_lost) == tuple(lost[:4])
        assert min(lost[:4]) > 0
        assert lost[0] < lost[3]  # slot-3 copies delivered some of message 1
    else:
        assert counts.conv_outages == lost[4]
        assert lost[4] > 0


def test_exchange_counts_share_estimate_outages_exchange_draw(params):
    """One exchange draw counted at several thresholds is the chain of
    conditional binomials on block 0, at the thresholds sorted ascending; a
    tie gets the same count and an infinite threshold 0.  At the cooperative
    t12 alone the count is ``estimate_outage``'s exchange count on the same
    stream, with the same round energy."""
    geom, n = fixed_geom(r1=2600.0, r=35.0), 70_000
    powers = power_breakdown(geom, power_coefficients(params))
    t12 = _thresholds(geom, powers, params)[0]
    thresholds = [3.0 * t12, t12, 1e-3, 0.5 * t12, t12, INF]  # unsorted, on purpose
    rng, chain = RandomStream(53).block(0), {}
    k, q_prev = n, 1.0
    for t in sorted(thresholds):
        q = math.exp(-t / (0.5 * params.sigma2_short))
        k = chain[t] = int(rng.binomial(k, q / q_prev)) if q_prev else 0
        q_prev = q
    counts = exchange_counts(n, thresholds, params.sigma2_short, RandomStream(53))
    assert counts == [chain[t] for t in thresholds]
    assert all(type(k) is int for k in counts)
    assert counts[1] == counts[4] and counts[5] == 0 and 0 < counts[0] < counts[3]
    alone = exchange_counts(n, [t12], params.sigma2_short, RandomStream(53))
    full = estimate_outage(n, geom, params, RandomStream(53))
    assert alone == [full.exchanged]
    assert exchange_energy(n, alone[0], powers) == (full.mean_energy, full.energy_stderr)


def test_exchange_counts_chain_matches_direct_exchanges(params):
    """The chain has the joint law of one exchange draw counted at several
    thresholds.  Counted directly, each exchange's min(h12, h21) against each
    threshold, the cells between consecutive thresholds agree with the
    chain's: a chi-square test of homogeneity at alpha = 1e-3.  Each count is
    also within 4 standard deviations of n*exp(-2t/sigma2)."""
    t12 = _thresholds(fixed_geom(), power_breakdown(fixed_geom(), power_coefficients(params)),
                      params)[0]
    thresholds = [300.0 * t12, t12, 30.0 * t12, 100.0 * t12]  # q 0.55 to 0.998
    n, sigma2 = 100_000, params.sigma2_short
    rng = RandomStream(59).block(0)
    h = np.minimum(rng.exponential(sigma2, n), rng.exponential(sigma2, n))
    direct = [int(np.count_nonzero(h >= t)) for t in thresholds]
    chain = exchange_counts(n, thresholds, sigma2, RandomStream(60))
    order = np.argsort(thresholds)

    def cells(counts):  # rounds below the smallest threshold, between each pair, above all
        k = [n] + [counts[i] for i in order]
        return [a - b for a, b in zip(k, k[1:])] + [k[-1]]

    _, p_value, _, _ = stats.chi2_contingency([cells(direct), cells(chain)])
    assert p_value > 1e-3
    for t, k in zip(thresholds, chain):
        q = math.exp(-2.0 * t / sigma2)
        assert abs(k - n * q) <= 4.0 * math.sqrt(n * q * (1.0 - q))


def test_estimate_outage_draws_once_from_block_0(params, monkeypatch):
    """The counts are one draw from their exact law: at any n the call reads
    one generator, block 0 of its stream, and the same stream gives the same
    record."""
    blocks = []
    block = RandomStream.block
    monkeypatch.setattr(RandomStream, "block",
                        lambda stream, j: blocks.append(j) or block(stream, j))
    for n in (MIN_TRIALS, 150_000, 10**9):
        a = estimate_outage(n, fixed_geom(), params, RandomStream(43))
        assert None not in a and a == estimate_outage(n, fixed_geom(), params,
                                                      RandomStream(43))
    assert blocks == [0] * 6

def test_estimate_outage_uplink1_cellular(params):
    t = OutageTargets.for_target(params.p_out_target)
    counts = estimate_outage(1_000_000, fixed_geom(), params, RandomStream(44))
    assert abs(binomial_z(counts.uplink1_lost, 1_000_000, t.p_out_nc)) < 3.0


def test_fading_marginals(params):
    n = 1_000_000
    h = RandomStream(46).block(0).exponential(params.sigma2_cell, n)
    assert abs(np.mean(h) - params.sigma2_cell) < 0.005 * params.sigma2_cell
    d, _ = stats.kstest(h, "expon", args=(0.0, params.sigma2_cell))
    assert d < 1.36 / math.sqrt(n) * 1.5


def test_slot_fading_independence(params):
    # the block kernel's order, exchange then slot 2 then slot 3, with slot 3
    # drawn for every trial: correlate slot 2 vs slot 3
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
    quad = cooperative_quadratic(dense_params, r1)
    mean, stderr = sample_power_distribution(n, rho, quad, RandomStream(48))
    samples = np.sort(draw_power_samples(n, rho, quad, RandomStream(48)).y)
    assert samples.shape == (n,)
    k = quad.law(rho)[2]
    assert samples[0] >= -0.25 * k * k  # the support's floor in y
    closed = expected_power(quad, rho)
    assert abs(mean - closed) < 3.0 * stderr
    ks = ks_distance(samples, lambda y: cdf_scale_free(y, k))
    assert ks < 0.005


@pytest.mark.parametrize("n", [100_003, 1_000_000])  # 100_003: a partial last block
@pytest.mark.parametrize("rho", [1e-7, 1e-4, 1.0])
def test_draw_power_samples_bitwise_the_block_expression(n, rho):
    """The in-place kernel gives the bits of u + k*v written out."""
    params = validate(SystemParams(rho=rho))
    quad = cooperative_quadratic(params, 2000.0)
    expected = power_samples_by_expression(n, rho, quad, RandomStream(52))
    for workers in (1, 2, 3):
        drawn = draw_power_samples(n, rho, quad, RandomStream(52), workers=workers).y
        assert np.array_equal(drawn, expected)


def test_block_kernel_cosine_within_two_ulp_of_one(monkeypatch):
    """The kernel's half-angle cosine is within 4.5e-16 (2 ulp of 1) of np.cos
    over the bearing range, including its ends and the cosine's -1 at pi.

    With every area exactly 2^-200 and k = 2^100, the kernel's totals
    2^-200 + 2^100*cos*2^-100 are its cosines: every product is exact, and
    2^-200 is below half an ulp of each cosine.
    """
    theta = RandomStream(56).block(0).uniform(-0.5 * math.pi, 1.5 * math.pi, 1_000_000)
    theta = np.concatenate((theta, [-0.5 * math.pi, 0.0, 0.5 * math.pi, math.pi,
                                    np.nextafter(1.5 * math.pi, -INF)]))
    monkeypatch.setattr(montecarlo, "sample_nn_geometries",
                        lambda rng, n: (np.full(n, 2.0 ** -200), theta.copy()))
    cos = np.empty(theta.size)
    montecarlo._power_block(None, theta.size, cos, 2.0 ** 100)
    assert np.isfinite(cos).all()
    assert np.max(np.abs(cos - np.cos(theta))) <= 4.5e-16
    assert cos[-2] == -1.0


@pytest.mark.parametrize("n", [100_003, 1_000_000])
@pytest.mark.parametrize("rho", [1e-7, 1e-4, 1.0])
def test_sample_power_distribution_moments_of_the_samples(n, rho):
    """Block sums of the placements give the whole sample's mean and spread:
    those of the totals c0 + A*y."""
    params = validate(SystemParams(rho=rho))
    quad = cooperative_quadratic(params, 2000.0)
    mean, stderr = sample_power_distribution(n, rho, quad, RandomStream(53))
    y = draw_power_samples(n, rho, quad, RandomStream(53)).y
    big_a = quad.law(rho)[0]
    # abs=0: approx's default abs of 1e-12 would swallow a stderr of 1e-10
    assert mean == pytest.approx(quad.c0 + big_a * np.mean(y), rel=1e-12, abs=0)
    assert stderr == pytest.approx(
        big_a * np.std(y, ddof=1) / math.sqrt(n), rel=1e-12, abs=0)


def test_draw_power_samples_moments_do_not_depend_on_the_density():
    """The kernel never sees the density: one stream gives the bits of
    (m_A, m_C) at every density."""
    moments = set()
    for rho in (1e-7, 1e-4, 1.0):
        quad = cooperative_quadratic(validate(SystemParams(rho=rho)), 2000.0)
        drawn = draw_power_samples(100_003, rho, quad, RandomStream(53))
        moments.add((drawn.m_a, drawn.m_c))
    assert len(moments) == 1


def test_one_draw_gives_each_densitys_mean_and_spread():
    """Every set of an array call reads one draw's density-free sums, and
    its mean and standard error are those of the totals c0 + A*y of the y
    that ``draw_power_samples`` writes from the same stream at that set alone."""
    n, rhos = 100_003, np.array([1e-7, 1e-4, 1.0])
    quads = [cooperative_quadratic(validate(SystemParams(rho=rho)), 2000.0) for rho in rhos]
    means, stderrs = sample_power_distribution(
        n, rhos, PowerQuadratic(*map(np.array, zip(*quads))), RandomStream(53), workers=2)
    for rho, quad, mean, stderr in zip(rhos, quads, means, stderrs):
        y = draw_power_samples(n, rho, quad, RandomStream(53)).y
        big_a = quad.law(rho)[0]
        assert mean == pytest.approx(quad.c0 + big_a * np.mean(y), rel=1e-14, abs=0)
        assert stderr == pytest.approx(big_a * np.std(y, ddof=1) / math.sqrt(n),
                                       rel=1e-14, abs=0)
        alone = sample_power_distribution(n, float(rho), quad, RandomStream(53))
        assert alone == pytest.approx((mean, stderr), rel=1e-15, abs=0)
        assert all(type(x) is float for x in alone)  # floats in, floats out


@pytest.mark.parametrize("rho", [1e-7, 1e-4, 1.0])
def test_sample_power_distribution_spread_follows_the_placement_law(rho):
    """Under the PPP, Var(pi*rho*r^2) = 1, Var(cos(theta)*sqrt(pi*rho)*r) = 1/2
    and their covariance is 0, so the round total's sd is sqrt(a^2/(pi*rho)^2
    + b_coeff^2/(2*pi*rho)).  At 1e6 placements the sampling sd of the
    estimate is ~1.4e-3 relative: a 1 % bound is ~7 sd."""
    n = 1_000_000
    quad = cooperative_quadratic(validate(SystemParams(rho=rho)), 2000.0)
    _, stderr = sample_power_distribution(n, rho, quad, RandomStream(57))
    law = math.sqrt((quad.a / (math.pi * rho)) ** 2 + quad.b_coeff ** 2 / (2 * math.pi * rho))
    assert stderr * math.sqrt(n) == pytest.approx(law, rel=0.01, abs=0)


# the five (rho, r1) sets of the validate report's section [c]
_SECTION_C_SETS = [(1e-5, 3000.0), (1e-4, 2000.0), (1e-3, 1000.0),
                   (3e-3, 500.0), (1e-2, 150.0)]


# one block; 4 and 10 blocks, the last one partial
@pytest.mark.parametrize("n", [MIN_TRIALS, 100_003, 300_001])
def test_placement_moments_give_each_sets_mean(dense_params, n):
    """The two moments of a draw give the mean of its totals: section [c]'s
    INFO lines.

    The moments are those of the reference placements, the same for any
    worker count, and ``mean_from_moments`` of them, ``A*m_A + B*m_C + c0``
    with A = a/(pi*rho) and B = b_coeff/sqrt(pi*rho), is the mean of the same
    call's totals c0 + A*y, to rounding, at any density.
    """
    area, theta = placements_by_expression(n, RandomStream(55))
    drawn = draw_power_samples(n, 1e-4, cooperative_quadratic(dense_params, 2000.0),
                               RandomStream(55))
    assert drawn.m_a == pytest.approx(np.mean(area), rel=1e-12, abs=0)
    assert drawn.m_c == pytest.approx(np.mean(np.cos(theta) * np.sqrt(area)), abs=1e-12)
    for rho, r1 in _SECTION_C_SETS:
        params = validate(dense_params._replace(rho=rho))
        quad = cooperative_quadratic(params, r1)
        for workers in (1, 2):
            y, m_a, m_c = draw_power_samples(n, rho, quad, RandomStream(55),
                                             workers=workers)
            assert montecarlo.mean_from_moments(quad, rho, m_a, m_c) == \
                pytest.approx(quad.c0 + quad.law(rho)[0] * np.mean(y), rel=1e-12, abs=0)


@pytest.mark.parametrize("bad", [0.0, -1e-4, math.nan, math.inf])
@pytest.mark.parametrize("extra_blocks", [0, 2, 4])
def test_bad_target_density_refused_before_any_draw(dense_params, monkeypatch,
                                                    bad, extra_blocks):
    """Every sampler checks the density before its first block draws, on any
    number of blocks and workers."""
    def no_draw(*args, **kwargs):
        raise AssertionError("placements were drawn")

    monkeypatch.setattr(montecarlo, "sample_nn_geometries", no_draw)
    quad = cooperative_quadratic(dense_params, 1500.0)
    n = MIN_TRIALS + extra_blocks * _BLOCK
    for sample in (lambda: sample_power_distribution(n, bad, quad, RandomStream(1),
                                                     workers=2),
                   lambda: draw_power_samples(n, bad, quad, RandomStream(1), workers=2)):
        with pytest.raises(ParameterError) as err:
            sample()
        assert err.value.field == "rho"


def test_sample_power_distribution_worker_invariance(dense_params):
    quad = cooperative_quadratic(dense_params, 1500.0)
    reps = [sample_power_distribution(120_000, 1e-4, quad, RandomStream(49), workers=w)
            for w in (1, 2, 3)]
    assert len(set(reps)) == 1


def test_draw_power_samples_worker_invariance(dense_params):
    """Threads fill disjoint slices of one array: with more workers than cores
    and frequent thread switches, every block still lands whole in its place,
    and the moments are summed in block order."""
    quad = cooperative_quadratic(dense_params, 1500.0)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        drawn = [draw_power_samples(1_000_000, 1e-4, quad, RandomStream(49), workers=w)
                 for w in (1, 2, 3)]
    finally:
        sys.setswitchinterval(switch)
    for d in drawn[1:]:
        assert np.array_equal(drawn[0].y, d.y)
        assert (d.m_a, d.m_c) == (drawn[0].m_a, drawn[0].m_c)


def test_power_sampling_refuses_too_few_trials(dense_params):
    quad = cooperative_quadratic(dense_params, 1500.0)
    with pytest.raises(ValueError, match="too small"):
        sample_power_distribution(MIN_TRIALS - 1, 1e-4, quad, RandomStream(1))
    with pytest.raises(ValueError, match="too small"):
        draw_power_samples(MIN_TRIALS - 1, 1e-4, quad, RandomStream(1))


def test_sample_power_distribution_refuses_a_density_before_drawing(monkeypatch):
    """At rho = 1e-300 the sum of r*r over the draw has no finite square at any
    rate: the density is named before a placement is drawn."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a placement was drawn")

    monkeypatch.setattr(montecarlo, "sample_nn_geometries", no_draw)
    quad = PowerQuadratic(a=1e-8, b_coeff=1e-4, c0=1.0)
    with pytest.raises(ParameterError) as err:
        sample_power_distribution(10_000, 1e-300, quad, RandomStream(7))
    assert err.value.field == "rho"


def test_sample_power_distribution_spread_overflow_names_rate():
    """The round totals are finite, but their squared deviations overflow."""
    params = validate(SystemParams(rate=1.05e9))
    quad = cooperative_quadratic(params, 2000.0)
    y = draw_power_samples(10_000, params.rho, quad, RandomStream(7)).y
    assert np.isfinite(quad.c0 + quad.law(params.rho)[0] * y).all()
    with pytest.raises(ParameterError) as err:
        sample_power_distribution(10_000, params.rho, quad, RandomStream(7), workers=2)
    assert err.value.field == "rate"


def _traced_peak(fn, *args, **kwargs):
    """Peak of the memory numpy and Python allocate during fn, over what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - held, result
    finally:
        tracemalloc.stop()


def test_power_sampling_memory(dense_params):
    """The moments hold about one block per worker, the samples one array."""
    n, rho, r1 = 1_000_000, dense_params.rho, 2000.0
    quad = cooperative_quadratic(dense_params, r1)
    sample_power_distribution(MIN_TRIALS, rho, quad, RandomStream(54),
                              workers=2)  # first-call imports stay out of the peak
    peak, _ = _traced_peak(sample_power_distribution, n, rho, quad, RandomStream(54),
                           workers=2)
    assert peak < n * 8 / 4
    peak, drawn = _traced_peak(draw_power_samples, n, rho, quad, RandomStream(54),
                               workers=2)
    assert drawn.y.nbytes == n * 8 and peak < 1.25 * n * 8


# --- KS statistic ---------------------------------------------------------------

def test_ks_distance_inverse_transform():
    n = 100_000
    u = np.sort(RandomStream(50).block(0).random(n))
    assert ks_distance(u, lambda p: p) < 1.36 / math.sqrt(n) * 1.5


def test_ks_distance_degenerate_cases():
    assert ks_distance(np.array([1.0, 2.0, 3.0]), np.zeros_like) == 1.0
    assert ks_distance(np.array([5.0]), lambda p: np.full(p.shape, 0.5)) == 0.5


def test_ks_distance_contract_errors():
    with pytest.raises(ValueError, match="sorted"):
        ks_distance(np.array([2.0, 1.0]), lambda p: p)
    with pytest.raises(ValueError, match="non-empty"):
        ks_distance(np.array([]), lambda p: p)
    with pytest.raises(TypeError, match="callable"):  # the CDF is a callable, not values
        ks_distance(np.array([0.2, 0.4]), np.array([0.2, 0.4]))
    assert ks_distance(np.array([0.2, 0.4]), lambda x: x) == pytest.approx(0.6)
    with pytest.raises(ValueError, match="non-decreasing"):
        ks_distance(np.array([0.2, 0.4]), lambda x: 1.0 - x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_distance_rejects_non_finite_samples(bad):
    """A NaN compares False either way, so a sortedness test alone lets it through."""
    with pytest.raises(ValueError, match="finite"):
        ks_distance(np.array([0.1, bad, 0.05]), lambda p: np.clip(p, 0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        ks_distance(np.array([0.1, 0.2, bad]), lambda p: np.clip(p, 0.0, 1.0))


@pytest.mark.parametrize("samples", [[-np.inf, 0.1, 0.2], [0.1, 0.2, np.inf],
                                     [0.1, 0.2, np.nan], [np.nan], [np.inf], [-np.inf]],
                         ids=["-inf-first", "inf-last", "nan-last", "nan", "inf", "-inf"])
def test_ks_distance_rejects_non_finite_ends(samples):
    """The one-pass check reads finiteness from the ends of a sorted sample; a
    single sample has no comparison, so its end check alone must refuse it."""
    with pytest.raises(ValueError, match="^samples must be finite$"):
        ks_distance(np.array(samples), lambda p: np.clip(p, 0.0, 1.0))


def test_ks_distance_evaluates_the_cdf_callable():
    samples = [0.2, 0.4, 0.9]
    assert ks_distance(samples, lambda p: np.clip(p, 0, 1)) == pytest.approx(4.0 / 15.0)
    with pytest.raises(ValueError, match="shape"):
        ks_distance(samples, lambda p: np.clip(p, 0, 1)[:2])


def test_ks_distance_takes_a_scalar_reference_cdf_mapped_over_points(dense_params):
    """A scalar CDF, such as the test oracle, is mapped over the points it is given."""
    quad = cooperative_quadratic(dense_params, 1500.0)
    big_a, _, k = quad.law(dense_params.rho)
    samples = np.concatenate([np.linspace(-0.25 * k * k, 0.0, 6)[1:],
                              quad.c0 / big_a * np.linspace(0.01, 0.5, 5)])
    assert ks_distance(samples, lambda y: [cdf_oracle(x, k) for x in y]) \
        == pytest.approx(ks_distance(samples, lambda y: cdf_scale_free(y, k)), abs=1e-9)


_STEPS = 7


@pytest.mark.parametrize("cdf", [lambda p: np.clip(p, 0.0, 1.0),
                                 lambda p: np.floor(np.clip(p, 0.0, 1.0) * _STEPS) / _STEPS,
                                 lambda p: 1.0 / (1.0 + np.exp(-8.0 * (p - 0.5)))],
                         ids=["uniform", "step", "logistic"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 30_000), seed=st.integers(0, 2**32 - 1),
       shift=st.floats(-0.02, 0.02), digits=st.integers(2, 6),
       below=st.floats(0.0, 0.3))
@example(n=1, seed=0, shift=0.0, digits=6, below=0.0)
@example(n=200, seed=1, shift=0.0, digits=2, below=0.0)
@example(n=30_000, seed=10, shift=0.0, digits=6, below=0.0)
def test_ks_distance_is_bitwise_the_full_statistic(cdf, n, seed, shift, digits, below):
    """The bracket's statistic is the one from the CDF at every sample, to the bit.

    Rounding to ``digits`` decimals makes ties, and the first ``below`` of the
    samples sit in a flat run where the CDF is 0.  n runs from below the
    coarse table's size (4 sqrt(n) points) to far above it.  At n = 30000 and
    seed 10 the uniform and logistic CDFs refine their hot cells over three
    levels (the step CDF's lie at one jump, and take one).
    """
    rng = np.random.default_rng(seed)
    samples = np.round(rng.random(n) + shift, digits)
    samples[: int(below * n)] = -rng.random(int(below * n))
    samples.sort()
    assert ks_distance(samples, cdf) == ks_distance_of_values(samples, cdf(samples))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(2, 6000), seed=st.integers(0, 2**32 - 1), rate=st.floats(0.0, 1.0))
def test_ks_distance_is_bitwise_the_full_statistic_on_staircases(n, seed, rate):
    """Random staircase CDFs on a grid of samples, with jumps at a share ``rate`` of them.

    Deviations then come in near-equal runs across many cells, so a cell bound
    short by a rank, or a table that leaves out an end, misses the maximum.
    """
    rng = np.random.default_rng(seed)
    steps = np.where(rng.random(n) < rate, rng.exponential(size=n), 0.0)
    values = np.cumsum(steps) / max(float(np.sum(steps)), 1.0)
    samples = np.arange(n, dtype=float)
    cdf = lambda p: values[p.astype(int)]  # noqa: E731
    assert ks_distance(samples, cdf) == ks_distance_of_values(samples, values)


@pytest.mark.parametrize("seed, rise", [(3, False), (1, True)], ids=["drop", "rise"])
def test_ks_distance_refuses_a_cdf_that_leaves_its_cell_inside_the_table(seed, rise):
    """A CDF monotone on the coarse table that leaves the range of its ends at
    the sample of the largest deviation, inside a table cell: below the value
    that opens the cell (that deviation is i/n - F at seed 3), or above the one
    that closes it (F - (i-1)/n at seed 1).  The refinement evaluates that
    sample and refuses it.
    """
    n = 10_000
    values = np.sort(np.random.default_rng(seed).random(n))
    i = np.arange(1, n + 1)
    below, above = i / n - values, values - (i - 1) / n
    assert (np.max(above) > np.max(below)) == rise
    k = math.isqrt(n) // montecarlo._KS_COARSE_PER_ROOT
    if rise:
        worst = int(np.argmax(above))
        values[worst] = values[min(worst - worst % k + k, n - 1)] + 1e-6
    else:
        worst = int(np.argmax(below))
        values[worst] = values[worst - worst % k] - 1e-6
    assert worst % k and np.all(np.diff(values[::k]) >= 0)  # inside a cell of a monotone table
    with pytest.raises(ValueError, match="non-decreasing"):
        ks_distance(np.arange(n, dtype=float), lambda p: values[p.astype(int)])


def test_ks_distance_takes_each_sample_once_at_under_10_sqrt_n_points():
    """Sorted uniforms with F(p) = p at 1e6 samples: the levels take each
    sample at most once, and under 10 sqrt(n) points in all."""
    n = 1_000_000
    for seed in range(5):
        samples = np.sort(np.random.default_rng(seed).random(n))
        assert np.all(np.diff(samples) > 0)  # so a point names its sample
        taken = []

        def cdf(p):
            taken.append(p)
            return p

        assert ks_distance(samples, cdf) == ks_distance_of_values(samples, samples)
        taken = np.concatenate(taken)
        assert taken.size < 10 * math.sqrt(n)
        assert np.unique(taken).size == taken.size


@pytest.mark.parametrize("pieces", [1, 2])
@pytest.mark.parametrize("rho, r1", [(1e-4, 2000.0), (0.1, 20_000.0), (1e-7, 50.0)])
def test_ks_distance_engine_cdf_is_bitwise_the_full_statistic(rho, r1, pieces):
    """The engine CDF, monotone to its 1e-10 error, gives the full statistic to the bit.

    The sample gets ties and a flat run below the floor -k^2/4, where the CDF is 0.
    The CDF takes the points of each call in ``pieces`` separate batches, so
    the statistic does not depend on how its points are batched.
    """
    params = validate(SystemParams(rho=rho))
    quad = cooperative_quadratic(params, r1)
    k = quad.law(rho)[2]
    drawn = draw_power_samples(20_000, rho, quad, RandomStream(51)).y
    samples = np.concatenate([drawn, drawn[::50], -0.25 * k * k - np.arange(5.0)])
    samples.sort()
    cdf = lambda y: np.concatenate([cdf_scale_free(piece, k)  # noqa: E731
                                    for piece in np.array_split(y, pieces)])
    assert ks_distance(samples, cdf) == ks_distance_of_values(samples, cdf(samples))
