"""Monte Carlo ground truth: the slotted protocol's counts, and PPP sampling.

Reproducibility contract: block ``j`` of a draw comes from a counter-based
generator keyed by ``(seed, stream_id, j)``.  The placement samplers run
their trials in fixed-size blocks through ``_sum_blocks`` and sum the block
results in block order, so a report is bit-identical for any worker count.

At a fixed placement the outcome counts of n rounds have an exact law, and
``estimate_outage`` and ``exchange_counts`` draw them from it on block 0, at a
cost that does not grow with n.  A dataset draws once for all its rows
(common random numbers): ``exchange_counts`` counts one exchange draw at each
row's threshold, and ``sample_power_distribution`` reads the sums of one
placement draw at each row's density.  Both placement samplers run one block
kernel, which never sees the density: it forms u = pi*rho*r^2 and v =
cos(theta)*sqrt(pi*rho)*r, and the round total at density rho is A*u + B*v +
c0 = c0 + A*(u + k*v) (``PowerQuadratic.law``).
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import partial
from typing import NamedTuple

import numpy as np

from . import powermodel
from .distribution import PowerQuadratic
from .geometry import Geometry, require_density, sample_nn_geometries
from .params import ParameterError, SystemParams
from .powermodel import Link, PowerBreakdown

MIN_TRIALS = 10_000  # reported confidence intervals are meaningless below this
_BLOCK = 1 << 15
# ks_distance's coarse table takes every k-th sample, k = isqrt(n) // this, so
# about 4*sqrt(n) points; each level splits a hot cell into about this many
_KS_COARSE_PER_ROOT = 4
_KS_SPLIT = 4
# hot cells holding at most this many samples in all are taken whole: a CDF
# call costs ~0.05 ms even at one point, about as much as 120 points more
_KS_FINISH = 256
# slack on ks_distance's cell bounds, above twice the CDF engine's 1e-10 error
_KS_SLACK = 1e-9
# below this density r*r has no finite variance, 1/(pi*rho)^2 m^4
_RHO_MIN = 1.0 / (math.pi * math.sqrt(sys.float_info.max))


class RandomStream(NamedTuple):
    """Counter-based random source, fully determined by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def block(self, index: int) -> np.random.Generator:
        """Independent generator for one trial block."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, index))
        return np.random.Generator(np.random.Philox(seq))


class ProtocolCounts(NamedTuple):
    """What ``estimate_outage`` counted over ``n_trials`` rounds at one placement."""

    n_trials: int
    exchanged: int      # rounds whose exchange succeeded (delta = 0)
    mean_energy: float  # mean round energy, J
    energy_stderr: float
    lost_d1: int        # rounds that lost message 1
    lost_d2: int        # rounds that lost message 2
    outages: int        # composite outages
    uplink1_lost: int   # handset 1's failed slot-2 uplinks
    conv_outages: int   # the baseline's composite outages


def require_exchange_distance(r: float, params: SystemParams) -> None:
    """The exchange's free-space budget is undefined at zero or infinite
    distance, and its power zeta*r*r must be a normal float: at 0 no exchange
    decodes, at inf every round's energy is inf."""
    if not (math.isfinite(r) and r > 0):
        raise ParameterError("r", f"must be finite and > 0 for the exchange, got {r!r}")
    p12 = powermodel.power_coefficients(params).zeta * r * r
    if not sys.float_info.min <= p12 < math.inf:
        raise ParameterError("r", f"{r!r} m gives the exchange power {p12:.3g} W, "
                                  "outside the normal floating-point range; change "
                                  "r, the rate or the noise density")


def _energy_stderr(mean, var, n: int, where: str):
    """Element-wise standard error of n round energies' mean; an overflow names the rate."""
    if not np.all(np.isfinite(mean) & (0.0 <= var) & (var < math.inf)):
        raise ParameterError(
            "rate", f"the mean or the spread of the round energy {where} "
                    f"overflows (mean {np.max(mean):.3g}); lower the rate or the distances")
    return np.sqrt(var / n) if np.ndim(var) else math.sqrt(var / n)


def exchange_energy(n: int, exchanged: int, powers: PowerBreakdown) -> tuple[float, float]:
    """Mean and standard error of the energy of n rounds at ``powers``, ``exchanged``
    of them with a successful exchange, which alone sets a round's energy."""
    cellular = powers.p1b + powers.p2b
    e1 = 2.0 * powers.p12 + cellular                 # delta = 1 rounds
    e0 = e1 + cellular                               # delta = 0 rounds
    mean_e = (exchanged * e0 + (n - exchanged) * e1) / n
    # two energies ``cellular`` apart: their exact sample variance, inf if it overflows
    var_e = cellular * cellular * (exchanged * (n - exchanged) / (n * max(n - 1, 1)))
    return mean_e, _energy_stderr(mean_e, var_e, n, "at this placement")


def _thresholds(geom: Geometry, powers: PowerBreakdown, params: SystemParams):
    """Fading thresholds of the exchange (either direction) and of each uplink."""
    return (Link.short(params).threshold(powers.p12, geom.r),
            Link.cellular(params, 1).threshold(powers.p1b, geom.r1),
            Link.cellular(params, 2).threshold(powers.p2b, geom.r2))


def protocol_round(delta0, own1, own2, relay1, relay2):
    """Delivery and composite outage of cooperation rounds, element-wise.

    Slot 1 is the exchange, successful where ``delta0``.  In slot 2 each
    handset uplinks its own message (``own1``, ``own2``: the uplink met the
    rate); after a successful exchange each also relays its partner's message
    in slot 3 (``relay1``: handset 2's copy of message 1, ``relay2``: handset
    1's copy of message 2), and a message is delivered if either copy met the
    rate.  After a failed exchange only the solo slot-2 uplinks run, which is
    the conventional scheme.  The composite outage reproduces the event
    algebra the per-link targets were derived from: after a successful
    exchange it fires when both copies of message 1 fail, after a failed one
    when at least one solo uplink fails.  Returns ``(d1, d2, composite)``.
    """
    d1 = own1 | (delta0 & relay1)
    d2 = own2 | (delta0 & relay2)
    return d1, d2, np.where(delta0, ~d1, ~(d1 & d2))


def _in_order(calls, workers: int) -> list:
    """The results of the zero-argument ``calls``, in call order.

    The calls are cut into k = min(workers, len(calls)) runs of consecutive
    calls.  The calling thread does run 0 and each other run gets a pool
    thread, so one worker starts no thread.  An error is raised once every
    run has ended, the first in call order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    k = min(workers, len(calls))
    if k <= 1:
        return [call() for call in calls]
    runs = [calls[len(calls) * i // k:len(calls) * (i + 1) // k] for i in range(k)]
    from concurrent.futures import ThreadPoolExecutor  # loads logging: only for a pool

    # leaving the with block joins the threads, also when run 0 raises
    with ThreadPoolExecutor(max_workers=k - 1) as pool:
        later = [pool.submit(_in_order, run, 1) for run in runs[1:]]
        results = _in_order(runs[0], 1)
    for future in later:
        results += future.result()
    return results


def _sort_in_place(samples: np.ndarray, workers: int) -> None:
    """Sort the 1-D ``samples`` ascending in place, value for value as ``np.sort``.

    One worker calls ``ndarray.sort``.  More ``partition`` at rank h = n // 2 without a
    copy (Hoare's FIND: none larger before index h, none smaller after), then
    ``_in_order`` sorts the two halves on two threads, as ``ndarray.sort`` releases the GIL.
    """
    if workers == 1:  # on one thread the partition is only extra work
        return samples.sort()
    h = samples.size // 2
    samples.partition(h)
    _in_order([samples[:h].sort, samples[h + 1:].sort], workers)


def _require_trials(n: int) -> None:
    if n < MIN_TRIALS:
        raise ValueError(
            f"n={n} is too small for meaningful confidence intervals; "
            f"need at least {MIN_TRIALS} trials")


def _sum_blocks(n: int, stream: RandomStream, workers: int, block_fn) -> list:
    """Block-order sums of the columns ``block_fn(stream.block(j), start, size)``
    returns for the blocks j of n trials, run by ``_in_order``.  The columns are
    Python numbers, so the sums overflow to inf, never to a warning.
    """
    _require_trials(n)

    def block(j):
        start = j * _BLOCK
        return block_fn(stream.block(j), start, min(_BLOCK, n - start))

    blocks = _in_order([partial(block, j) for j in range((n + _BLOCK - 1) // _BLOCK)],
                       workers)
    return [sum(column) for column in zip(*blocks)]


def _meets(threshold: float, sigma2: float) -> tuple[float, float]:
    """Pr(h >= threshold) and Pr(h < threshold) for a Rayleigh fading power
    gain h of mean ``sigma2``; the complement is formed with ``expm1``."""
    x = threshold / sigma2
    return math.exp(-x), -math.expm1(-x)


def _round_classes(geom: Geometry, params: SystemParams):
    """A round's independent link events at ``_thresholds``, by outcome class.

    The exchange succeeds (delta = 0) where min(h12, h21), of mean
    sigma2_short/2, meets t12.  Given it, each slot-2 fade lies below both its
    thresholds (the cooperative and the baseline's), between or above both,
    and each slot-3 copy meets its threshold or not: 36 classes, the likeliest
    last.  Returns the exchange's ``_meets`` pair, the columns ``(delta0, own1,
    own2, relay1, relay2, conv1, conv2)`` of the 36 classes after a successful
    exchange and then after a failed one, and the 36 conditional probabilities.
    """
    coop = powermodel.power_breakdown(geom, powermodel.power_coefficients(params))
    t12, t1b, t2b = _thresholds(geom, coop, params)
    conv = powermodel.power_breakdown(geom, powermodel.conventional_coefficients(params))
    _, c1b, c2b = _thresholds(geom, conv, params)

    def slot2(t, c):  # ((own, conv), probability) below both, between, above both
        below_lo = _meets(min(t, c), params.sigma2_cell)[1]
        above_hi, below_hi = _meets(max(t, c), params.sigma2_cell)
        return (((False, False), below_lo), ((t < c, c < t), below_hi - below_lo),
                ((True, True), above_hi))

    def slot3(t):  # (copy delivered, probability)
        meets, misses = _meets(t, params.sigma2_cell)
        return (False, misses), (True, meets)

    rows = [(u1 + u2 + (r1, r2), p1 * p2 * q1 * q2)
            for (u1, p1), (u2, p2), (r1, q1), (r2, q2)
            in itertools.product(slot2(t1b, c1b), slot2(t2b, c2b), slot3(t2b), slot3(t1b))]
    events, probs = zip(*rows)
    own1, conv1, own2, conv2, relay1, relay2 = np.tile(np.array(events).T, 2)
    delta0 = np.repeat([True, False], len(probs))
    return (_meets(t12, 0.5 * params.sigma2_short),
            (delta0, own1, own2, relay1, relay2, conv1, conv2), np.array(probs))


def estimate_outage(n: int, geom: Geometry, params: SystemParams,
                    stream: RandomStream) -> ProtocolCounts:
    """Outcome counts of n protocol rounds at a fixed placement, fresh fading
    per round, and the mean round energy (``exchange_energy``).

    The counts are drawn from their exact law on ``stream.block(0)``: the
    exchange count k ~ Bin(n, Pr(delta = 0)), then the ``_round_classes`` of
    the k rounds with a successful exchange and of the other n - k, one
    multinomial each.  ``protocol_round`` runs once on the class columns, and
    each count sums the classes where its event fires.  The baseline's solo
    uplinks read the same slot-2 fades at its own thresholds (``conv_outages``).
    """
    require_exchange_distance(geom.r, params)
    _require_trials(n)
    (p_exchange, _), events, probs = _round_classes(geom, params)
    rng = stream.block(0)
    exchanged = int(rng.binomial(n, p_exchange))
    counts = np.concatenate([rng.multinomial(m, probs) for m in (exchanged, n - exchanged)])
    delta0, own1, own2, relay1, relay2, conv1, conv2 = events
    d1, d2, composite = protocol_round(delta0, own1, own2, relay1, relay2)
    conv = protocol_round(False, conv1, conv2, False, False)[2]
    lost = [int(counts[event].sum()) for event in (~d1, ~d2, composite, ~own1, conv)]
    powers = powermodel.power_breakdown(geom, powermodel.power_coefficients(params))
    return ProtocolCounts(n, exchanged, *exchange_energy(n, exchanged, powers), *lost)


def exchange_counts(n: int, thresholds, sigma2: float, stream: RandomStream) -> list[int]:
    """Of n exchanges on one fading draw, how many succeed at each threshold.

    An exchange succeeds at t iff min(h12, h21) >= t, with probability q(t) =
    exp(-2t/``sigma2``).  The counts' exact joint law is a chain of binomials,
    drawn on ``stream.block(0)`` at the thresholds sorted ascending: k_1 ~
    Bin(n, q_1), k_j ~ Bin(k_{j-1}, q_j/q_{j-1}), and 0 past a q of 0.  So at
    t12 alone the count is ``estimate_outage``'s ``exchanged`` on the same
    stream.  Returns Python ints in the order of ``thresholds``.
    """
    _require_trials(n)
    rng = stream.block(0)
    counts = [0] * len(thresholds)
    k, q_prev = n, 1.0
    for i in sorted(range(len(thresholds)), key=lambda i: thresholds[i]):
        q = _meets(thresholds[i], 0.5 * sigma2)[0]
        k = counts[i] = int(rng.binomial(k, q / q_prev)) if q_prev else 0
        q_prev = q
    return counts


def _power_block(rng, size: int, out=None, k=None):
    """Sums of u = pi*rho*r^2 and v = cos(theta)*sqrt(pi*rho)*r over ``size``
    placements; neither depends on rho, so the block takes r at pi*rho = 1.

    cos(theta) is ``2/(1 + tan(theta/2)**2) - 1``, within 4.5e-16 of ``np.cos``;
    v and u are then formed in place of the cosine and r.  With ``out`` the
    block writes the scale-free totals ``u + k*v`` there in draw order, in
    place, the bits of the expression; without, it also sums u*u, u*v and v*v.
    """
    area, theta = sample_nn_geometries(rng, size)
    r = np.sqrt(area, out=area)
    # the half-angle cosine: numpy vectorises its float64 tan, not its cos;
    # at theta = pi, tan is ~1.6e16 and the cosine exactly -1
    theta *= 0.5
    np.tan(theta, out=theta)
    theta *= theta
    theta += 1.0
    np.divide(2.0, theta, out=theta)
    theta -= 1.0
    # einsum without optimize sums in numpy's own loop: no BLAS, no temporary
    sums = (np.einsum("i,i->", r, r), np.einsum("i,i->", theta, r))
    theta *= r
    r *= r
    if out is None:
        return sums + (np.einsum("i,i->", r, r), np.einsum("i,i->", r, theta),
                       np.einsum("i,i->", theta, theta))
    theta *= k
    np.add(r, theta, out=out)
    return sums


def _placement_sums(n: int, stream: RandomStream, workers: int, k=None,
                    y: np.ndarray | None = None) -> list[float]:
    """``_power_block``'s sums over n placements (``_sum_blocks``); with
    ``y``, each block fills its slice."""
    def block_fn(rng, start, size):
        out = None if y is None else y[start:start + size]
        return [float(s) for s in _power_block(rng, size, out, k)]

    return _sum_blocks(n, stream, workers, block_fn)


def mean_from_moments(quad: PowerQuadratic, rho, m_a, m_c):
    """Mean round total ``A*m_a + B*m_c + c0`` (``PowerQuadratic.law``) of a
    draw with placement moments m_a and m_c; element-wise on arrays."""
    big_a, big_b, _ = quad.law(rho)
    return big_a * m_a + big_b * m_c + quad.c0


class PowerSamples(NamedTuple):
    """Scale-free totals y = u + k*v of n placements in draw order (the round
    totals are c0 + A*y, ``PowerQuadratic.law``), and two moments of the draw.

    ``m_a`` is the sample mean of u = pi*rho*r^2 (mean 1, variance 1) and
    ``m_c`` that of v = cos(theta)*sqrt(pi*rho)*r (mean 0, variance 1/2,
    uncorrelated with u); neither depends on rho.  The mean of c0 + A*y is,
    to rounding, ``mean_from_moments(quad, rho, m_a, m_c)``.
    """

    y: np.ndarray
    m_a: float
    m_c: float


def draw_power_samples(n: int, rho: float, quad: PowerQuadratic,
                       stream: RandomStream, workers: int = 1) -> PowerSamples:
    """The ``PowerSamples`` of n random placements of ``quad`` at ``rho``:
    the scale-free totals unsorted, block j filling its own slice of one
    array.  The draws are those ``sample_power_distribution`` summarises on
    the same stream."""
    k = quad.law(rho)[2]
    y = np.empty(n)
    sum_u, sum_v = _placement_sums(n, stream, workers, k, y)
    return PowerSamples(y, sum_u / n, sum_v / n)


def sample_power_distribution(n: int, rho, quad: PowerQuadratic, stream: RandomStream,
                              workers: int = 1):
    """``(mean, stderr)`` of the round total ``quad`` over n random placements.

    ``rho`` and ``quad``'s coefficients may be arrays, one entry per set; floats
    give floats.  Every set reads one draw, as u = pi*rho*r^2 and v =
    cos(theta)*sqrt(pi*rho)*r do not depend on rho: with A and B of
    ``PowerQuadratic.law`` the mean is ``mean_from_moments`` and the variance
    A^2*Var(u) + 2*A*B*Cov(u, v) + B^2*Var(v), sample (co)variances from block
    sums.  A density at which r*r has no finite variance is refused first.
    """
    require_density(rho)
    if not np.all(np.asarray(rho) >= _RHO_MIN):
        raise ParameterError("rho", f"{float(np.min(rho))!r} handsets/m^2 give r*r a "
                                    "variance beyond the floating-point range; raise rho")
    sum_u, sum_v, sum_uu, sum_uv, sum_vv = _placement_sums(n, stream, workers)
    var_u = (sum_uu - sum_u * sum_u / n) / (n - 1)
    cov_uv = (sum_uv - sum_u * sum_v / n) / (n - 1)
    var_v = (sum_vv - sum_v * sum_v / n) / (n - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf is refused below
        a, b, _ = quad.law(rho)
        mean = a * (sum_u / n) + b * (sum_v / n) + quad.c0  # ``mean_from_moments``
        var = a * a * var_u + 2.0 * a * b * cov_uv + b * b * var_v
    return mean, _energy_stderr(mean, var, n, "over placements")


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov statistic between sorted samples and a model CDF.

    ``samples`` must be finite and sorted ascending.  ``cdf`` is a
    non-decreasing callable that maps an array of points to the model CDF's
    values there, an array of the same shape, e.g.
    ``lambda y: cdf_scale_free(y, k)``.  The statistic is the
    largest of ``i/n - F(s_i)`` and ``F(s_i) - (i-1)/n`` over the ranks i.

    It is exact without evaluating ``cdf`` at every sample.  ``cdf`` first
    takes a coarse table of every k-th sample (and the last), k = floor(sqrt(n)
    / ``_KS_COARSE_PER_ROOT``), about 4*sqrt(n) points, whose largest
    deviation D_lo is a lower bound of the statistic.  Between two evaluated
    samples q and q' every sample s has F(q) <= F(s) <= F(q'), so a cell's
    deviations are at most (rank of its last sample)/n - F(q) and F(q') -
    (rank of its first sample - 1)/n.  A cell is hot when that bound plus
    ``_KS_SLACK`` exceeds D_lo.  Level by level, ``cdf`` takes the samples
    that split each hot cell into sub-cells 1/``_KS_SPLIT`` of its width
    (rounded up, so a cell at most ``_KS_SPLIT`` wide has every sample
    taken; every sample of the hot cells is taken once they hold at most
    ``_KS_FINISH``), D_lo rises to the largest deviation seen, and the hot
    sub-cells go on to the next level, until no cell with a sample inside is
    hot.  The cells left behind cannot hold the statistic, so the result is
    the full statistic bit for bit and ``cdf`` sees each sample at most once,
    provided each value of ``cdf`` depends on its own point alone and
    ``cdf`` is monotone to within ``_KS_SLACK`` (section [b]'s ``cdf_scale_free``
    values are each within 1e-10 of a monotone CDF).  A table that decreases
    by more than that, or a value outside [F(q) - ``_KS_SLACK``, F(q') +
    ``_KS_SLACK``] of its cell, is a ``ValueError``.

    At 1e6 samples ``cdf`` takes five calls: 6007 points on ``validate --seed
    7``'s scale-free draw y, and 5042-6623 on sorted uniforms, F(p) = p, seeds 0-4.
    """
    if not callable(cdf):
        raise TypeError(f"cdf must be a callable, got {type(cdf).__name__}")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    # one pass: a NaN fails every comparison, so sorted with finite ends is finite
    if not ((samples[1:] >= samples[:-1]).all()
            and math.isfinite(samples[0]) and math.isfinite(samples[-1])):
        if not np.isfinite(samples).all():
            raise ValueError("samples must be finite")
        raise ValueError("samples must be sorted ascending")
    n = samples.size

    def deviation(index):  # largest deviation at the samples of these 0-based indices
        points = samples[index]
        f = np.asarray(cdf(points), dtype=float)
        if f.shape != points.shape:
            raise ValueError(f"cdf returned shape {f.shape} for points of shape "
                             f"{points.shape}")
        i = index + 1
        return f, max(np.max(i / n - f), np.max(f - (i - 1) / n))

    table = np.arange(0, n, max(1, math.isqrt(n) // _KS_COARSE_PER_ROOT))
    if table[-1] != n - 1:
        table = np.append(table, n - 1)
    f_table, d_lo = deviation(table)
    if np.any(f_table[1:] < f_table[:-1] - _KS_SLACK):
        raise ValueError("cdf must be non-decreasing")
    # the cells: consecutive evaluated samples lo < hi, and F there
    lo, hi, f_lo, f_hi = table[:-1], table[1:], f_table[:-1], f_table[1:]
    while True:
        bound = np.maximum(hi / n - f_lo, f_hi - (lo + 1) / n)
        hot = (bound + _KS_SLACK > d_lo) & (hi - lo > 1)
        if not hot.any():
            return float(d_lo)
        lo, hi, f_lo, f_hi = lo[hot], hi[hot], f_lo[hot], f_hi[hot]
        # split each cell at lo + j*step, step = ceil(width / _KS_SPLIT), or 1
        inside = hi - lo - 1
        step = -(-(hi - lo) // _KS_SPLIT) if inside.sum() > _KS_FINISH else np.ones_like(lo)
        counts = inside // step + 1  # sub-cells per cell
        cell = np.repeat(np.arange(lo.size), counts)  # each sub-cell's cell
        j = np.arange(cell.size) - np.repeat(np.cumsum(counts) - counts, counts)
        first, last = j == 0, j == counts[cell] - 1
        sub_lo, inner = lo[cell] + j * step[cell], ~first
        f_new, d_new = deviation(sub_lo[inner])
        if np.any((f_new < f_lo[cell[inner]] - _KS_SLACK)
                  | (f_new > f_hi[cell[inner]] + _KS_SLACK)):
            raise ValueError("cdf must be non-decreasing")
        d_lo = max(d_lo, d_new)
        sub_f_lo, sub_f_hi = np.empty(cell.size), np.empty(cell.size)
        sub_f_lo[first], sub_f_lo[inner] = f_lo, f_new
        sub_f_hi[last], sub_f_hi[~last] = f_hi, f_new
        lo, hi = sub_lo, np.minimum(sub_lo + step[cell], hi[cell])
        f_lo, f_hi = sub_f_lo, sub_f_hi
