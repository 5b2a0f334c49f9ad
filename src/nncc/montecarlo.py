"""Monte Carlo ground truth: fading, the slotted protocol, and PPP sampling.

Reproducibility contract: every estimator consumes randomness through
fixed-size blocks, block ``j`` drawing from a counter-based generator keyed by
``(seed, stream_id, j)``.  Partial results are reduced in block order, so a
report is bit-identical for any worker count, and distinct ``stream_id``
values give statistically independent experiments.

Placement sampling has three entry points on one block draw.
``draw_power_samples`` writes the round totals into one preallocated array;
``sample_power_distribution`` and ``placement_moments`` keep only per-block
sums and never hold more than one block per worker.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import powermodel
from .distribution import PowerQuadratic
from .geometry import Geometry, nn_distance, require_density, sample_nn_geometries
from .params import LinearParams, ParameterError
from .powermodel import Link, PowerBreakdown

MIN_TRIALS = 10_000  # reported confidence intervals are meaningless below this
_BLOCK = 1 << 15
# ks_distance tabulates the CDF at about this many points per sqrt(n) samples
_KS_TABLE_PER_ROOT = 16
# slack on ks_distance's cell bounds, above twice the CDF engine's 1e-10 error
_KS_SLACK = 1e-9


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random source, fully determined by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def block(self, index: int) -> np.random.Generator:
        """Independent generator for one trial block."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, index))
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class McReport:
    """Aggregated empirical statistics with standard errors."""

    n_trials: int
    outage_d1: float | None = None
    outage_d1_stderr: float | None = None
    outage_d2: float | None = None
    outage_d2_stderr: float | None = None
    outage_composite: float | None = None
    outage_composite_stderr: float | None = None
    delta0_rate: float | None = None
    delta0_stderr: float | None = None
    uplink1_outage: float | None = None
    uplink1_outage_stderr: float | None = None
    mean_energy: float | None = None
    energy_stderr: float | None = None


def _binom_stderr(p_hat: float, n: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / n)


def _require_trials(n: int) -> None:
    if n < MIN_TRIALS:
        raise ValueError(
            f"n={n} is too small for meaningful confidence intervals; "
            f"need at least {MIN_TRIALS} trials")


def require_exchange_distance(r: float) -> None:
    """The exchange's free-space budget is undefined at zero or infinite distance."""
    if not (math.isfinite(r) and r > 0):
        raise ParameterError("r", f"must be finite and > 0 for the exchange, got {r!r}")


def _finite_energy(mean: float, stderr: float, where: str) -> None:
    """Round energies whose mean or spread overflows make the rate infeasible."""
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ParameterError(
            "rate", f"the mean or the spread of the round energy {where} "
                    f"overflows (mean {mean:.3g}); lower the rate or the distances")


def _thresholds(geom: Geometry, powers: PowerBreakdown, params: LinearParams):
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


def _map_blocks(n: int, workers: int, block_fn):
    """``block_fn(j, size)`` for every block of n trials, on up to ``workers`` threads.

    Results come back in block order whatever order the blocks finish in, so
    a reduction over them does not depend on ``workers``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    blocks = range((n + _BLOCK - 1) // _BLOCK)
    sizes = [min(_BLOCK, n - j * _BLOCK) for j in blocks]
    if workers == 1 or len(blocks) <= 1:
        return list(map(block_fn, blocks, sizes))
    with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        return list(pool.map(block_fn, blocks, sizes))


def estimate_outage(n: int, geom: Geometry, params: LinearParams,
                    stream: RandomStream, scheme: str = "nncc",
                    workers: int = 1) -> McReport:
    """Empirical outage rates at a fixed placement, fresh fading per trial.

    ``scheme="conventional"`` runs the failed-exchange branch of the round,
    solo uplinks at the baseline's powers, in every trial.  ``uplink1_outage``
    counts handset 1's failed slot-2 uplinks, whose target is ``p_out_nc``
    for the cooperative scheme and ``p_out_c`` for the conventional one.
    """
    _require_trials(n)

    if scheme == "nncc":
        require_exchange_distance(geom.r)
        powers = powermodel.nncc_power_breakdown(geom, params)
    elif scheme == "conventional":
        powers = powermodel.conventional_power(geom, params)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    cooperative = scheme == "nncc"
    t12, t1b, t2b = _thresholds(geom, powers, params)
    sig_s, sig_c = params.sigma2_short, params.sigma2_cell

    def block_fn(j, size):
        rng = stream.block(j)
        delta0 = relay1 = relay2 = False  # the conventional round: no exchange
        if cooperative:
            h12 = rng.exponential(sig_s, size)
            h21 = rng.exponential(sig_s, size)
            delta0 = (h12 >= t12) & (h21 >= t12)
        own1 = rng.exponential(sig_c, size) >= t1b
        own2 = rng.exponential(sig_c, size) >= t2b
        if cooperative:
            relay2 = rng.exponential(sig_c, size) >= t1b  # slot-3 use of U1's uplink
            relay1 = rng.exponential(sig_c, size) >= t2b
        d1, d2, composite = protocol_round(delta0, own1, own2, relay1, relay2)
        return (int(np.sum(~d1)), int(np.sum(~d2)), int(np.sum(composite)),
                int(np.sum(delta0)), int(np.sum(~own1)))

    parts = _map_blocks(n, workers, block_fn)
    lost1, lost2, comp, n_delta0, own1_lost = (sum(p[i] for p in parts)
                                               for i in range(5))

    if cooperative:
        cellular = powers.p1b + powers.p2b
        e1 = 2.0 * powers.p12 + cellular                 # delta = 1 rounds
        e0 = e1 + cellular                               # delta = 0 rounds
        mean_e = (n_delta0 * e0 + (n - n_delta0) * e1) / n
        try:
            var_e = (n_delta0 * (e0 - mean_e) ** 2
                     + (n - n_delta0) * (e1 - mean_e) ** 2) / max(n - 1, 1)
        except OverflowError:  # float ** raises where * would give inf
            var_e = math.inf
        delta0_rate = n_delta0 / n
    else:
        mean_e, var_e, delta0_rate = powers.total, 0.0, None
    energy_stderr = math.sqrt(var_e / n)
    _finite_energy(mean_e, energy_stderr, "at this placement")

    return McReport(
        n_trials=n,
        outage_d1=lost1 / n, outage_d1_stderr=_binom_stderr(lost1 / n, n),
        outage_d2=lost2 / n, outage_d2_stderr=_binom_stderr(lost2 / n, n),
        outage_composite=comp / n, outage_composite_stderr=_binom_stderr(comp / n, n),
        delta0_rate=delta0_rate,
        delta0_stderr=None if delta0_rate is None else _binom_stderr(delta0_rate, n),
        uplink1_outage=own1_lost / n,
        uplink1_outage_stderr=_binom_stderr(own1_lost / n, n),
        mean_energy=mean_e, energy_stderr=energy_stderr,
    )


def _power_block(rng, rho: float, quad: PowerQuadratic, size: int, out: np.ndarray):
    """Round totals of ``size`` placements written into ``out``, in draw order:
    ``a*r*r + b_coeff*cos(theta)*r + c0``, each operation in place, the same bits."""
    area, theta = sample_nn_geometries(rng, None, size)
    r = nn_distance(area, rho, out=area)
    np.cos(theta, out=theta)
    theta *= quad.b_coeff
    theta *= r
    np.multiply(quad.a, r, out=out)
    out *= r
    out += theta
    out += quad.c0
    return out


def draw_power_samples(n: int, rho: float, r1: float, params: LinearParams,
                       stream: RandomStream, workers: int = 1) -> np.ndarray:
    """The round totals of n random placements, in draw order, unsorted.

    Block j fills its own slice of one preallocated array.  The values are
    those ``sample_power_distribution`` summarises on the same stream.
    """
    _require_trials(n)
    require_density(rho)
    quad = PowerQuadratic.from_params(params, r1)
    totals = np.empty(n)

    def block_fn(j, size):
        start = j * _BLOCK
        _power_block(stream.block(j), rho, quad, size, totals[start:start + size])

    _map_blocks(n, workers, block_fn)
    return totals


def sample_power_distribution(n: int, rho: float, quad: PowerQuadratic,
                              stream: RandomStream, workers: int = 1) -> McReport:
    """Mean and standard error of the round total ``quad`` over n random placements.

    No n-sized array is built: each block reduces its totals to ``(size,
    mean, M2)``, M2 the sum of squared deviations from the block mean, and
    the blocks are merged in block order by the pairwise update of Chan,
    Golub & LeVeque (1983), so the result does not depend on ``workers``.
    ``draw_power_samples`` returns the totals themselves.
    """
    _require_trials(n)
    require_density(rho)

    def block_fn(j, size):
        totals = _power_block(stream.block(j), rho, quad, size, np.empty(size))
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            mean = float(np.mean(totals))
            totals -= mean
            np.square(totals, out=totals)
            return size, mean, float(np.sum(totals))

    (count, mean, m2), *rest = _map_blocks(n, workers, block_fn)
    for size, block_mean, block_m2 in rest:
        total = count + size
        delta = block_mean - mean  # Python floats: inf or nan, never a warning
        mean += delta * size / total
        m2 += block_m2 + delta * delta * count * size / total
        count = total
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    _finite_energy(mean, stderr, f"over placements at rho = {rho:g}")
    return McReport(n_trials=n, mean_energy=mean, energy_stderr=stderr)


def placement_moments(n: int, rho: float, stream: RandomStream,
                      workers: int = 1) -> tuple[float, float]:
    """Sample means m_A of pi*rho*r^2 (mean 1, variance 1) and m_C of
    cos(theta)*sqrt(pi*rho)*r (mean 0, variance 1/2, uncorrelated with m_A).

    A round total's mean on the same draw is, to rounding, ``a*m_A/(pi*rho) +
    b_coeff*m_C/sqrt(pi*rho) + c0`` at any density.  Block sums are added in
    block order, so the result does not depend on ``workers``.
    """
    _require_trials(n)
    require_density(rho)

    def block_fn(j, size):
        area, theta = sample_nn_geometries(stream.block(j), None, size)
        r = nn_distance(area, rho, out=area)
        np.cos(theta, out=theta)
        theta *= r
        r *= r
        return float(np.sum(r)), float(np.sum(theta))

    parts = _map_blocks(n, workers, block_fn)
    scale = math.pi * rho
    return (scale * sum(p[0] for p in parts) / n,
            math.sqrt(scale) * sum(p[1] for p in parts) / n)


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov statistic between sorted samples and a model CDF.

    ``samples`` must be finite and sorted ascending.  ``cdf`` is a
    non-decreasing callable that maps an array of points to the model CDF's
    values there, an array of the same shape, e.g.
    ``lambda p: cdf_reference_batch(p, quad, rho)``.  The statistic is the
    largest of ``i/n - F(s_i)`` and ``F(s_i) - (i-1)/n`` over the ranks i.

    It is exact without evaluating ``cdf`` at every sample.  ``cdf`` first
    takes a table of every k-th sample (and the last), k = floor(sqrt(n) /
    ``_KS_TABLE_PER_ROOT``), about 16*sqrt(n) points, whose largest deviation
    D_lo is a lower bound of the statistic.  Between two table samples q and
    q' every sample s has F(q) <= F(s) <= F(q'), so a cell's deviations are at
    most (rank of its last sample)/n - F(q) and F(q') - (rank of its first
    sample - 1)/n.  ``cdf`` then takes the samples of every cell whose bound
    plus ``_KS_SLACK`` exceeds D_lo, and the statistic is the largest
    deviation over the table and those cells.  The skipped cells cannot hold
    it, so the result is the full statistic bit for bit, provided each value
    of ``cdf`` depends on its own point alone and ``cdf`` is monotone to
    within ``_KS_SLACK`` (``cdf_reference_batch``'s values are each within
    1e-10 of a monotone CDF).  A table that decreases by more than that is a
    ``ValueError``.
    """
    if not callable(cdf):
        raise TypeError(f"cdf must be a callable, got {type(cdf).__name__}")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    if np.any(samples[1:] < samples[:-1]):
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

    table = np.arange(0, n, max(1, math.isqrt(n) // _KS_TABLE_PER_ROOT))
    if table[-1] != n - 1:
        table = np.append(table, n - 1)
    f_table, d_lo = deviation(table)
    if np.any(f_table[1:] < f_table[:-1] - _KS_SLACK):
        raise ValueError("cdf must be non-decreasing")
    lo, hi = table[:-1], table[1:]
    bound = np.maximum(hi / n - f_table[:-1], f_table[1:] - (lo + 1) / n)
    hot = (bound + _KS_SLACK > d_lo) & (hi - lo > 1)
    starts, counts = lo[hot] + 1, (hi - lo - 1)[hot]
    if not counts.size:
        return float(d_lo)
    cells = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return float(max(d_lo, deviation(cells)[1]))
