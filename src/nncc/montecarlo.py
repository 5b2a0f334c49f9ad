"""Monte Carlo ground truth: fading, the slotted protocol, and PPP sampling.

Reproducibility contract: every estimator consumes randomness through
fixed-size blocks, block ``j`` drawing from a counter-based generator keyed by
``(seed, stream_id, j)``.  Partial results are reduced in block order, so a
report is bit-identical for any worker count, and distinct ``stream_id``
values give statistically independent experiments.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import powermodel
from ._pool import map_ordered
from .distribution import PowerQuadratic
from .geometry import Geometry, sample_nn_geometries
from .params import LinearParams
from .powermodel import PowerBreakdown

MIN_TRIALS = 10_000  # reported confidence intervals are meaningless below this
_BLOCK = 1 << 15


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random source, fully determined by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return self.block(0)

    def block(self, index: int) -> np.random.Generator:
        """Independent generator for one trial block."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, index))
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, offset: int) -> "RandomStream":
        return RandomStream(self.seed, self.stream_id + offset)


@dataclass(frozen=True)
class ProtocolFading:
    """Fixed fading power gains; test hook replacing the random draws."""

    h12: float
    h21: float
    h1b_slot2: float
    h2b_slot2: float
    h1b_slot3: float = 0.0
    h2b_slot3: float = 0.0


@dataclass(frozen=True)
class TrialOutcome:
    """One simulated cooperation round."""

    delta: int                    # 0 if the exchange succeeded, else 1
    d1_delivered: bool
    d2_delivered: bool
    pair_outage_composite: bool   # the composite outage event (see below)
    energy: float                 # J at unit slot duration


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
    mean_energy: float | None = None
    energy_stderr: float | None = None
    power_samples: np.ndarray | None = None
    wall_time_s: float = 0.0


def _binom_stderr(p_hat: float, n: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / n)


def _require_trials(n: int) -> None:
    if n < MIN_TRIALS:
        raise ValueError(
            f"n={n} is too small for meaningful confidence intervals; "
            f"need at least {MIN_TRIALS} trials")


def _fading_threshold(p_tx: float, dist: float, gap: float, bandwidth: float,
                      lam: float, gain: float, n0: float, rate: float) -> float:
    """Smallest fading power gain that still meets the rate at this power."""
    if p_tx <= 0.0:
        return math.inf
    snr_needed = gap * math.expm1(math.log(2.0) * rate / bandwidth)
    spread = 4.0 * math.pi * dist / lam
    return snr_needed * n0 * bandwidth * spread * spread / (p_tx * gain)


def _protocol_thresholds(geom: Geometry, powers: PowerBreakdown, params: LinearParams):
    t12 = _fading_threshold(powers.p12, geom.r, params.delta_s, params.b_s,
                            params.lambda_s, params.g_u1 * params.g_u2,
                            params.n0, params.rate)
    t21 = _fading_threshold(powers.p21, geom.r, params.delta_s, params.b_s,
                            params.lambda_s, params.g_u1 * params.g_u2,
                            params.n0, params.rate)
    t1b = _fading_threshold(powers.p1b, geom.r1, params.delta_c, params.b_c,
                            params.lambda_c, params.g_u1 * params.g_bs,
                            params.n0, params.rate)
    t2b = _fading_threshold(powers.p2b, geom.r2, params.delta_c, params.b_c,
                            params.lambda_c, params.g_u2 * params.g_bs,
                            params.n0, params.rate)
    return t12, t21, t1b, t2b


def simulate_protocol_trial(stream, geom: Geometry, powers: PowerBreakdown,
                            params: LinearParams,
                            fading: ProtocolFading | None = None) -> TrialOutcome:
    """Run one cooperation round; ``powers`` must match ``geom``.

    Slot 1 is the exchange; on success (delta=0) each handset uplinks its own
    message in slot 2 and relays the partner's in slot 3, and a message is
    delivered if either copy meets the rate.  On failure (delta=1) only the
    solo slot-2 uplinks run.  Fading is redrawn independently per slot per
    transmitter.  The composite outage flag reproduces the event algebra the
    per-link targets were derived from: under delta=0 it fires when both
    copies of one message fail, under delta=1 when at least one solo uplink
    fails.
    """
    rng = stream.generator() if isinstance(stream, RandomStream) else stream
    t12, t21, t1b, t2b = _protocol_thresholds(geom, powers, params)

    if fading is None:
        h12, h21 = rng.exponential(params.sigma2_short, 2)
    else:
        h12, h21 = fading.h12, fading.h21
    delta = 0 if (h12 >= t12 and h21 >= t21) else 1

    if fading is None:
        h1b_2, h2b_2 = rng.exponential(params.sigma2_cell, 2)
    else:
        h1b_2, h2b_2 = fading.h1b_slot2, fading.h2b_slot2
    own1 = h1b_2 >= t1b
    own2 = h2b_2 >= t2b

    cellular = powers.p1b + powers.p2b
    energy = powers.p12 + powers.p21 + cellular
    if delta == 0:
        if fading is None:
            h1b_3, h2b_3 = rng.exponential(params.sigma2_cell, 2)
        else:
            h1b_3, h2b_3 = fading.h1b_slot3, fading.h2b_slot3
        d1 = own1 or (h2b_3 >= t2b)   # partner relays message 1
        d2 = own2 or (h1b_3 >= t1b)
        composite = not d1
        energy += cellular
    else:
        d1, d2 = own1, own2
        composite = not (d1 and d2)

    return TrialOutcome(delta=delta, d1_delivered=bool(d1), d2_delivered=bool(d2),
                        pair_outage_composite=bool(composite), energy=float(energy))


def _map_blocks(n: int, workers: int, block_fn):
    """Run block_fn(block_index, block_size) for all blocks; ordered results."""
    sizes = [(j, min(_BLOCK, n - j * _BLOCK)) for j in range((n + _BLOCK - 1) // _BLOCK)]
    return map_ordered(block_fn, sizes, workers)


def estimate_outage(n: int, geom: Geometry, params: LinearParams,
                    stream: RandomStream, scheme: str = "nncc",
                    workers: int = 1) -> McReport:
    """Empirical outage rates at a fixed placement, fresh fading per trial."""
    _require_trials(n)
    t0 = time.perf_counter()

    if scheme == "nncc":
        powers = powermodel.nncc_power_breakdown(geom, params)
        t12, t21, t1b, t2b = _protocol_thresholds(geom, powers, params)
        sig_s, sig_c = params.sigma2_short, params.sigma2_cell

        def block_fn(j, size):
            rng = stream.block(j)
            h12 = rng.exponential(sig_s, size)
            h21 = rng.exponential(sig_s, size)
            delta0 = (h12 >= t12) & (h21 >= t21)
            own1 = rng.exponential(sig_c, size) >= t1b
            own2 = rng.exponential(sig_c, size) >= t2b
            relay2 = rng.exponential(sig_c, size) >= t1b  # slot-3 use of U1's uplink
            relay1 = rng.exponential(sig_c, size) >= t2b
            d1 = np.where(delta0, own1 | relay1, own1)
            d2 = np.where(delta0, own2 | relay2, own2)
            composite = np.where(delta0, ~d1, ~(d1 & d2))
            return (int(np.sum(~d1)), int(np.sum(~d2)),
                    int(np.sum(composite)), int(np.sum(delta0)))

        parts = _map_blocks(n, workers, block_fn)
        lost1 = sum(p[0] for p in parts)
        lost2 = sum(p[1] for p in parts)
        comp = sum(p[2] for p in parts)
        n_delta0 = sum(p[3] for p in parts)

        cellular = powers.p1b + powers.p2b
        e1 = powers.p12 + powers.p21 + cellular          # delta = 1 rounds
        e0 = e1 + cellular                               # delta = 0 rounds
        mean_e = (n_delta0 * e0 + (n - n_delta0) * e1) / n
        var_e = (n_delta0 * (e0 - mean_e) ** 2
                 + (n - n_delta0) * (e1 - mean_e) ** 2) / max(n - 1, 1)
        delta0_rate = n_delta0 / n

    elif scheme == "conventional":
        powers = powermodel.conventional_power(geom, params)
        _, _, t1b, t2b = _protocol_thresholds(geom, powers, params)
        sig_c = params.sigma2_cell

        def block_fn(j, size):
            rng = stream.block(j)
            d1 = rng.exponential(sig_c, size) >= t1b
            d2 = rng.exponential(sig_c, size) >= t2b
            return (int(np.sum(~d1)), int(np.sum(~d2)), int(np.sum(~(d1 & d2))), 0)

        parts = _map_blocks(n, workers, block_fn)
        lost1 = sum(p[0] for p in parts)
        lost2 = sum(p[1] for p in parts)
        comp = sum(p[2] for p in parts)
        mean_e = powers.total_conventional
        var_e = 0.0
        delta0_rate = None

    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    return McReport(
        n_trials=n,
        outage_d1=lost1 / n, outage_d1_stderr=_binom_stderr(lost1 / n, n),
        outage_d2=lost2 / n, outage_d2_stderr=_binom_stderr(lost2 / n, n),
        outage_composite=comp / n, outage_composite_stderr=_binom_stderr(comp / n, n),
        delta0_rate=delta0_rate,
        delta0_stderr=None if delta0_rate is None else _binom_stderr(delta0_rate, n),
        mean_energy=mean_e, energy_stderr=math.sqrt(var_e / n),
        wall_time_s=time.perf_counter() - t0,
    )


def estimate_link_outage(n: int, p_tx: float, distance: float,
                         params: LinearParams, stream: RandomStream,
                         link: str = "cellular", user: int = 1,
                         workers: int = 1) -> tuple[float, float]:
    """Empirical outage of one link at fixed power; returns (rate, stderr)."""
    _require_trials(n)
    if link == "cellular":
        g_u = params.g_u1 if user == 1 else params.g_u2
        t = _fading_threshold(p_tx, distance, params.delta_c, params.b_c,
                              params.lambda_c, g_u * params.g_bs,
                              params.n0, params.rate)
        sigma2 = params.sigma2_cell
    elif link == "short":
        t = _fading_threshold(p_tx, distance, params.delta_s, params.b_s,
                              params.lambda_s, params.g_u1 * params.g_u2,
                              params.n0, params.rate)
        sigma2 = params.sigma2_short
    else:
        raise ValueError(f"unknown link {link!r}")

    def block_fn(j, size):
        return int(np.sum(stream.block(j).exponential(sigma2, size) < t))

    lost = sum(_map_blocks(n, workers, block_fn))
    return lost / n, _binom_stderr(lost / n, n)


def sample_power_distribution(n: int, rho: float, r1: float,
                              params: LinearParams, stream: RandomStream,
                              workers: int = 1) -> McReport:
    """Sample the round total over random placements; sorted sample set."""
    _require_trials(n)
    t0 = time.perf_counter()
    quad = PowerQuadratic.from_params(params, r1)

    def block_fn(j, size):
        r, theta, _ = sample_nn_geometries(stream.block(j), rho, r1, size)
        return quad.a * r * r + quad.b_coeff * np.cos(theta) * r + quad.c0

    totals = np.concatenate(_map_blocks(n, workers, block_fn))
    totals.sort()
    mean = float(np.mean(totals))
    stderr = float(np.std(totals, ddof=1) / math.sqrt(n))
    return McReport(n_trials=n, mean_energy=mean, energy_stderr=stderr,
                    power_samples=totals, wall_time_s=time.perf_counter() - t0)


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov statistic between sorted samples and a model CDF.

    ``cdf`` is either the model CDF's values at ``samples`` (an array of the
    same shape) or a callable.  A callable is first given the whole array; if
    it raises ``TypeError`` or returns the wrong shape it is taken to be
    scalar-only and called point by point.  Any other error propagates, so a
    scalar function that fails on an array with ``ValueError`` -- such as
    ``cdf_reference``, whose ``p <= ...`` test has no truth value for an
    array -- must be evaluated by the caller and passed as values, e.g.
    ``ks_distance(samples, [cdf_reference(p, quad, rho) for p in samples])``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    if np.any(np.diff(samples) < 0):
        raise ValueError("samples must be sorted ascending")
    if callable(cdf):
        try:
            f = np.asarray(cdf(samples), dtype=float)
        except TypeError:  # scalar-only callable
            f = None
        if f is None or f.shape != samples.shape:
            f = np.array([cdf(x) for x in samples], dtype=float)
    else:
        f = np.asarray(cdf, dtype=float)
        if f.shape != samples.shape:
            raise ValueError(f"CDF values have shape {f.shape}, "
                             f"samples have shape {samples.shape}")
    n = samples.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
