"""Model quantities and reference computations that only the tests use.

The package needs none of them: the simulator compares each fading draw with
``Link.threshold``, the sampler's block kernel reads the unit-density area
pi*rho*r^2 without forming a distance, and the closed forms use ``b_coeff``
directly.  The tests use them to check the package against the textbook
forms; ``nn_distance`` turns a drawn area into the neighbour distance at a
density.  ``ks_distance_of_values``, ``tanh_sinh_uncached``,
``mean_quadrature_per_call``, ``placements_by_expression`` and
``power_samples_by_expression`` are the direct forms of package routines that
skip work (``nncc.ks_distance`` evaluates the CDF, level by level, only in
the cells that can hold the statistic: at 6007 of the 1e6 scale-free samples
of ``validate --seed 7``'s draw; ``nncc.distribution._tanh_sinh`` shares its
steps between calls and integrates a batch of intervals at once;
``nncc.montecarlo``'s block kernel computes in place); the tests require the
package's results to be bitwise equal to them.  ``rounds_drawn_directly`` is
the protocol simulated round by round, fade by fade, whose outcomes
``nncc.protocol_rates`` enumerates exactly; the tests require the simulated
rounds to follow the enumerated law.
"""

import math

import numpy as np

from nncc.distribution import (_MAX_BEARINGS, _MEAN_EPSREL, _TS_H0, _TS_LEVELS, _TS_T,
                               IntegrationError, PowerQuadratic)
from nncc.montecarlo import _BLOCK, _thresholds
from nncc.powermodel import conventional_coefficients, power_breakdown, power_coefficients


def cooperative_quadratic(params, r1) -> PowerQuadratic:
    """The cooperative scheme's round total as a quadratic in the neighbour distance."""
    return PowerQuadratic.from_coefficients(power_coefficients(params), r1)


def link_capacity(snr: float, bandwidth: float, gap: float) -> float:
    """Gap-adjusted Shannon rate B * log2(1 + snr/gap), bits/s."""
    if snr < 0:
        raise ValueError(f"snr must be >= 0, got {snr!r}")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth!r}")
    if gap < 1.0:
        raise ValueError(f"gap must be >= 1 (linear), got {gap!r}")
    return bandwidth * math.log2(1.0 + snr / gap)


def binomial_z(count: int, n: int, target: float) -> float:
    """z of ``count`` events in ``n`` binomial trials against the rate ``target``,
    with the standard error sqrt(p(1-p)/n) at the observed rate p."""
    p_hat = count / n
    return (p_hat - target) / math.sqrt(p_hat * (1.0 - p_hat) / n)


def received_snr(link, p_tx: float, d: float, fading: float) -> float:
    """Received SNR of ``link`` (an ``nncc.Link``) for one fading power gain."""
    if d <= 0 or p_tx < 0 or fading < 0:
        raise ValueError("need d > 0 (free-space model diverges) and p_tx, "
                         f"fading >= 0, got {d!r}, {p_tx!r}, {fading!r}")
    spread = link.wavelength / (4.0 * math.pi * d)
    return (p_tx / (link.n0 * link.bandwidth)) * spread * spread * link.gain * fading


def nn_distance(area, rho: float):
    """Nearest-neighbour distance r = sqrt(area/(pi*rho)) of a unit-density area
    pi*rho*r^2 at density rho; a float gives a float."""
    r = np.sqrt(np.divide(area, math.pi * rho))
    return r if np.ndim(r) else float(r)


def nn_distance_pdf(r, rho: float):
    """Density of the nearest-neighbor distance under a PPP of density rho."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("distance must be >= 0")
    out = 2.0 * math.pi * rho * r * np.exp(-math.pi * rho * r * r)
    return out if out.ndim else float(out)


def nn_distance_cdf(r, rho: float):
    """Closed-form CDF of the nearest-neighbor distance, 1 - exp(-pi*rho*r^2)."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    r = np.asarray(r, dtype=float)
    out = -np.expm1(-math.pi * rho * np.square(np.maximum(r, 0.0)))
    return out if out.ndim else float(out)


def ks_distance_of_values(samples, f) -> float:
    """KS statistic of sorted ``samples`` from the model CDF's values ``f`` at each."""
    n = len(samples)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def tanh_sinh_uncached(f, lo: float, hi: float, atol: float, rtol: float):
    """``nncc.distribution._tanh_sinh`` computing its steps, nodes and weights per call."""
    half = 0.5 * (hi - lo)

    def terms(t):
        e = np.exp(-math.pi * np.sinh(np.abs(t)))
        dist = half * (2.0 * e / (1.0 + e))
        return (f(np.where(t < 0, lo + dist, hi - dist))
                * (half * 2.0 * math.pi * np.cosh(t) * e / np.square(1.0 + e)))

    n, h = round(_TS_T / _TS_H0), _TS_H0
    g = terms(np.arange(-n, n + 1) * h)
    total, ends = g.sum(axis=-1), np.abs(g[..., 0]) + np.abs(g[..., -1])
    value = h * total
    for level in range(1, _TS_LEVELS + 1):
        total = total + terms((np.arange(2 * n) - n + 0.5) * h).sum(axis=-1)
        n, h = 2 * n, 0.5 * h
        finer = h * total
        if not np.all(np.isfinite(finer)):
            raise IntegrationError(
                f"quadrature on [{lo!r}, {hi!r}] is not finite at {level} halvings of the "
                f"step (estimate {float(finer.ravel()[np.argmin(np.isfinite(finer))])!r})")
        change = np.abs(finer - value) + h * ends
        value = finer
        if np.all(change <= atol + rtol * np.abs(value)):
            return value if value.ndim else float(value)
    i = np.argmax(change.ravel())
    raise IntegrationError(
        f"quadrature on [{lo!r}, {hi!r}] did not converge within {_TS_LEVELS} halvings "
        f"of the step (estimate {float(value.ravel()[i])!r}, "
        f"change {float(change.ravel()[i])!r})")


def mean_quadrature_per_call(quad, rho: float) -> float:
    """``nncc.expected_power_quadrature`` for one set: the trapezoid rule in the
    bearing, from 8 bearings against the 4 of even index, doubling by the
    midpoints, with one per-call tanh-sinh distance integral per rule."""
    r_max = math.sqrt(40.0 / (math.pi * rho))

    def inner(theta):  # one entry per bearing
        b = quad.b_coeff * np.cos(theta)[:, None]
        return tanh_sinh_uncached(lambda r: (quad.a * r * r + b * r + quad.c0)
                                  * (rho * r * np.exp(-math.pi * rho * r * r)),
                                  0.0, r_max, 0.0, _MEAN_EPSREL)

    first = inner(-0.5 * math.pi + (0.25 * math.pi) * np.arange(8))
    n, total, new = 4, first[::2].sum(), first[1::2]
    value = (2.0 * math.pi / n) * total
    while True:
        total, n = total + new.sum(), 2 * n
        finer = (2.0 * math.pi / n) * total
        if not math.isfinite(finer):
            raise IntegrationError(f"mean of set 0 (rho = {float(rho)!r}) is not finite at "
                                   f"{n} bearings (estimate {float(finer)!r})")
        change = abs(finer - value)
        if change <= _MEAN_EPSREL * abs(finer):
            return float(finer)
        if n >= _MAX_BEARINGS:
            raise IntegrationError(f"mean of set 0 (rho = {float(rho)!r}) did not converge "
                                   f"within {n} bearings (estimate {float(finer)!r}, "
                                   f"change {float(change)!r})")
        value = finer
        new = inner(-0.5 * math.pi + (2.0 * math.pi / n) * (np.arange(n) + 0.5))


def placements_by_expression(n: int, stream):
    """The placements of ``nncc.montecarlo``'s block draw, one expression per block.

    Each block draws the unit-density areas pi*rho*r^2 = -log(1-u), then the
    bearings.  Returns the n areas and bearings in draw order.
    """
    area, theta = [], []
    for j in range((n + _BLOCK - 1) // _BLOCK):
        rng, size = stream.block(j), min(_BLOCK, n - j * _BLOCK)
        area.append(-np.log1p(-rng.random(size)))
        theta.append(-0.5 * math.pi + 2.0 * math.pi * rng.random(size))
    return np.concatenate(area), np.concatenate(theta)


def power_samples_by_expression(n: int, rho: float, quad, stream):
    """The block kernel of ``nncc.montecarlo``: n scale-free totals in draw order.

    The kernel never sees rho: it takes r = sqrt(area), the distance at
    pi*rho = 1, cos(theta) as 2/(1 + tan(theta/2)^2) - 1, and u = r*r and v =
    cos(theta)*r.  The scale-free total is y = u + k*v, with k of
    ``quad.law(rho)``; the round total is c0 + A*y.
    """
    area, theta = placements_by_expression(n, stream)
    r = np.sqrt(area)
    cos = 2.0 / (1.0 + np.tan(0.5 * theta) ** 2) - 1.0
    return r * r + quad.law(rho)[2] * (cos * r)


def rounds_drawn_directly(n: int, geom, params, stream) -> dict:
    """n protocol rounds at a fixed placement, each on fades of its own.

    Per block of ``_BLOCK`` rounds, from ``stream.block(j)``: the exchange gains
    h12 and h21, the slot-2 uplink gains of handsets 1 and 2, then the slot-3
    gains, each compared with its ``_thresholds`` threshold.  A slot-3 copy
    decides delivery only after a successful exchange, for a message whose own
    slot-2 uplink failed, so it is drawn only there, in round order: first
    handset 1's relay of message 2, then handset 2's relay of message 1; a
    copy not drawn is False.  The baseline's solo uplinks read the same slot-2
    gains at its own thresholds.  Returns the per-round events by name:
    ``delta0``, ``own1``, ``own2``, ``conv1``, ``conv2``, ``d1``, ``d2``,
    ``composite`` and ``conv`` (the baseline's composite outage).
    """
    t12, t1b, t2b = _thresholds(geom, power_breakdown(geom, power_coefficients(params)),
                                params)
    _, c1b, c2b = _thresholds(geom, power_breakdown(geom, conventional_coefficients(params)),
                              params)
    sig_s, sig_c = params.sigma2_short, params.sigma2_cell
    blocks = []
    for j, start in enumerate(range(0, n, _BLOCK)):
        size = min(_BLOCK, n - start)
        rng = stream.block(j)
        h12, h21 = rng.exponential(sig_s, size), rng.exponential(sig_s, size)
        delta0 = (h12 >= t12) & (h21 >= t12)
        h1b_slot2 = rng.exponential(sig_c, size)
        h2b_slot2 = rng.exponential(sig_c, size)
        own1, own2 = h1b_slot2 >= t1b, h2b_slot2 >= t2b
        relay2, relay1 = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
        need = delta0 & ~own2
        relay2[need] = rng.exponential(sig_c, np.count_nonzero(need)) >= t1b
        need = delta0 & ~own1
        relay1[need] = rng.exponential(sig_c, np.count_nonzero(need)) >= t2b
        d1 = np.where(delta0, own1 | relay1, own1)
        d2 = np.where(delta0, own2 | relay2, own2)
        conv1, conv2 = h1b_slot2 >= c1b, h2b_slot2 >= c2b
        blocks.append(dict(delta0=delta0, own1=own1, own2=own2, conv1=conv1, conv2=conv2,
                           d1=d1, d2=d2, composite=np.where(delta0, ~d1, ~(d1 & d2)),
                           conv=~(conv1 & conv2)))
    return {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}

