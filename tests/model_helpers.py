"""Model quantities that only the tests use, kept out of the package.

The package needs none of them: the simulator compares each fading draw with
``Link.threshold``, the sampler draws neighbour distances by inverse CDF, and
the closed forms use ``b_coeff`` directly.  The tests use them to check the
package against the textbook forms.
"""

import math

import numpy as np


def link_capacity(snr: float, bandwidth: float, gap: float) -> float:
    """Gap-adjusted Shannon rate B * log2(1 + snr/gap), bits/s."""
    if snr < 0:
        raise ValueError(f"snr must be >= 0, got {snr!r}")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth!r}")
    if gap < 1.0:
        raise ValueError(f"gap must be >= 1 (linear), got {gap!r}")
    return bandwidth * math.log2(1.0 + snr / gap)


def received_snr(link, p_tx: float, d: float, fading: float) -> float:
    """Received SNR of ``link`` (an ``nncc.Link``) for one fading power gain."""
    if d <= 0 or p_tx < 0 or fading < 0:
        raise ValueError("need d > 0 (free-space model diverges) and p_tx, "
                         f"fading >= 0, got {d!r}, {p_tx!r}, {fading!r}")
    spread = link.wavelength / (4.0 * math.pi * d)
    return (p_tx / (link.n0 * link.bandwidth)) * spread * spread * link.gain * fading


def nn_distance_pdf(r, rho: float):
    """Density of the nearest-neighbor distance under a PPP of density rho."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("distance must be >= 0")
    out = 2.0 * math.pi * rho * r * np.exp(-math.pi * rho * r * r)
    return out if out.ndim else float(out)


def b_of(quad, theta: float) -> float:
    """Linear coefficient b(theta) = b_coeff*cos(theta) of a ``PowerQuadratic``."""
    return quad.b_coeff * math.cos(theta)
