"""Outage-constrained transmit powers for the cooperative and baseline schemes.

Every link sees free-space path loss and unit-exponential-scaled Rayleigh
fading, so each per-link outage probability inverts in closed form to a
"desired power" of the shape ``coeff * distance^2``.  :class:`Link` holds that
one link budget for the closed forms and the simulator alike; each handset's
uplink has its own, set by its own antenna gain.  The cooperative scheme
additionally needs the per-link cellular outage target that makes the
composite (three-slot) outage hit the end-to-end target.

A scheme is one :class:`PowerCoefficients`.  The baseline is the cooperative
model without the exchange (``zeta = 0``), with one cellular slot
(``eps_total = 1``) at the per-link target ``p_out_c``.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .geometry import Geometry
from .params import ParameterError, SystemParams

_16PI2 = 16.0 * math.pi * math.pi


class OutageTargets(NamedTuple):
    """Per-link outage targets derived from the end-to-end target.

    ``eps_short`` is the probability that both short-range decodes succeed;
    ``eps_total = 1 + eps_short`` is the expected-slot multiplier applied to
    the cellular powers (slot 3 runs only after a successful exchange).
    """

    p_out: float
    eps_short: float
    eps_total: float
    p_out_nc: float   # per-cellular-link target, cooperative scheme
    p_out_c: float    # per-link target, conventional scheme

    @classmethod
    def for_target(cls, p_out: float) -> "OutageTargets":
        eps = (1.0 - p_out) ** 2
        return cls(
            p_out=p_out,
            eps_short=eps,
            eps_total=1.0 + eps,
            p_out_nc=per_link_outage_nncc(p_out),
            p_out_c=per_link_outage_conventional(p_out),
        )


class PowerCoefficients(NamedTuple):
    """One scheme's per-square-meter desired-power coefficients and slot charge.

    ``eta1``, ``eta2`` and ``eps_total`` are strictly positive; ``zeta`` is 0
    for the baseline, which has no exchange.
    """

    zeta: float       # short-range link: power = zeta * r^2, W/m^2
    eta1: float       # handset 1 uplink: power = eta1 * r1^2, W/m^2
    eta2: float       # handset 2 uplink: power = eta2 * r2^2, W/m^2
    eps_total: float  # expected cellular slots per round


class PowerBreakdown(NamedTuple):
    """Per-link desired powers and the scheme's round total, in watts.

    ``p12`` is the exchange power of each direction (both directions span the
    same distance over the same link); the baseline's is 0.
    """

    p12: float
    p1b: float
    p2b: float
    total: float


def composite_outage_nncc(x: float, p_out: float) -> float:
    """End-to-end outage of the cooperative scheme at per-cellular-link outage x.

    With probability (1-p_out)^2 the exchange succeeds and a message is lost
    only if both of its uplink copies fail (x^2); otherwise the pair falls
    back to solo uplinks and at least one failing counts (1-(1-x)^2).
    """
    eps = (1.0 - p_out) ** 2
    return eps * x * x + (1.0 - eps) * (2.0 * x - x * x)


def per_link_outage_nncc(p_out: float) -> float:
    """Per-cellular-link outage target that meets the end-to-end target.

    Root in (0,1) of the quadratic (2*eps-1)*x^2 + 2*(1-eps)*x - p_out = 0
    with eps = (1-p_out)^2, evaluated in the form 2*p/(b + sqrt(b^2+4*a*p))
    which stays fully conditioned through the sign change of 2*eps-1 at
    p_out = 1 - 1/sqrt(2).
    """
    if not (0.0 < p_out < 1.0):
        raise ValueError(f"p_out must lie in (0, 1), got {p_out!r}")
    eps = (1.0 - p_out) ** 2
    a = 2.0 * eps - 1.0
    b = 2.0 * (1.0 - eps)
    return 2.0 * p_out / (b + math.sqrt(b * b + 4.0 * a * p_out))


def per_link_outage_conventional(p_out: float) -> float:
    """Per-link outage target when both uplinks must individually succeed."""
    if not (0.0 <= p_out < 1.0):
        raise ValueError(f"p_out must lie in [0, 1), got {p_out!r}")
    # 1 - sqrt(1-p) without cancellation for small p
    return -math.expm1(0.5 * math.log1p(-p_out))


class Link(NamedTuple):
    """Link budget of one free-space, Rayleigh-faded link.

    At transmit power ``p_tx`` over distance ``d`` with fading power gain
    ``h`` the received SNR is ``p_tx * gain * h / (n0 * bandwidth *
    (4*pi*d/wavelength)^2)``, and the rate is met when it reaches the
    required SNR ``gap * (2^(rate/bandwidth) - 1)``.  With ``h`` exponential
    of mean ``sigma2`` the outage probability inverts in closed form to a
    desired power ``coeff(p_link) * d^2``.
    """

    gap: float         # capacity gap, linear (>= 1)
    bandwidth: float   # Hz
    wavelength: float  # m
    gain: float        # product of the transmit and receive antenna gains
    sigma2: float      # mean fading power gain
    n0: float          # noise power spectral density, W/Hz
    rate: float        # bits/s

    @classmethod
    def short(cls, params: SystemParams) -> "Link":
        """The handset-to-handset exchange link (either direction)."""
        return cls(params.delta_s, params.b_s, params.lambda_s,
                   params.g_u1 * params.g_u2, params.sigma2_short,
                   params.n0, params.rate)

    @classmethod
    def cellular(cls, params: SystemParams, user: int) -> "Link":
        """The uplink from handset ``user`` (1 or 2) to the base station."""
        if user not in (1, 2):
            raise ValueError(f"user must be 1 or 2, got {user!r}")
        g_u = params.g_u1 if user == 1 else params.g_u2
        return cls(params.delta_c, params.b_c, params.lambda_c,
                   g_u * params.g_bs, params.sigma2_cell, params.n0, params.rate)

    @property
    def required_snr(self) -> float:
        """Smallest SNR that carries the rate; a ``ParameterError`` if it overflows."""
        try:
            snr = self.gap * math.expm1(math.log(2.0) * self.rate / self.bandwidth)
        except OverflowError:
            snr = math.inf
        if not math.isfinite(snr):
            raise ParameterError(
                "rate", f"{self.rate!r} b/s over {self.bandwidth!r} Hz needs an "
                        "SNR beyond the floating-point range")
        return snr

    def coeff(self, p_link: float) -> float:
        """Power per square meter that meets outage ``p_link``: power = coeff * d^2.

        Where a link of normal constants gives a finite coefficient but
        ``p_link``, near the smallest float, makes it overflow, the target is
        a ``ParameterError``; any other overflow is an inf for the callers'
        checks.
        """
        if not (0.0 < p_link < 1.0):
            raise ValueError(f"per-link outage must lie in (0, 1), got {p_link!r}")
        budget = _16PI2 * self.n0 * self.bandwidth * self.required_snr
        link = self.sigma2 * self.gain * self.wavelength * self.wavelength
        fade = link * (-math.log1p(-p_link))
        coeff = budget / fade if fade else math.inf
        if math.isinf(coeff) and link >= sys.float_info.min and budget / link < math.inf:
            raise ParameterError(
                "p_out_target", f"a per-link outage of {p_link!r} needs a power per "
                                "square meter beyond the floating-point range")
        return coeff

    def threshold(self, p_tx: float, d: float) -> float:
        """Smallest fading power gain that still meets the rate at this power."""
        if p_tx <= 0.0:
            return math.inf
        spread = 4.0 * math.pi * d / self.wavelength
        return (self.required_snr * self.n0 * self.bandwidth * spread * spread
                / (p_tx * self.gain))

    def outage(self, p_tx: float, d: float) -> float:
        """Outage probability at transmit power ``p_tx`` over distance ``d``."""
        if p_tx <= 0 or d <= 0:
            raise ValueError(f"p_tx and d must be > 0, got {p_tx!r} and {d!r}")
        exponent = (_16PI2 * self.n0 * self.bandwidth * d * d * self.required_snr
                    / (p_tx * self.sigma2 * self.gain * self.wavelength * self.wavelength))
        return -math.expm1(-exponent)


def power_coefficients(params: SystemParams) -> PowerCoefficients:
    """The cooperative scheme's coefficients for a validated parameter set."""
    targets = OutageTargets.for_target(params.p_out_target)
    return PowerCoefficients(
        zeta=Link.short(params).coeff(params.p_out_target),
        eta1=Link.cellular(params, 1).coeff(targets.p_out_nc),
        eta2=Link.cellular(params, 2).coeff(targets.p_out_nc),
        eps_total=targets.eps_total,
    )


def conventional_coefficients(params: SystemParams) -> PowerCoefficients:
    """The baseline's coefficients: solo uplinks at ``p_out_c``, one slot, no exchange."""
    p_c = OutageTargets.for_target(params.p_out_target).p_out_c
    return PowerCoefficients(zeta=0.0, eta1=Link.cellular(params, 1).coeff(p_c),
                             eta2=Link.cellular(params, 2).coeff(p_c), eps_total=1.0)


def power_breakdown(geom: Geometry, coeff: PowerCoefficients) -> PowerBreakdown:
    """Desired powers and round total of one scheme at a fixed placement.

    The total is ``2*p12 + eps_total*(p1b + p2b)``: both exchange directions,
    and the cellular powers charged with the expected slot count.
    """
    p12 = coeff.zeta * geom.r * geom.r
    p1b = coeff.eta1 * geom.r1 * geom.r1
    p2b = coeff.eta2 * geom.r2 * geom.r2
    return PowerBreakdown(p12=p12, p1b=p1b, p2b=p2b,
                          total=2.0 * p12 + coeff.eps_total * (p1b + p2b))
