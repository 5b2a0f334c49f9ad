"""Distribution of the cooperative total power over random pair placements.

At a fixed placement the round total is a quadratic in the neighbor distance,

    P(r, theta) = a*r^2 + b(theta)*r + c0,
    a = 2*zeta + eps_total*eta,  b(theta) = 2*eps_total*eta*r1*cos(theta),
    c0 = 2*eps_total*eta*r1^2,

so with the PPP neighbor-distance law and a uniform bearing the CDF of the
total is an integral over theta of the probability mass the neighbor distance
puts on the root interval of ``P(r, theta) <= p``.

Two evaluation routes are provided and deliberately kept separate:

* ``cdf_reference`` integrates that defining probability directly and is the
  normative CDF.
* ``cdf_branch_form``/``pdf_branch_form`` evaluate the two-branch expressions
  obtained by splitting at p = c0 into the regions Q1 (below) and Q2 (above),
  with the Q2 CDF branch carrying an additive boundary term.  The validation
  report quantifies where the branch form deviates from the reference; the
  branch form is never silently corrected.

The branch split at p = c0 matters numerically: below c0 only bearings with
cos(theta) negative enough admit real roots, and the root gap vanishes at the
edge of that admissible set.  The Q1 integrals are therefore evaluated after
the substitution sin(u) = sqrt(1-m^2)*sin(t) (u the bearing offset from pi),
which absorbs the vanishing root gap and leaves a smooth integrand on
[0, pi/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .params import LinearParams
from . import powermodel
from ._pool import map_ordered

_TWO_PI = 2.0 * math.pi


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


def _quad(func, lo, hi, epsabs, epsrel=1e-10, limit=200):
    out = integrate.quad(func, lo, hi, epsabs=epsabs, epsrel=epsrel,
                         limit=limit, full_output=1)
    if len(out) > 3:
        raise IntegrationError(
            f"quadrature on [{lo!r}, {hi!r}] did not converge: {out[3]} "
            f"(estimate {out[0]!r}, abserr {out[1]!r})")
    return out[0]


@dataclass(frozen=True)
class PowerQuadratic:
    """Coefficients of the round total as a quadratic in neighbor distance."""

    a: float        # W/m^2, coefficient of r^2; always > 0
    b_coeff: float  # W/m, b(theta) = b_coeff * cos(theta)
    c0: float       # W, value at r = 0; always > 0

    @classmethod
    def from_params(cls, params: LinearParams, r1: float) -> "PowerQuadratic":
        if r1 <= 0:
            raise ValueError(f"r1 must be > 0, got {r1!r}")
        coeff = powermodel.power_coefficients(params)
        eps_total = powermodel.OutageTargets.for_target(params.p_out_target).eps_total
        ee = eps_total * coeff.eta
        return cls(a=2.0 * coeff.zeta + ee, b_coeff=2.0 * ee * r1, c0=2.0 * ee * r1 * r1)

    def b(self, theta: float) -> float:
        return self.b_coeff * math.cos(theta)

    def total_power(self, r, theta):
        """Evaluate the quadratic; accepts scalars or arrays."""
        return self.a * np.square(r) + self.b_coeff * np.cos(theta) * np.asarray(r) + self.c0

    @property
    def half_b_max(self) -> float:
        # |b(theta)|/2 at cos(theta) = -1; sets the depth of the support dip
        return 0.5 * self.b_coeff

    @property
    def support_min(self) -> float:
        """Smallest achievable total: vertex value at cos(theta) = -1."""
        k = self.half_b_max
        return self.c0 - k * k / self.a


@dataclass(frozen=True)
class RootPair:
    """Real roots of a*r^2 + b(theta)*r + (c0 - p) = 0, with the half-gap."""

    delta_r: float  # sqrt((b/2)^2 - a*(c0-p)); root gap is 2*delta_r/a
    r_small: float
    r_large: float


def power_roots(p: float, theta: float, quad: PowerQuadratic) -> RootPair | None:
    """Roots of the level-p equation at one bearing; None if complex."""
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p!r}")
    half_b = 0.5 * quad.b(theta)
    disc = half_b * half_b - quad.a * (quad.c0 - p)
    if disc < 0.0:
        return None
    delta_r = math.sqrt(disc)
    return RootPair(delta_r=delta_r,
                    r_small=(-half_b - delta_r) / quad.a,
                    r_large=(-half_b + delta_r) / quad.a)


def _r_large_stable(half_b, q_over_a, a):
    """Positive root (-half_b + sqrt(half_b^2 + a*q)) / a without cancellation.

    ``q_over_a`` is (p - c0) > 0 so the root is positive for every bearing.
    """
    disc = np.sqrt(half_b * half_b + a * q_over_a)
    return np.where(half_b > 0.0, q_over_a / (half_b + disc), (disc - half_b) / a)


# --- Q1 machinery (support_min < p <= c0) ---------------------------------

def _q1_setup(p: float, quad: PowerQuadratic):
    """Substitution constants for the below-c0 branch."""
    k = quad.half_b_max
    m2 = quad.a * (quad.c0 - p) / (k * k)
    m2 = min(max(m2, 0.0), 1.0)
    return k, math.sqrt(m2), math.sqrt(1.0 - m2)


def _q1_points(t, k, m, s, a, rho):
    """Roots and PPP weights along the substituted variable t in [0, pi/2]."""
    sin_u = s * np.sin(t)
    cos_u = np.sqrt(np.maximum(1.0 - sin_u * sin_u, m * m))
    gap = k * s * np.cos(t)
    r_lo = (k * cos_u - gap) / a
    r_hi = (k * cos_u + gap) / a
    w_lo = np.exp(-math.pi * rho * r_lo * r_lo)
    w_hi = np.exp(-math.pi * rho * r_hi * r_hi)
    return cos_u, r_lo, r_hi, w_lo, w_hi


def _q1_cdf(p: float, quad: PowerQuadratic, rho: float, epsabs: float) -> float:
    k, m, s = _q1_setup(p, quad)
    if s == 0.0:
        return 0.0

    def integrand(t):
        cos_u, _, _, w_lo, w_hi = _q1_points(t, k, m, s, quad.a, rho)
        return (w_lo - w_hi) * s * np.cos(t) / cos_u

    return _quad(integrand, 0.0, 0.5 * math.pi, epsabs=epsabs * math.pi) / math.pi


def _q1_pdf(p: float, quad: PowerQuadratic, rho: float, epsabs: float) -> float:
    k, m, s = _q1_setup(p, quad)
    if s == 0.0:
        return 0.0

    def integrand(t):
        cos_u, r_lo, r_hi, w_lo, w_hi = _q1_points(t, k, m, s, quad.a, rho)
        return rho * (r_hi * w_hi + r_lo * w_lo) / (k * cos_u)

    return _quad(integrand, 0.0, 0.5 * math.pi, epsabs=epsabs)


# --- Q2 machinery (p > c0) --------------------------------------------------

def _q2_cdf(p: float, quad: PowerQuadratic, rho: float, epsabs: float) -> float:
    q = p - quad.c0

    def integrand(theta):
        half_b = quad.half_b_max * np.cos(theta)
        r_hi = _r_large_stable(half_b, q, quad.a)
        return -np.expm1(-math.pi * rho * r_hi * r_hi)

    # integrand depends on cos(theta) only: fold the full bearing range onto [0, pi]
    return _quad(integrand, 0.0, math.pi, epsabs=epsabs * math.pi) / math.pi


def _q2_pdf(p: float, quad: PowerQuadratic, rho: float, epsabs: float) -> float:
    q = p - quad.c0

    # the bearing weight 1/(2*pi) cancels against 2*pi*rho from the PPP law;
    # folding the full bearing range onto [0, pi] cancels the remaining 1/2
    def integrand(theta):
        half_b = quad.half_b_max * np.cos(theta)
        delta_r = np.sqrt(half_b * half_b + quad.a * q)
        r_hi = _r_large_stable(half_b, q, quad.a)
        return rho * r_hi * np.exp(-math.pi * rho * r_hi * r_hi) / delta_r

    return _quad(integrand, 0.0, math.pi, epsabs=epsabs)


# --- public evaluations -----------------------------------------------------

def cdf_reference(p: float, quad: PowerQuadratic, rho: float, *,
                  epsabs: float = 1e-9) -> float:
    """Normative CDF: direct integration of the defining probability."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    if p <= quad.support_min:
        return 0.0
    if p <= quad.c0:
        return _q1_cdf(p, quad, rho, epsabs)
    return _q2_cdf(p, quad, rho, epsabs)


def cdf_branch_form(p: float, quad: PowerQuadratic, rho: float, *,
                    epsabs: float = 1e-9) -> float:
    """Two-branch CDF with the additive boundary term on the upper branch.

    Evaluated exactly as stated, for comparison against ``cdf_reference``;
    the boundary term makes the upper branch exceed the reference by a
    constant (see the validation report).  Below the support it returns 0.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    if p <= quad.support_min:
        return 0.0
    if p <= quad.c0:
        return _q1_cdf(p, quad, rho, epsabs)
    return _q2_cdf(p, quad, rho, epsabs) + _q1_cdf(quad.c0, quad, rho, epsabs)


def pdf_branch_form(p: float, quad: PowerQuadratic, rho: float, *,
                    epsabs: float = 1e-9) -> float:
    """Two-branch density; integrand support restricted to real-root bearings."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    if p <= quad.support_min:
        return 0.0
    if p <= quad.c0:
        return _q1_pdf(p, quad, rho, epsabs)
    return _q2_pdf(p, quad, rho, epsabs)


def cdf_reference_batch(p_values, quad: PowerQuadratic, rho: float, *,
                        n_nodes: int = 128, chunk: int = 16384,
                        workers: int = 1) -> np.ndarray:
    """Vectorized ``cdf_reference`` on an array of abscissae.

    Uses fixed Gauss-Legendre rules (interior nodes, so the substituted Q1
    integrand never hits its endpoint), with no error control.  Against the
    adaptive ``cdf_reference`` the default 128 nodes agree to within 5e-11 in
    the regimes the test suite exercises, but they are off by up to ~2.4e-3 in
    dense, far regimes (rho 0.1-1 per m^2, r1 20-100 km, p just above c0),
    where the Q2 bearing integrand has a near-kink at theta ~ pi/2.  Intended
    for bulk work such as Kolmogorov-Smirnov statistics over 1e6 sample points.

    Each branch is evaluated in chunks of ``chunk`` points, ``workers``
    threads taking chunks concurrently and each chunk writing its own slice of
    the output.  The chunk boundaries are part of the result: the node sum is
    a BLAS matrix-vector product whose rounding can depend on the number of
    rows (and on the BLAS library's own thread count), so a different
    ``chunk`` may change the low bits.  ``workers`` does not: each chunk's
    product has the same shape whichever thread runs it, and the BLAS
    library splits a product by its shape and its own thread count, not by
    the calling thread, so the result is bit-identical for any ``workers``.
    """
    p_values = np.asarray(p_values, dtype=float)
    out = np.zeros(p_values.shape, dtype=float)
    flat_p = p_values.ravel()
    flat_out = out.ravel()

    x, w = np.polynomial.legendre.leggauss(n_nodes)
    k = quad.half_b_max
    a = quad.a
    c0 = quad.c0
    k_a = k / a
    neg_pi_rho = -math.pi * rho

    # Q1: substituted variable t in (0, pi/2)
    t = 0.25 * math.pi * (x + 1.0)
    wt = (0.25 * math.pi / math.pi) * w
    sin_t, cos_t = np.sin(t)[None, :], np.cos(t)[None, :]

    def q1_chunk(sel):
        p = flat_p[sel][:, None]
        m2 = np.clip(a * (c0 - p) / (k * k), 0.0, 1.0)
        s = np.sqrt(1.0 - m2)
        cos_u = np.multiply(s, sin_t)                # sin_u, then cos_u in place
        np.multiply(cos_u, cos_u, out=cos_u)
        np.subtract(1.0, cos_u, out=cos_u)
        np.maximum(cos_u, m2, out=cos_u)
        np.sqrt(cos_u, out=cos_u)
        gap = np.multiply(k_a * s, cos_t)
        mid = np.multiply(k_a, cos_u)
        g = np.subtract(mid, gap)
        np.square(g, out=g)
        g *= neg_pi_rho
        np.exp(g, out=g)
        np.add(mid, gap, out=mid)
        np.square(mid, out=mid)
        mid *= neg_pi_rho
        np.exp(mid, out=mid)
        g -= mid
        np.multiply(s, cos_t, out=gap)
        g *= gap
        g /= cos_u
        flat_out[sel] = g @ wt

    # Q2: bearing folded onto (0, pi)
    theta = 0.5 * math.pi * (x + 1.0)
    wth = (0.5 * math.pi / math.pi) * w
    half_b = k * np.cos(theta)[None, :]
    hb2 = half_b * half_b
    abs_half_b = np.abs(half_b)
    # cos(theta) falls along the nodes, so the columns with half_b > 0 are a prefix
    n_pos = int(np.count_nonzero(half_b > 0.0))

    def q2_chunk(sel):
        q = (flat_p[sel] - c0)[:, None]
        r_hi = np.add(a * q, hb2)
        np.sqrt(r_hi, out=r_hi)
        r_hi += abs_half_b                        # stable for either sign of b
        pos, neg = r_hi[:, :n_pos], r_hi[:, n_pos:]
        np.divide(q, pos, out=pos)
        np.divide(neg, a, out=neg)
        r_hi *= r_hi
        r_hi *= neg_pi_rho
        np.expm1(r_hi, out=r_hi)
        np.negative(r_hi, out=r_hi)
        flat_out[sel] = r_hi @ wth

    tasks = []
    for kernel, mask in ((q1_chunk, (flat_p > quad.support_min) & (flat_p <= c0)),
                         (q2_chunk, flat_p > c0)):
        idx = np.flatnonzero(mask)
        tasks += [(kernel, idx[start:start + chunk])
                  for start in range(0, idx.size, chunk)]
    map_ordered(lambda kernel, sel: kernel(sel), tasks, workers)

    return out if p_values.ndim else float(flat_out[0])


def expected_power(quad: PowerQuadratic, rho: float) -> float:
    """Mean round total over the PPP, from the closed-form moments.

    The neighbor-distance second moment is 1/(pi*rho), the bearing cosine
    averages to zero, so the mean is a/(pi*rho) + c0.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    return quad.a / (math.pi * rho) + quad.c0


def expected_power_quadrature(quad: PowerQuadratic, rho: float, *,
                              epsrel: float = 1e-11) -> float:
    """Mean round total by nested 2-D quadrature; independent of the moments."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    r_max = math.sqrt(40.0 / (math.pi * rho))  # PPP tail mass < 1e-16

    def inner(theta):
        b = quad.b(theta)

        def f(r):
            return ((quad.a * r * r + b * r + quad.c0)
                    * rho * r * math.exp(-math.pi * rho * r * r))

        return _quad(f, 0.0, r_max, epsabs=0.0, epsrel=epsrel)

    return _quad(inner, -0.5 * math.pi, 1.5 * math.pi, epsabs=0.0, epsrel=epsrel)


def expected_power_conventional(params: LinearParams, r1: float) -> float:
    """Mean baseline total over the PPP, by the same moment argument."""
    if r1 <= 0:
        raise ValueError(f"r1 must be > 0, got {r1!r}")
    targets = powermodel.OutageTargets.for_target(params.p_out_target)
    eta_c = powermodel.cellular_coeff(params, targets.p_out_c)
    return eta_c * (2.0 * r1 * r1 + 1.0 / (math.pi * params.rho))


def energy_efficiency(expected: float, rate: float) -> float:
    """Delivered bits per joule: both messages (2R bits) per expected round total."""
    if expected <= 0:
        raise ValueError(f"expected power must be > 0, got {expected!r}")
    return 2.0 * rate / expected


def support_upper(quad: PowerQuadratic, rho: float, tail: float = 1e-6) -> float:
    """Abscissa where the reference CDF reaches 1 - tail."""
    lo = quad.c0
    hi = quad.c0 + quad.a * (math.log(1.0 / tail) + 10.0) / (math.pi * rho)
    while cdf_reference(hi, quad, rho) < 1.0 - tail:
        hi *= 2.0
    return optimize.brentq(
        lambda p: cdf_reference(p, quad, rho) - (1.0 - tail), lo, hi,
        xtol=1e-12 * hi, rtol=1e-10)


@dataclass(frozen=True)
class DistributionResult:
    """Grid evaluation of both CDF routes plus summary scalars."""

    p_grid: np.ndarray
    cdf_branch: np.ndarray
    pdf_branch: np.ndarray
    cdf_reference: np.ndarray
    expected_power: float
    energy_efficiency: float


def evaluate_distribution(params: LinearParams, r1: float, *,
                          n_grid: int = 256, tail: float = 1e-6) -> DistributionResult:
    """Evaluate both routes on a log-spaced grid spanning the support."""
    quad = PowerQuadratic.from_params(params, r1)
    rho = params.rho
    p_hi = support_upper(quad, rho, tail)
    grid = np.geomspace(quad.support_min, p_hi, n_grid)
    mean = expected_power(quad, rho)
    return DistributionResult(
        p_grid=grid,
        cdf_branch=np.array([cdf_branch_form(p, quad, rho) for p in grid]),
        pdf_branch=np.array([pdf_branch_form(p, quad, rho) for p in grid]),
        cdf_reference=np.array([cdf_reference(p, quad, rho) for p in grid]),
        expected_power=mean,
        energy_efficiency=energy_efficiency(mean, params.rate),
    )
