"""Independent oracle for the CDF of the round total: adaptive quadrature.

This is the defining probability integrated directly with ``scipy`` QUADPACK,
kept out of the package so that the production CDF engine
(``nncc.cdf_reference_batch``) is checked against a different method.

* Above c0 (Q2) the integrand is 1 - exp(-pi*rho*r_hi^2) over the bearing
  theta in [0, pi], with the larger root r_hi in the cancellation-free form.
  It has a near-kink where |k cos(theta)| ~ c = sqrt(a*(p - c0)), which
  adaptive quadrature misses when p is just above c0, and transitions where
  r_hi ~ 1/sqrt(pi*rho).  Break points are placed at m times each of those
  scales, m in {0.01, 0.1, 1, 10, 100}.
* Below c0 (Q1) the integrand is the PPP mass between the two roots, in the
  variable t of sin(u) = sqrt(1 - m^2)*sin(t) (u the bearing offset from pi).
  Near t = pi/2 it has features at the scales m, a/(2k*sqrt(pi*rho)) and
  k*m^2*sqrt(pi*rho)/(2a); break points sit at m times each, as above.

It agrees with 30-digit ``mpmath`` quadrature to within 4e-14 at rho 0.1
and 1 per m^2, r1 20 km and 100 km, and p within 1e-12 of c0.
"""

import math

from scipy import integrate

SCALES = (0.01, 0.1, 1.0, 10.0, 100.0)


def _quad(f, hi, points, epsabs):
    """Integral of f over [0, hi], split at the given points that lie inside."""
    inside = sorted({t for t in points if 0.0 < t < hi})
    val, _ = integrate.quad(f, 0.0, hi, points=inside or None, epsabs=epsabs,
                            epsrel=0.0, limit=2000)
    return val


def q2_cdf(p, quad, rho, epsabs=1e-13):
    """Upper-branch integral (p > c0)."""
    k, a = quad.half_b_max, quad.a
    q = p - quad.c0

    def f(theta):
        half_b = k * math.cos(theta)
        disc = math.sqrt(half_b * half_b + a * q)
        r_hi = q / (half_b + disc) if half_b > 0.0 else (disc - half_b) / a
        return -math.expm1(-math.pi * rho * r_hi * r_hi)

    # break points where |k cos(theta)| is m times each scale
    scales = (math.sqrt(a * q), a / (2.0 * math.sqrt(math.pi * rho)),
              0.5 * q * math.sqrt(math.pi * rho))
    angles = [math.acos(m * s / k) for s in scales for m in SCALES if m * s < k]
    points = [0.5 * math.pi] + angles + [math.pi - t for t in angles]
    return _quad(f, math.pi, points, epsabs * math.pi) / math.pi


def q1_cdf(p, quad, rho, epsabs=1e-13):
    """Lower-branch integral (support_min < p <= c0)."""
    k, a = quad.half_b_max, quad.a
    m2 = min(max(a * (quad.c0 - p) / (k * k), 0.0), 1.0)
    s = math.sqrt(1.0 - m2)

    def f(t):
        cos_t, sin_t = math.cos(t), math.sin(t)
        cos_u = math.sqrt(cos_t * cos_t + m2 * sin_t * sin_t)
        r_hi = k * (cos_u + s * cos_t) / a
        r_lo = (k * k * m2 / (a * a)) / r_hi  # the product of the roots is d^2/a^2
        return ((math.expm1(-math.pi * rho * r_lo * r_lo)
                 - math.expm1(-math.pi * rho * r_hi * r_hi)) * s * cos_t / cos_u)

    # break points where pi/2 - t is m times each scale
    root_pi_rho = math.sqrt(math.pi * rho)
    scales = (math.sqrt(m2), a / (2.0 * k * root_pi_rho),
              k * m2 * root_pi_rho / (2.0 * a))
    points = [0.5 * math.pi - m * s for s in scales for m in SCALES]
    return _quad(f, 0.5 * math.pi, points, epsabs * math.pi) / math.pi


def cdf_oracle(p, quad, rho, epsabs=1e-13):
    """CDF of the round total at one abscissa; 0 below the support."""
    if p <= quad.support_min:
        return 0.0
    if p <= quad.c0:
        return q1_cdf(p, quad, rho, epsabs)
    return q2_cdf(p, quad, rho, epsabs)


def branch_form_cdf(p, quad, rho):
    """The two-branch CDF as stated: above c0, the Q2 integral plus the Q1 one at c0."""
    if p <= quad.support_min:
        return 0.0
    if p <= quad.c0:
        return q1_cdf(p, quad, rho)
    return q2_cdf(p, quad, rho) + q1_cdf(quad.c0, quad, rho)
