"""Independent oracle for the CDF and density of the round total: adaptive quadrature.

These are the defining probability and its derivative integrated directly
with ``scipy`` QUADPACK, kept out of the package so that the production
engine (``nncc.cdf_reference_batch``) and closed-form density
(``nncc.pdf_branch_form``) are checked against a different method.

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

The CDF agrees with 30-digit ``mpmath`` quadrature to within 4e-14 at rho
0.1 and 1 per m^2, r1 20 km and 100 km, and p within 1e-12 of c0; the
density (``pdf_oracle``, same variables and break points) to within 3e-13
relative at rho 1, r1 100 km, p = c0 (1 +- 1e-12) and c0 (1 + 1e-9).
``quantile_oracle`` finds the abscissa where the oracle CDF reaches 1 - tail
with a bracket and ``brentq``.  ``pdf_integral_oracle`` integrates the
package's density over an interval with QUADPACK, one abscissa per call.
"""

import math

from scipy import integrate, optimize

SCALES = (0.01, 0.1, 1.0, 10.0, 100.0)


def _quad(f, hi, points, epsabs, epsrel=0.0):
    """Integral of f over [0, hi], split at the given points that lie inside."""
    inside = sorted({t for t in points if 0.0 < t < hi})
    val, _ = integrate.quad(f, 0.0, hi, points=inside or None, epsabs=epsabs,
                            epsrel=epsrel, limit=2000)
    return val


def _r_hi_q2(half_b, q, a):
    """Larger root (-half_b + sqrt(half_b^2 + a*q))/a, without cancellation."""
    disc = math.sqrt(half_b * half_b + a * q)
    return (q / (half_b + disc) if half_b > 0.0 else (disc - half_b) / a), disc


def _q2_points(quad, q, rho):
    """Bearings where |k cos(theta)| is m times each Q2 feature scale."""
    k, a = quad.half_b_max, quad.a
    scales = (math.sqrt(a * q), a / (2.0 * math.sqrt(math.pi * rho)),
              0.5 * q * math.sqrt(math.pi * rho))
    angles = [math.acos(m * s / k) for s in scales for m in SCALES if m * s < k]
    return [0.5 * math.pi] + angles + [math.pi - t for t in angles]


def _q1_variables(p, quad):
    """m^2 and s = sqrt(1 - m^2) of the Q1 substitution sin(u) = s*sin(t).

    s^2 is taken as a*(p - support_min)/k^2, the difference the engine takes:
    within 1e-12 of the support edge its rounding moves the density by up to
    1e-8, so the two must start from the same difference.
    """
    k, a = quad.half_b_max, quad.a
    m2 = min(max(a * (quad.c0 - p) / (k * k), 0.0), 1.0)
    return m2, math.sqrt(min(max(a * (p - quad.support_min) / (k * k), 0.0), 1.0))


def _q1_roots(t, quad, m2, s):
    """cos(u) and the two roots at the substituted variable t."""
    k, a = quad.half_b_max, quad.a
    cos_t, sin_t = math.cos(t), math.sin(t)
    cos_u = math.sqrt(cos_t * cos_t + m2 * sin_t * sin_t)
    r_hi = k * (cos_u + s * cos_t) / a
    r_lo = (k * k * m2 / (a * a)) / r_hi  # the product of the roots is d^2/a^2
    return cos_u, r_lo, r_hi


def _q1_points(quad, m2, rho):
    """Values of t where pi/2 - t is m times each Q1 feature scale."""
    k, a = quad.half_b_max, quad.a
    root_pi_rho = math.sqrt(math.pi * rho)
    scales = (math.sqrt(m2), a / (2.0 * k * root_pi_rho),
              k * m2 * root_pi_rho / (2.0 * a))
    return [0.5 * math.pi - m * s for s in scales for m in SCALES]


def q2_cdf(p, quad, rho, epsabs=1e-13):
    """Upper-branch integral (p > c0)."""
    q = p - quad.c0

    def f(theta):
        r_hi, _ = _r_hi_q2(quad.half_b_max * math.cos(theta), q, quad.a)
        return -math.expm1(-math.pi * rho * r_hi * r_hi)

    return _quad(f, math.pi, _q2_points(quad, q, rho), epsabs * math.pi) / math.pi


def q1_cdf(p, quad, rho, epsabs=1e-13):
    """Lower-branch integral (support_min < p <= c0)."""
    m2, s = _q1_variables(p, quad)

    def f(t):
        cos_u, r_lo, r_hi = _q1_roots(t, quad, m2, s)
        return ((math.expm1(-math.pi * rho * r_lo * r_lo)
                 - math.expm1(-math.pi * rho * r_hi * r_hi)) * s * math.cos(t) / cos_u)

    return _quad(f, 0.5 * math.pi, _q1_points(quad, m2, rho), epsabs * math.pi) / math.pi


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


def pdf_oracle(p, quad, rho, epsrel=1e-13):
    """Density of the round total at one abscissa; 0 at and below the support.

    Each root r contributes the PPP density 2*pi*rho*r*exp(-pi*rho*r^2) times
    |dr/dp| = 1/(2*sqrt(half_b^2 + a*(p - c0))), in the variables and with the
    break points of the CDF oracle.
    """
    k, a = quad.half_b_max, quad.a
    if p <= quad.support_min:
        return 0.0
    if p > quad.c0:
        q = p - quad.c0

        def f(theta):
            r_hi, disc = _r_hi_q2(k * math.cos(theta), q, a)
            return rho * r_hi * math.exp(-math.pi * rho * r_hi * r_hi) / disc

        return _quad(f, math.pi, _q2_points(quad, q, rho), 0.0, epsrel)
    m2, s = _q1_variables(p, quad)

    def f(t):  # the root gap sqrt(half_b^2 - a*(c0 - p)) cancels against dtheta/dt
        cos_u, r_lo, r_hi = _q1_roots(t, quad, m2, s)
        return rho * (r_hi * math.exp(-math.pi * rho * r_hi * r_hi)
                      + r_lo * math.exp(-math.pi * rho * r_lo * r_lo)) / (k * cos_u)

    return _quad(f, 0.5 * math.pi, _q1_points(quad, m2, rho), 0.0, epsrel)


def quantile_oracle(quad, rho, tail):
    """Abscissa where the oracle CDF reaches 1 - tail (tail below 1 - F(c0))."""
    lo = quad.c0
    hi = quad.c0 + quad.a * (math.log(1.0 / tail) + 10.0) / (math.pi * rho)
    while cdf_oracle(hi, quad, rho) < 1.0 - tail:
        lo, hi = hi, 2.0 * hi
    return optimize.brentq(lambda p: cdf_oracle(p, quad, rho) - (1.0 - tail), lo, hi,
                           xtol=1e-12 * hi, rtol=1e-10)


def pdf_integral_oracle(k, lo, hi):
    """Integral of ``nncc.pdf_scale_free`` over [lo, hi] in y by adaptive QUADPACK.

    It takes the same integrand as ``validate``'s density cells, so the two
    differ only by their quadrature rules.
    """
    from nncc import pdf_scale_free

    val, _ = integrate.quad(lambda y: pdf_scale_free(y, k), lo, hi,
                            epsabs=1e-12, epsrel=1e-10, limit=400)
    return val
