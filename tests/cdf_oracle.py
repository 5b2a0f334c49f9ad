"""Independent oracle for the scale-free law H(y; k) and its density: adaptive quadrature.

These are the defining probability and its derivative integrated directly
with ``scipy`` QUADPACK, kept out of the package so that the production
engine (``nncc.cdf_scale_free``) and closed-form density
(``nncc.pdf_scale_free``) are checked against a different method.  The law is
that of the round total's quadratic with a = 1, b_coeff = k and c0 = 0 at
pi*rho = 1: y = x^2 + k*cos(theta)*x over the unit-density neighbour distance
x (x^2 ~ Exp(1)) and a uniform bearing theta, so a root x carries the mass
exp(-x^2), and half_b = (k/2)*cos(theta).

* Above 0 (Q2) the integrand is 1 - exp(-x_hi^2) over the bearing theta in
  [0, pi], with the larger root x_hi in the cancellation-free form.  It has a
  near-kink where |k cos(theta)|/2 ~ sqrt(y), which adaptive quadrature
  misses when y is just above 0, and transitions where x_hi ~ 1.  Break
  points are placed at m times each of those scales, m in {0.01, 0.1, 1, 10,
  100}.
* Below 0 (Q1) the integrand is the mass between the two roots, in the
  variable t of sin(w) = sqrt(1 - m^2)*sin(t) (w the bearing offset from pi).
  Near t = pi/2 it has features at the scales m, 1/k and k*m^2/4; break
  points sit at m times each, as above.

The CDF agrees with 30-digit ``mpmath`` quadrature to within 2e-16 at the
shapes of rho 0.1 and 1 per m^2 with r1 20 km and 100 km (k = 112 and 1765),
at totals within 1e-12 of c0 on either side; the density (``pdf_oracle``,
same variables and break points) to within 6e-14 relative at k = 1765, at
totals 1e-12 and 1e-9 from c0 on either side (against ``mpmath`` quadrature
above 0 and the Rice law in ``mpmath`` below).  ``quantile_oracle`` finds
the y where the oracle CDF reaches 1 - tail with a bracket and ``brentq``.
``pdf_integral_oracle`` integrates the package's density over an interval
with QUADPACK, one abscissa per call.
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


def _x_hi_q2(half_b, y):
    """Larger root -half_b + sqrt(half_b^2 + y), without cancellation."""
    disc = math.sqrt(half_b * half_b + y)
    return (y / (half_b + disc) if half_b > 0.0 else disc - half_b), disc


def _q2_points(y, k):
    """Bearings where |k cos(theta)|/2 is m times each Q2 feature scale."""
    half_b = 0.5 * k
    angles = [math.acos(m * s / half_b) for s in (math.sqrt(y), 0.5, 0.5 * y)
              for m in SCALES if m * s < half_b]
    return [0.5 * math.pi] + angles + [math.pi - t for t in angles]


def _q1_variables(y, k):
    """m^2 and s = sqrt(1 - m^2) of the Q1 substitution sin(w) = s*sin(t).

    s^2 is taken as the height y + k^2/4 over k^2/4, the height the engine
    takes: within 1e-12 of the support edge its rounding moves the density by
    up to 1e-8, so the two must start from the same sum.
    """
    quarter = 0.25 * k * k
    m2 = min(max(-y / quarter, 0.0), 1.0)
    return m2, math.sqrt(min(max((y + 0.25 * k * k) / quarter, 0.0), 1.0))


def _q1_roots(t, k, m2, s):
    """cos(w) and the two roots at the substituted variable t."""
    half_b = 0.5 * k
    cos_t, sin_t = math.cos(t), math.sin(t)
    cos_w = math.sqrt(cos_t * cos_t + m2 * sin_t * sin_t)
    x_hi = half_b * (cos_w + s * cos_t)
    x_lo = half_b * half_b * m2 / x_hi  # the product of the roots is |y|
    return cos_w, x_lo, x_hi


def _q1_points(k, m2):
    """Values of t where pi/2 - t is m times each Q1 feature scale."""
    return [0.5 * math.pi - m * s for s in (math.sqrt(m2), 1.0 / k, 0.25 * k * m2)
            for m in SCALES]


def q2_cdf(y, k, epsabs=1e-13):
    """Upper-branch integral (y > 0)."""
    def f(theta):
        x_hi, _ = _x_hi_q2(0.5 * k * math.cos(theta), y)
        return -math.expm1(-x_hi * x_hi)

    return _quad(f, math.pi, _q2_points(y, k), epsabs * math.pi) / math.pi


def q1_cdf(y, k, epsabs=1e-13):
    """Lower-branch integral (-k^2/4 < y <= 0)."""
    m2, s = _q1_variables(y, k)

    def f(t):
        cos_w, x_lo, x_hi = _q1_roots(t, k, m2, s)
        return (math.expm1(-x_lo * x_lo) - math.expm1(-x_hi * x_hi)) * s * math.cos(t) / cos_w

    return _quad(f, 0.5 * math.pi, _q1_points(k, m2), epsabs * math.pi) / math.pi


def cdf_oracle(y, k, epsabs=1e-13):
    """H(y; k) at one abscissa; 0 at and below the support's floor -k^2/4."""
    if y + 0.25 * k * k <= 0.0:
        return 0.0
    if y <= 0.0:
        return q1_cdf(y, k, epsabs)
    return q2_cdf(y, k, epsabs)


def branch_form_cdf(y, k):
    """The two-branch CDF as stated: above 0, the Q2 integral plus the Q1 one at 0."""
    if y + 0.25 * k * k <= 0.0:
        return 0.0
    if y <= 0.0:
        return q1_cdf(y, k)
    return q2_cdf(y, k) + q1_cdf(0.0, k)


def pdf_oracle(y, k, epsrel=1e-13):
    """Density of y at one abscissa; 0 at and below the support's floor.

    Each root x contributes the density 2*x*exp(-x^2) of the distance times
    |dx/dy| = 1/(2*sqrt(half_b^2 + y)), over pi, in the variables and with
    the break points of the CDF oracle.
    """
    if y + 0.25 * k * k <= 0.0:
        return 0.0
    if y > 0.0:
        def f(theta):
            x_hi, disc = _x_hi_q2(0.5 * k * math.cos(theta), y)
            return x_hi * math.exp(-x_hi * x_hi) / (math.pi * disc)

        return _quad(f, math.pi, _q2_points(y, k), 0.0, epsrel)
    m2, s = _q1_variables(y, k)

    def f(t):  # the root gap sqrt(half_b^2 + y) cancels against dtheta/dt
        cos_w, x_lo, x_hi = _q1_roots(t, k, m2, s)
        return ((x_hi * math.exp(-x_hi * x_hi) + x_lo * math.exp(-x_lo * x_lo))
                / (math.pi * 0.5 * k * cos_w))

    return _quad(f, 0.5 * math.pi, _q1_points(k, m2), 0.0, epsrel)


def quantile_oracle(k, tail):
    """The y where the oracle CDF reaches 1 - tail (tail below 1 - H(0; k))."""
    lo, hi = 0.0, math.log(1.0 / tail) + 10.0
    while cdf_oracle(hi, k) < 1.0 - tail:
        lo, hi = hi, 2.0 * hi
    return optimize.brentq(lambda y: cdf_oracle(y, k) - (1.0 - tail), lo, hi,
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
