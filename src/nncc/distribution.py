"""Distribution of the cooperative total power over random pair placements.

At a fixed placement the round total is a quadratic in the neighbor distance,

    P(r, theta) = a*r^2 + b(theta)*r + c0,
    a = 2*zeta + eps_total*eta2,  b(theta) = 2*eps_total*eta2*r1*cos(theta),
    c0 = eps_total*(eta1 + eta2)*r1^2,

so with the PPP neighbor-distance law and a uniform bearing the CDF of the
total is an integral over theta of the probability mass the neighbor distance
puts on the root interval of ``P(r, theta) <= p``.

``cdf_reference_batch`` is the one CDF.  It splits at p = c0 into the regions
Q1 (below) and Q2 (above) and substitutes so that the roots become
exponentials.  With k = b_coeff/2 and half_b = k*cos(theta):

* Q2: half_b = c*sinh(w) with c = sqrt(a*(p - c0)).  The larger root is then
  exactly r_hi = (c/a)*exp(-w), with w in [-V, V], V = asinh(k/c).  Without
  this the integrand has a near-kink at half_b ~ +-c, which a fixed or
  adaptive rule in theta misses when p is just above c0.
* Q1: -half_b = d*cosh(w) with d = sqrt(a*(c0 - p)).  The roots are then
  (d/a)*exp(-w) and (d/a)*exp(w), with w in [0, W], W = asinh(sqrt(a*(p -
  support_min))/d).

Then w = V*cos(phi) (W*cos(phi)), and Q2 folds w onto [0, V].  Either
integrand becomes a smooth, even, pi-periodic function of phi in [0, pi/2]
(Trefethen, Approximation Theory and Approximation Practice, ch. 19), on
which the trapezoid rule converges geometrically.  The rule doubles, reusing
its nodes, until the change |T_2n - T_n| is at most ``_CDF_TOL`` = 1e-10,
and T_2n is kept.  A point that has not converged at ``_MAX_NODES``
intervals raises ``IntegrationError``.

``pdf_branch_form``, the density, is a second integrand on the same loop:
on both branches rho/a times the integral over phi in [0, pi/2] of
(exp(-u + beta*exp(-2u)) + exp(u + beta*exp(2u))) * V*sin(phi)/sqrt(sinh(V)^2
- sinh(u)^2), u = V*cos(phi), beta = -pi*rho*(c/a)^2 (Q2) or -pi*rho*(d/a)^2
(Q1).  Its rule stops at a change of ``_CDF_TOL`` times the value (relative
1e-10) and raises ``IntegrationError`` past ``_MAX_NODES`` intervals too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .params import LinearParams, ParameterError
from . import powermodel
from ._pool import map_ordered

# coefficients at or above this magnitude overflow when squared
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)
# each value's error by its own doubling estimate: absolute (CDF), relative (density)
_CDF_TOL = 1e-10
# relative tolerance of each level of the mean's nested quadrature
_MEAN_EPSREL = 1e-11
# trapezoid intervals on [0, pi/2] past which a point is an IntegrationError
_MAX_NODES = 1 << 13
# points per task, and values per kernel temporary (4096 points x 128 nodes)
_CHUNK = 4096
_CELLS = 4096 * 128


class IntegrationError(RuntimeError):
    """A quadrature failed to reach its error tolerance."""


def _quad(func, lo, hi, epsabs, epsrel=1e-10, limit=200):
    from scipy import integrate  # deferred: figure and sweep runs never integrate

    out = integrate.quad(func, lo, hi, epsabs=epsabs, epsrel=epsrel,
                         limit=limit, full_output=1)
    if len(out) > 3:
        message = " ".join(out[3].split())  # QUADPACK's messages span lines
        raise IntegrationError(
            f"quadrature on [{lo!r}, {hi!r}] did not converge: {message} "
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
        eps_total = powermodel.OutageTargets.for_target(params.p_out_target).eps_total
        return cls.from_coefficients(powermodel.power_coefficients(params), eps_total, r1)

    @classmethod
    def from_coefficients(cls, coeff: powermodel.PowerCoefficients, eps_total: float,
                          r1) -> "PowerQuadratic":
        """Expand 2*zeta*r^2 + eps_total*(eta1*r1^2 + eta2*r2^2) in r.

        ``r1`` may also be an array of distances, giving array coefficients.
        The root and CDF computations square the coefficients, so a
        coefficient whose square overflows is a ``ParameterError``.
        """
        if np.any(np.asarray(r1) <= 0):
            raise ValueError(f"r1 must be > 0, got {r1!r}")
        ee2 = eps_total * coeff.eta2
        quad = cls(a=2.0 * coeff.zeta + ee2, b_coeff=2.0 * ee2 * r1,
                   c0=eps_total * (coeff.eta1 + coeff.eta2) * r1 * r1)
        for name in ("a", "b_coeff", "c0"):
            value = getattr(quad, name)
            if not np.all(np.abs(value) < _SQRT_FLOAT_MAX):  # also rejects nan
                raise ParameterError(
                    "rate", f"the round total's coefficient {name} reaches "
                            f"{float(np.max(np.abs(value))):.3g}, whose square "
                            "overflows; lower the rate or the distances")
        return quad

    def b(self, theta: float) -> float:
        return self.b_coeff * math.cos(theta)

    @property
    def half_b_max(self) -> float:
        # |b(theta)|/2 at cos(theta) = -1; sets the depth of the support dip
        return 0.5 * self.b_coeff

    @property
    def support_min(self) -> float:
        """Smallest achievable total: vertex value at cos(theta) = -1."""
        k = self.half_b_max
        return self.c0 - k * k / self.a


# --- the engine (substitution in the module docstring) ----------------------

def _cdf_integrand(v, s2, beta, cos_phi, sin_phi, upper):
    """The substituted CDF integrand at nodes phi in (0, pi/2], one row per point.

    ``v`` is V (Q2) or W (Q1), ``s2`` is sinh(v)^2 and ``beta`` is
    -pi*rho*(c/a)^2 (Q2) or -pi*rho*(d/a)^2 (Q1), each a column.  With
    u = v*cos(phi) the roots are (c/a)*exp(-+u) (or (d/a)*exp(-+u)), and
    dtheta/dphi is cosh(u) (Q2) or sinh(u) (Q1) times
    v*sin(phi)/sqrt(sinh(v)^2 - sinh(u)^2).
    """
    em = np.multiply(v, cos_phi)
    np.expm1(em, out=em)                   # exp(u) - 1
    big = em + 1.0                         # exp(u)
    sinh_u = em + 2.0
    sinh_u *= em
    sinh_u /= big
    sinh_u *= 0.5                          # from expm1, so it keeps its digits at small u
    if upper:
        np.subtract(sinh_u, big, out=em)   # -cosh(u)
    np.square(big, out=big)
    g = np.divide(beta, big)
    np.expm1(g, out=g)                     # exp(-pi*rho*r_lo^2) - 1
    big *= beta
    np.expm1(big, out=big)                 # exp(-pi*rho*r_hi^2) - 1
    if upper:                              # both roots' bearings, folded onto u >= 0
        g += big
        g *= em
    else:                                  # mass between the roots
        g -= big
        g *= sinh_u
    np.square(sinh_u, out=sinh_u)
    np.subtract(s2, sinh_u, out=sinh_u)
    np.sqrt(sinh_u, out=sinh_u)
    g *= v
    g *= sin_phi
    g /= sinh_u
    return g


def _cdf_limit(v, beta, upper):
    """``_cdf_integrand`` at phi = 0, its limit u = v; ``v`` and ``beta`` are flat."""
    e2v = np.exp(2.0 * v)
    g_lo, g_hi = np.expm1(beta / e2v), np.expm1(beta * e2v)
    if upper:
        return -(g_lo + g_hi) * np.sqrt(v / np.tanh(v))
    return (g_lo - g_hi) * np.sqrt(v * np.tanh(v))


def _pdf_integrand(v, s2, beta, cos_phi, sin_phi, upper):
    """The substituted density integrand, arguments as in ``_cdf_integrand``.

    Each root's |dr/dp|, 1/(2*d*sinh(u)) (Q1) or 1/(2*d*cosh(u)) (Q2), cancels
    against the Jacobian.  Each exponential is taken whole, so none overflows.
    """
    u = v * cos_phi
    e2u = np.exp(2.0 * u)
    numerator = np.exp(beta / e2u - u) + np.exp(beta * e2u + u)
    return numerator * v * sin_phi / np.sqrt(s2 - np.sinh(u) ** 2)


def _pdf_limit(v, beta, upper):
    """``_pdf_integrand`` at phi = 0, its limit u = v; ``v`` and ``beta`` are flat."""
    e2v = np.exp(2.0 * v)
    return ((np.exp(beta / e2v - v) + np.exp(beta * e2v + v))
            * np.sqrt(2.0 * v / np.sinh(2.0 * v)))


class _Integrand(NamedTuple):
    """Node values, phi = 0 limit and tolerance |T_2n - T_n| <= atol + rtol*T_2n."""

    name: str
    nodes: Callable
    limit: Callable
    atol: float
    rtol: float


def _branch(p: np.ndarray, quad: PowerQuadratic, rho: float, upper: bool, n_nodes: int,
            f: _Integrand) -> tuple[np.ndarray, np.ndarray]:
    """Means of ``f`` over phi in [0, pi/2] at points ``p`` of one branch, and errors."""
    a = quad.a
    if upper:
        d2 = a * (p - quad.c0)
        s2 = quad.half_b_max * quad.half_b_max / d2
    else:
        # the density is at most 2*pi*rho/a, so flooring c0 - p at this shift
        # moves the CDF by at most 1e-3 * _CDF_TOL; it keeps W finite at p = c0
        d2 = a * np.maximum(quad.c0 - p, 1e-3 * _CDF_TOL * a / (2.0 * math.pi * rho))
        s2 = a * (p - quad.support_min) / d2
    v = np.arcsinh(np.sqrt(s2))
    beta = (-math.pi * rho / (a * a)) * d2
    end = f.limit(v, beta, upper)
    v, s2, beta = v[:, None], s2[:, None], beta[:, None]

    def node_sum(rows, phi, weights):
        cos_phi, sin_phi = np.cos(phi), np.sin(phi)
        step = max(1, _CELLS // phi.size)
        out = np.empty(rows.size)
        for start in range(0, rows.size, step):
            sel = rows[start:start + step]
            g = f.nodes(v[sel], s2[sel], beta[sel], cos_phi, sin_phi, upper)
            out[start:start + step] = np.einsum("ij,j->i", g, weights)
        return out

    # trapezoid sums over n intervals of [0, pi/2]; the mean is sum / (2n)
    n = n_nodes
    weights = np.ones(n)
    weights[-1] = 0.5
    grid = np.arange(1, n + 1) * (0.5 * math.pi / n)
    total = 0.5 * end + node_sum(np.arange(p.size), grid, weights)
    value = total / (2 * n)
    err = np.full(p.size, np.inf)
    todo = np.arange(p.size)
    while todo.size:
        if n >= _MAX_NODES:
            i = todo[0]
            raise IntegrationError(
                f"{f.name} at p = {float(p[i])!r} ({quad!r}, rho = {rho!r}) did not "
                f"converge within {n} intervals (estimate {err[i]:.3g}, "
                f"{err[i] / value[i]:.3g} of the value)")
        midpoints = (np.arange(n) + 0.5) * (0.5 * math.pi / n)
        total[todo] += node_sum(todo, midpoints, np.ones(n))
        n *= 2
        finer = total[todo] / (2 * n)
        err[todo] = np.abs(finer - value[todo])
        value[todo] = finer
        todo = todo[err[todo] > f.atol + f.rtol * finer]
    return value, err


def _integrate(p_values, quad: PowerQuadratic, rho: float, f: _Integrand,
               n_nodes: int = 8, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``_branch`` over chunks of points of any shape, 0 below the support."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes!r}")
    p_values = np.asarray(p_values, dtype=float)
    out = np.zeros(p_values.shape, dtype=float)
    err = np.zeros(p_values.shape, dtype=float)
    flat_p, flat_out, flat_err = p_values.ravel(), out.ravel(), err.ravel()

    def task(upper, sel):
        flat_out[sel], flat_err[sel] = _branch(flat_p[sel], quad, rho, upper, n_nodes, f)

    tasks = []
    for upper, mask in ((False, (flat_p > quad.support_min) & (flat_p <= quad.c0)),
                        (True, flat_p > quad.c0)):
        idx = np.flatnonzero(mask)
        tasks += [(upper, idx[start:start + _CHUNK]) for start in range(0, idx.size, _CHUNK)]
    map_ordered(task, tasks, workers)
    return out, err


def _cdf_and_error(p_values, quad: PowerQuadratic, rho: float, n_nodes: int = 8,
                   workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``cdf_reference_batch`` with each value's error estimate, as two arrays."""
    return _integrate(p_values, quad, rho, _Integrand(
        "CDF", _cdf_integrand, _cdf_limit, _CDF_TOL, 0.0), n_nodes, workers)


def cdf_reference_batch(p_values, quad: PowerQuadratic, rho: float, *,
                        n_nodes: int = 8, workers: int = 1):
    """CDF of the round total at ``p_values``, each to 1e-10 by its own estimate.

    A 0-d input gives a float, an array an array of its shape.  Each point
    takes the substitution of the module docstring, which makes the roots
    exponentials, and starts from the trapezoid rule with ``n_nodes``
    intervals on [0, pi/2].  It doubles the rule, reusing its nodes, until
    the change is at most ``_CDF_TOL`` = 1e-10 in absolute terms, and returns
    the finer value.  A point whose change is still above that at
    ``_MAX_NODES`` = 8192 intervals raises ``IntegrationError`` naming p, the
    quadratic and rho.  Below the support the CDF is 0.

    The points are taken in chunks, ``workers`` threads taking chunks
    concurrently and each chunk writing its own slice of the output.  Every
    point's value depends on that point alone: its doubling stops on its own
    estimate, the kernels are element-wise, and the node sums are per-row
    ``einsum`` calls, which numpy computes itself in a fixed order (without
    ``optimize`` it never hands them to BLAS).  So the result is
    bit-identical for any ``workers``, any chunk size and any BLAS thread
    count.
    """
    values, _ = _cdf_and_error(p_values, quad, rho, n_nodes, workers)
    return values if values.ndim else float(values)


def pdf_branch_form(p, quad: PowerQuadratic, rho: float):
    """Density of the round total at ``p``, each value to 1e-10 relative.

    A 0-d input gives a float, an array an array of its shape; the branch
    form of the CDF has the same density.  It is rho/a times the integral over
    phi in [0, pi/2] of (exp(-u + beta*exp(-2u)) + exp(u + beta*exp(2u))) *
    v*sin(phi)/sqrt(sinh(v)^2 - sinh(u)^2), u = v*cos(phi), in the variables
    of the module docstring, by the doubling trapezoid rule of
    ``cdf_reference_batch`` until the change is at most ``_CDF_TOL`` = 1e-10
    times the value (near the subnormal range, the smallest normal float
    times pi*rho/a).  That is the trapezoid error only: within ~1e-12
    (relative) of ``support_min`` its rounding moves the density by up to
    ~1e-8 relative, and near c0 the rounding of a*(c0 - p) times |beta| costs
    ~1e-11 (rho 0.1, r1 20 km).  A point not there at ``_MAX_NODES`` = 8192
    intervals raises ``IntegrationError`` naming p, the quadratic and rho.
    At and below the support minimum the density is 0.
    """
    # a subnormal mean has no relative digits: its floor is the smallest normal
    values, _ = _integrate(p, quad, rho, _Integrand(
        "density", _pdf_integrand, _pdf_limit, sys.float_info.min, _CDF_TOL))
    values *= math.pi * rho / quad.a
    return values if values.ndim else float(values)


def expected_power(quad: PowerQuadratic, rho: float) -> float:
    """Mean round total over the PPP, from the closed-form moments.

    The neighbor-distance second moment is 1/(pi*rho), the bearing cosine
    averages to zero, so the mean is a/(pi*rho) + c0.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    return quad.a / (math.pi * rho) + quad.c0


def expected_power_quadrature(quad: PowerQuadratic, rho: float) -> float:
    """Mean round total by nested 2-D quadrature; independent of the moments."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    r_max = math.sqrt(40.0 / (math.pi * rho))  # PPP tail mass < 1e-16

    def inner(theta):
        b = quad.b(theta)

        def f(r):
            return ((quad.a * r * r + b * r + quad.c0)
                    * rho * r * math.exp(-math.pi * rho * r * r))

        return _quad(f, 0.0, r_max, epsabs=0.0, epsrel=_MEAN_EPSREL)

    return _quad(inner, -0.5 * math.pi, 1.5 * math.pi, epsabs=0.0, epsrel=_MEAN_EPSREL)


def expected_power_conventional(params: LinearParams, r1: float) -> float:
    """Mean baseline total over the PPP, by the same moment argument.

    The mean of eta1*r1^2 + eta2*r2^2 is (eta1 + eta2)*r1^2 + eta2*m with
    m = 1/(pi*rho); it is taken around the mean coefficient, so that with
    equal handset gains the difference term is exactly zero.
    """
    if r1 <= 0:
        raise ValueError(f"r1 must be > 0, got {r1!r}")
    p_c = powermodel.OutageTargets.for_target(params.p_out_target).p_out_c
    eta1 = powermodel.Link.cellular(params, 1).coeff(p_c)
    eta2 = powermodel.Link.cellular(params, 2).coeff(p_c)
    m = 1.0 / (math.pi * params.rho)
    return 0.5 * (eta1 + eta2) * (2.0 * r1 * r1 + m) + 0.5 * (eta2 - eta1) * m


def energy_efficiency(expected: float, rate: float) -> float:
    """Delivered bits per joule: both messages (2R bits) per expected round total."""
    if expected <= 0:
        raise ValueError(f"expected power must be > 0, got {expected!r}")
    return 2.0 * rate / expected


def support_upper(quad: PowerQuadratic, rho: float, tail: float = 1e-6) -> float:
    """A total above which the round total lies with probability at most ``tail``.

    It is c0 + (a*r_t + b_coeff)*r_t with r_t = sqrt(-log(tail)/(pi*rho)), the
    distance the PPP neighbor exceeds with probability exactly ``tail``.  At
    every bearing a*r^2 + b_coeff*cos(theta)*r + c0 is at most that value for
    r <= r_t, so the CDF there is at least 1 - tail.  Its distance from c0
    is that of the (1 - tail)-quantile when a*r_t^2 dominates, and at most
    1.12 (tail 1e-6) or 1.09 (tail 1e-9) times it over rho in [1e-7, 1] and
    r1 in [50 m, 100 km].
    """
    if not 0.0 < tail < 1.0:
        raise ValueError(f"tail must lie in (0, 1), got {tail!r}")
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    r_t = math.sqrt(-math.log(tail) / (math.pi * rho))
    return quad.c0 + (quad.a * r_t + quad.b_coeff) * r_t
