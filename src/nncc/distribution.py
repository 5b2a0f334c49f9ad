"""Distribution of a scheme's round total over random pair placements.

At a fixed placement the round total is a quadratic in the neighbor distance,

    P(r, theta) = a*r^2 + b(theta)*r + c0,
    a = 2*zeta + eps_total*eta2,  b(theta) = 2*eps_total*eta2*r1*cos(theta),
    c0 = eps_total*(eta1 + eta2)*r1^2,

for either scheme's ``PowerCoefficients`` (the baseline's has zeta = 0 and
eps_total = 1, so a = eta2).  The PPP's void probability exp(-pi*rho*r^2)
makes the area u = pi*rho*r^2 Exp(1), and the bearing is uniform (Haenggi,
Stochastic Geometry for Wireless Networks, 2012, ch. 2).  So with v =
cos(theta)*sqrt(u) the total is c0 + A*y, y = u + k*v, and F(p) = H((p -
c0)/A; k) has the one shape parameter k.  ``PowerQuadratic.law`` gives A =
a/(pi*rho) and k = b_coeff*sqrt(pi*rho)/a; it is the one place where pi*rho
meets the coefficients.  The engine takes y and k alone: ``cdf_scale_free``
is H and ``pdf_scale_free`` its density dH/dy.

With X, Y = sqrt(2u)*(cos, sin)(theta), independent standard normals (Box & Muller,
1958), 2*y + k^2/2 = (X + k/sqrt(2))^2 + Y^2 is chi^2_2 with noncentrality k^2/2: H
= 1 - Q_1(k/sqrt(2), sqrt(2*y + k^2/2)) (Marcum Q, 1950), and ``pdf_scale_free`` is
the Rice law exp(-(s - k/2)^2)*I0e(k*s), s = sqrt(y + k^2/4) (Rice, 1944).

The engine splits by the sign of y into Q1 (-k^2/4 < y <= 0, below c0) and
Q2 (y > 0), and substitutes so that the roots x = sqrt(u) of x^2 +
2*half_b*x = y, half_b = (k/2)*cos(theta), become exponentials:

* Q2: half_b = sqrt(y)*sinh(w).  The larger root is then exactly
  sqrt(y)*exp(-w), with w in [-V, V], sinh(V)^2 = s2 = k^2/(4y).  Without
  this the integrand has a near-kink at half_b ~ +-sqrt(y), which a fixed or
  adaptive rule in theta misses when y is just above 0.
* Q1: -half_b = sqrt(|y|)*cosh(w).  The roots are then sqrt(|y|)*exp(-+w),
  with w in [0, W], sinh(W)^2 = s2 = (y + k^2/4)/|y|.

A root x carries the mass exp(-x^2) = exp(beta*exp(-+2w)), beta = -|y|.
Floors keep every value finite: in Q1 |y| >= 1e-3*``_CDF_TOL``/2, so W is
finite at y = 0 (the density of y is at most 2: the CDF moves by at most
1e-3*``_CDF_TOL``); |y| rises until s2 <= ``_S2_MAX`` = 1e300, so exp(2*V) is
finite (y moves by <= k^2/4e300, the CDF by < 1e-13, and for k > 4e143 by <
1e-146, as the density near y = 0 is ~1/(sqrt(pi)*k)); and s2 >= 1e-200, so
V > 0 as k vanishes, where the phi = 0 limits are 0/0.
Then w = V*cos(phi) (W*cos(phi)), and Q2 folds w onto [0, V].  The
integrand becomes a smooth, even, pi-periodic function of phi in [0, pi/2]
(Trefethen, Approximation Theory and Approximation Practice, ch. 19), on
which the trapezoid rule converges geometrically: from 8 intervals (h = 1/16 of
the mean over [0, pi/2]; the grid with half the phi = 0 limit, then the midpoints,
in one kernel call), at atol ``_CDF_TOL``, up to ``_MAX_NODES`` = 8192 intervals.

The independent checks of ``validate`` are the mean by nested 2-D quadrature and the
density of y over the cells [-k^2/4, s], [s, 0] and [0, y_hi], y_hi = ``_y_upper``(k,
1e-9), s = max(-k^2/4, -y_hi), each against H.  The mean's periodic bearing goes by
the trapezoid rule as above (Trefethen & Weideman, SIAM Review 56(3), 2014): h =
2*pi/4, opening on the even and then the odd of 8 bearings, at rtol ``_MEAN_EPSREL``
up to ``_MAX_BEARINGS`` = 256.  Its distance and the cells go by ``_tanh_sinh``
(Takahasi & Mori, 1974): x = mid + half*tanh(pi/2*sinh(t)), the trapezoid rule in t
on [-3.5, 3.5] from h = 1/2 with the two end terms, its first ``_TS_OPEN`` = 4 levels
in one call, up to ``_TS_LEVELS`` = 7 halvings (1793 nodes); the interval-free
factors of its nodes and weights are computed once (``_TS_RULE``).

The three are one doubling rule, ``_doubling``, on rows (points, sets or intervals).
Level 0 is the opening rule of step h; each later level halves h and adds the new
nodes' sums.  From level 1 a row meets |T_h/2 - T_h| (plus h/2 times the end terms,
tanh-sinh's truncation estimate) <= atol + rtol*|T_h/2| once each entry does; it is
then frozen, never evaluated again, with the bits of a call on it alone.  A running
sum that is not finite never clears, so it is an ``IntegrationError`` at once, as is
a row still going past the last level; each names the row.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .geometry import require_density
from .params import ParameterError
from . import powermodel

# coefficients at or above this magnitude overflow when squared
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)
# each CDF value's absolute error by its own doubling estimate
_CDF_TOL = 1e-10
_S2_MAX = 1e300  # s2 = sinh(V)^2 at most this: exp(2*V) ~ 4*s2 stays finite
# the mean's relative tolerance, and bearings past which a set is an IntegrationError
_MEAN_EPSREL, _MAX_BEARINGS = 1e-11, 1 << 8
# tanh-sinh steps t on [-_TS_T, _TS_T]: the first step, halvings before giving up, and
# the levels of the opening f call (steps 1/2 to 1/16: 113 nodes per interval)
_TS_T, _TS_H0, _TS_LEVELS, _TS_OPEN = 3.5, 0.5, 7, 4
# trapezoid intervals on [0, pi/2] past which a point is an IntegrationError
_MAX_NODES = 1 << 13
# points per chunk (2048 x 16 opening temporaries), values per kernel temporary (4096 x 128)
_CHUNK = 2048
_CELLS = 4096 * 128


class IntegrationError(RuntimeError):
    """A quadrature failed to reach its error tolerance."""


def _doubling(opening, more, h: float, last: int, name, size, atol: float = 0.0,
              rtol: float = 0.0, ends=None) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the value and last change of the doubling rule (module docstring).

    ``opening`` holds the sums of levels 0, 1, ... on every row, each of shape
    (rows, entries...), and ``more(level, live)`` gives a later level's sums on
    the rows ``live`` still going; level 0's value is h times its sum.  An
    ``IntegrationError`` names row i as ``name(i)`` and level L as ``size(L)``;
    a sum not finite at level 0 is seen at level 1.
    """
    total, pending = opening[0], list(opening[1:])
    value = h * total
    live = np.arange(len(total))
    values, changes = np.empty_like(value), np.empty_like(value)
    change = math.inf  # no change before level 1
    for level in range(1, last + 1):
        total = total + (pending.pop(0) if pending else more(level, live))
        h = 0.5 * h
        finer = h * total
        finite = np.isfinite(finer)  # tested first, so inf - inf never occurs
        if np.count_nonzero(finite) < finite.size:  # the first row and entry not finite
            raise IntegrationError(f"{name(live[np.nonzero(~finite)[0][0]])} is not finite at "
                                   f"{size(level)} (estimate {float(finer[~finite][0])!r})")
        change = np.abs(finer - value)
        if ends is not None:
            change += h * ends
        value = finer
        done = change <= (atol + rtol * np.abs(value) if rtol else atol)
        if done.ndim > 1:  # a row is done when each of its entries is
            done = done.reshape(live.size, -1).all(axis=1)
        n_done = np.count_nonzero(done)
        if n_done == len(values):  # every row at this level: nothing to gather
            return value, change
        if not n_done:
            continue
        values[live[done]], changes[live[done]] = value[done], change[done]
        if n_done == live.size:
            return values, changes
        # freeze the rows that met the test: ``more`` never sees them again
        going = ~done
        live, total, value, change = live[going], total[going], value[going], change[going]
        pending = [sums[going] for sums in pending]
        if ends is not None:
            ends = ends[going]
    # the first row still going, at its largest change
    value, change = np.ravel(value[0]), np.ravel(np.broadcast_to(change, total.shape)[0])
    worst = np.argmax(change)
    raise IntegrationError(f"{name(live[0])} did not converge within {size(last)} "
                           f"(estimate {float(value[worst])!r}, change {float(change[worst])!r})")


def _ts_rule():
    """The tanh-sinh rule's steps t apart from the interval, and the level ends.

    Level 0 is the starting rule, each later level the new steps of one
    halving.  Per level it holds t < 0, 2e/(1 + e), cosh(t), e and (1 + e)^2
    with e = exp(-pi*sinh|t|): a node is the nearer endpoint -+ half*2e/(1 + e),
    and its weight is half*2*pi*cosh(t)*e/(1 + e)^2.  The first entry joins
    levels 0 to ``_TS_OPEN`` - 1, each computed alone, at the ends returned.
    """
    n, h = round(_TS_T / _TS_H0), _TS_H0
    steps = [np.arange(-n, n + 1) * h]
    for _ in range(_TS_LEVELS):
        steps.append((np.arange(2 * n) - n + 0.5) * h)
        n, h = 2 * n, 0.5 * h
    rule = []
    for t in steps:
        e = np.exp(-math.pi * np.sinh(np.abs(t)))
        rule.append((t < 0, 2.0 * e / (1.0 + e), np.cosh(t), e, np.square(1.0 + e)))
    rule[:_TS_OPEN] = [tuple(map(np.concatenate, zip(*rule[:_TS_OPEN])))]
    for arrays in rule:
        for a in arrays:
            a.flags.writeable = False
    return tuple(rule), np.cumsum([0] + [t.size for t in steps[:_TS_OPEN]])


# the rule depends on the level alone, so every call shares it
_TS_RULE, _TS_CUTS = _ts_rule()


def _tanh_sinh(f, lo, hi, atol: float, rtol: float):
    """Integrals of ``f`` over the m intervals [lo, hi] by the doubling tanh-sinh rule.

    ``lo`` and ``hi`` are 1-D arrays of m ends.  ``f(x, live)`` takes the
    abscissae ``x`` of the intervals ``live`` (integer indices), one row
    each, and returns values of shape (len(live), entries..., nodes); the
    result has shape (m, entries...).  The intervals (the five sets of the
    mean, the density's three cells) are the rows of one ``_doubling`` run: one
    ``f`` call for levels 0 to ``_TS_OPEN`` - 1, then one per level on the
    intervals still going.  An ``IntegrationError`` names the interval.
    """
    lo_all, hi_all = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi_all - lo_all)[:, None]

    def terms(rule, live):  # f times dx/dt at one entry's steps; each node is the
        # nearer endpoint -+ its distance from it, so nodes near lo = 0 keep their digits
        negative, unit, cosh, e, square = rule
        dist = half[live] * unit
        values = f(np.where(negative, lo_all[live, None] + dist, hi_all[live, None] - dist),
                   live)
        weights = half[live] * 2.0 * math.pi * cosh * e / square
        return values * weights.reshape(weights.shape[:1] + (1,) * (values.ndim - 2)
                                        + weights.shape[1:])

    g = terms(_TS_RULE[0], np.arange(lo_all.size))  # levels 0 to _TS_OPEN - 1
    values, _ = _doubling(
        [g[..., a:b].sum(axis=-1) for a, b in zip(_TS_CUTS, _TS_CUTS[1:])],
        lambda level, live: terms(_TS_RULE[level - _TS_OPEN + 1], live).sum(axis=-1),
        _TS_H0, _TS_LEVELS,
        lambda i: f"quadrature on [{float(lo_all[i])!r}, {float(hi_all[i])!r}]",
        lambda level: f"{level} halvings of the step", atol=atol, rtol=rtol,
        ends=np.abs(g[..., 0]) + np.abs(g[..., _TS_CUTS[1] - 1]))
    return values


class PowerQuadratic(NamedTuple):
    """Coefficients of the round total as a quadratic in neighbor distance."""

    a: float        # W/m^2, coefficient of r^2; always > 0
    b_coeff: float  # W/m, b(theta) = b_coeff * cos(theta)
    c0: float       # W, value at r = 0; always > 0

    @classmethod
    def from_coefficients(cls, coeff: powermodel.PowerCoefficients, r1) -> "PowerQuadratic":
        """Expand 2*zeta*r^2 + eps_total*(eta1*r1^2 + eta2*r2^2) in r.

        ``r1`` may also be an array of distances, giving array coefficients.
        The root and CDF computations square the coefficients, so a
        coefficient whose square overflows, or an ``a`` or ``c0`` whose square
        is below the normal range, is a ``ParameterError``.
        """
        if not np.all(np.isfinite(r1) & (np.asarray(r1) > 0)):
            raise ParameterError("r1", f"must be finite and > 0, got {r1!r}")
        ee2 = coeff.eps_total * coeff.eta2
        quad = cls(a=2.0 * coeff.zeta + ee2, b_coeff=2.0 * ee2 * r1,
                   c0=coeff.eps_total * (coeff.eta1 + coeff.eta2) * r1 * r1)
        for name in ("a", "b_coeff", "c0"):
            value = getattr(quad, name)
            if not np.all(np.abs(value) < _SQRT_FLOAT_MAX):  # also rejects nan
                raise ParameterError(
                    "rate", f"the round total's coefficient {name} reaches "
                            f"{float(np.max(np.abs(value))):.3g}, whose square "
                            "overflows; lower the rate or the distances")
            # a and c0 are > 0: either whose square is not a normal float is refused
            if name != "b_coeff" and not np.all(value * value >= sys.float_info.min):
                raise ParameterError(
                    "rate", f"the round total's coefficient {name} is "
                            f"{float(np.min(value)):.3g}, whose square underflows; "
                            "raise the rate, the noise density or the distances")
        return quad

    def law(self, rho):
        """The one map p <-> y: (A, B, k), with p = c0 + A*y and F(p) = H(y; k).

        A = a/(pi*rho), B = b_coeff/sqrt(pi*rho) and k = b_coeff*sqrt(pi*rho)/a:
        the total is c0 + A*u + B*v = c0 + A*(u + k*v).  Arrays give arrays.
        """
        require_density(rho)
        pi_rho = math.pi * rho
        root = pi_rho ** 0.5  # np.sqrt's bits on an array, a Python float on a float
        return self.a / pi_rho, self.b_coeff / root, self.b_coeff / self.a * root


# --- the engine (substitution in the module docstring) ----------------------

def _cdf_integrand(v, s2, beta, cos_phi, sin_phi, upper):
    """The substituted CDF integrand at nodes phi in (0, pi/2], one row per point.

    ``v`` is V (Q2) or W (Q1), ``s2`` is sinh(v)^2 and ``beta`` is -|y|, each a
    column.  With u = v*cos(phi) the roots are sqrt(|y|)*exp(-+u), and
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
    np.expm1(g, out=g)                     # exp(-x_lo^2) - 1
    big *= beta
    np.expm1(big, out=big)                 # exp(-x_hi^2) - 1
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


# the CDF's opening nodes phi: the 8-interval grid (phi = 0 is the limit) and its
# midpoints, each computed alone; their cos and sin end to end, and the weights of each
_PHI_OPEN = (np.arange(1, 9) * (0.5 * math.pi / 8), (np.arange(8) + 0.5) * (0.5 * math.pi / 8))
_CDF_OPEN = tuple(np.concatenate([fn(phi) for phi in _PHI_OPEN]) for fn in (np.cos, np.sin)) + (
    np.array([[1.0] * 7 + [0.5], [1.0] * 8]),)


def _branch(y: np.ndarray, lift: np.ndarray, k: float,
            upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """Means of the CDF integrand over phi in [0, pi/2] at points ``y`` of one branch,
    and errors, opening on ``_CDF_OPEN``; an ``IntegrationError`` names the point's
    y and k.  The kernels are looked up at call time, so a test may swap them."""
    floored = (np.maximum(y, 0.25 * k * k / _S2_MAX) if upper  # the module docstring's floors
               else np.minimum(y, -np.maximum(0.5e-3 * _CDF_TOL, lift / _S2_MAX)))
    s2 = np.maximum(0.25 * k * k / floored if upper else lift / -floored, 1e-200)
    v = np.arcsinh(np.sqrt(s2))
    # every root mass exp(beta*exp(-+2u)) is 0 from |y| = 1e300 up (there
    # exp(2v) < 1e8); the cap keeps beta*exp(2u) finite at the top of the range
    beta = -np.minimum(np.abs(floored), 1e300)
    end = _cdf_limit(v, beta, upper)
    v, s2, beta = v[:, None], s2[:, None], beta[:, None]

    def node_sum(rows, cos_phi, sin_phi, weights):
        """Per row j of ``weights``, the kernel's j-th block of columns times it."""
        step = max(1, _CELLS // cos_phi.size)
        out, cols = np.empty((len(weights), rows.size)), weights.shape[1]
        for start in range(0, rows.size, step):
            sel = rows[start:start + step]
            g = _cdf_integrand(v[sel], s2[sel], beta[sel], cos_phi, sin_phi, upper)
            for j, w in enumerate(weights):
                out[j, start:start + step] = np.einsum("ij,j->i", g[:, j * cols:(j + 1) * cols], w)
        return out

    def midpoints(level, live):  # the 4 << level new nodes of 8 << level intervals
        n = 4 << level
        phi = (np.arange(n) + 0.5) * (0.5 * math.pi / n)
        return node_sum(live, np.cos(phi), np.sin(phi), np.ones((1, n)))[0]

    grid_sum, mid_sum = node_sum(np.arange(y.size), *_CDF_OPEN)
    return _doubling((0.5 * end + grid_sum, mid_sum), midpoints, 1.0 / 16,
                     ((_MAX_NODES - 1) // 8).bit_length(),  # first level of >= _MAX_NODES
                     lambda i: f"CDF at y = {float(y[i])!r} (k = {k!r})",
                     lambda level: f"{8 << level} intervals", atol=_CDF_TOL)


def _integrate(y: np.ndarray, lift: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """``_branch`` over chunks of the points ``y``, an array of any shape, 0
    where the height ``lift`` = y + k^2/4 above the support's floor is not > 0."""
    out, err = np.zeros(y.shape), np.zeros(y.shape)
    flat_y, flat_lift, flat_out, flat_err = y.ravel(), lift.ravel(), out.ravel(), err.ravel()
    for upper, mask in ((False, (flat_lift > 0.0) & (flat_y <= 0.0)), (True, flat_y > 0.0)):
        idx = np.flatnonzero(mask)
        for start in range(0, idx.size, _CHUNK):  # bounds the per-point temporaries
            sel = idx[start:start + _CHUNK]
            flat_out[sel], flat_err[sel] = _branch(flat_y[sel], flat_lift[sel], k, upper)
    return out, err


# Hankel's asymptotic series of I0 (Abramowitz & Stegun 9.7.1): the coefficients
# ((2j - 1)!!)^2/j! of 1/(8x)^j; the first term left out is 2.1e-20 at x = 700
_HANKEL = (1.0, 1.0, 4.5, 37.5, 459.375, 7441.875, 150077.8125)


def _i0e(x: np.ndarray) -> np.ndarray:
    """exp(-x)*I0(x) at x >= 0: ``np.i0`` times exp(-x) up to 700, where exp(x) is
    finite, and Hankel's series over sqrt(2*pi*x) above."""
    near = np.minimum(x, 700.0)
    out = np.i0(near) * np.exp(-near)
    far = x > 700.0
    if far.any():
        t = 0.125 / x[far]
        series = 0.0
        for c in reversed(_HANKEL):
            series = series * t + c
        out[far] = series / (math.sqrt(2.0 * math.pi) * np.sqrt(x[far]))  # 2*pi*x may overflow
    return out


def _rice(y: np.ndarray, lift: np.ndarray, k: float) -> np.ndarray:
    """The density of y at points ``y`` with heights ``lift`` = y + k^2/4 above the
    support's floor: exp(-d^2)*I0e(k*s), s = sqrt(lift) and d = s - k/2 taken as y/(s +
    k/2), which keeps its digits where s is near k/2.  It is 0 where the height is not
    > 0 (NaN included) but at y = 0 (1 there if k^2/4 underflows), and from y = 1e300
    up, where d > 1e146 for every k with 2*k^2 finite, so exp(-d^2) is 0 (d^2 may overflow)."""
    out = np.zeros(y.shape)
    inside = (lift > 0.0) & (y < 1e300) | (y == 0.0)
    s = np.sqrt(lift[inside])
    d = y[inside] / np.maximum(s + 0.5 * k, sys.float_info.min)  # 0/0 at y = k = 0
    out[inside] = np.exp(-d * d) * _i0e(k * s)
    return out


def _shape_in_range(k) -> bool:  # the root masses reach ~k^2; Python floats never warn
    return 2.0 * float(k) * float(k) < math.inf  # and False for inf and nan


def cdf_shape(quad: PowerQuadratic, rho: float) -> float:
    """The law's shape k (``PowerQuadratic.law``), or a ``ParameterError`` out of range."""
    k = quad.law(rho)[2]
    if not _shape_in_range(k):
        raise ParameterError("rho", f"{rho!r} handsets/m^2 give the law's shape k = {k:.3g}, "
                                    "too large for the CDF (2*k^2 overflows)")
    return k


def _y_points(y_values, k: float) -> tuple[np.ndarray, np.ndarray]:
    """``y_values`` as a float array, once k is known to be in range, and the
    heights y + k^2/4 above the support's floor.  A height is read only below
    y = 0 (H) or below y = 1e300 (the density), so y is capped at 1e300 in
    it, which keeps the sum finite at the top of the float range."""
    if not _shape_in_range(k):  # before any numpy operation
        raise ValueError(f"the law's shape k must be finite with 2*k^2 finite, got {k!r}")
    y = np.asarray(y_values, dtype=float)
    return y, np.minimum(y, 1e300) + 0.25 * k * k


def cdf_scale_free(y_values, k: float):
    """H(y; k), the CDF of the scale-free total y = u + k*v, each value to 1e-10.

    A 0-d input gives a float, an array an array of its shape; it is 0 at and
    below -k^2/4.  Each point doubles the trapezoid rule on [0, pi/2] from 8
    intervals until its change is at most ``_CDF_TOL`` (module docstring); past
    ``_MAX_NODES`` = 8192, or not finite, it is an ``IntegrationError`` naming
    y and k.  Each value depends on its point alone (element-wise kernels,
    per-row ``einsum`` sums, never BLAS), so its bits do not depend on the
    chunk size or the BLAS thread count.  A k not finite, or whose 2*k^2
    overflows, is a ``ValueError``.
    """
    values, _ = _integrate(*_y_points(y_values, k), k)
    return values if values.ndim else float(values)


def pdf_scale_free(y_values, k: float):
    """The density dH/dy, the Rice law of the module docstring in closed form
    (``_rice``); shapes and the refusal of k are as in ``cdf_scale_free``."""
    values = _rice(*_y_points(y_values, k), k)
    return values if values.ndim else float(values)


def expected_power(quad: PowerQuadratic, rho):
    """Mean round total over the PPP, c0 + A (``PowerQuadratic.law``).

    The mean of the area u is 1 and that of v = cos(theta)*sqrt(u) is 0, so
    the mean of y is 1.  Array coefficients and densities give the mean of
    each set, element-wise.
    """
    return quad.c0 + quad.law(rho)[0]


def expected_power_quadrature(quad: PowerQuadratic, rho):
    """Mean round total by nested 2-D quadrature; independent of the moments.

    The coefficients and ``rho`` may be arrays, one entry per set, giving an
    array of means (floats give a float).  The periodic bearing goes by the trapezoid
    rule on -pi/2 + 2*pi*j/8, j < 8, checked on the even j; a set doubles it, adding
    midpoints, while the two differ by over ``_MEAN_EPSREL`` relative, and past
    ``_MAX_BEARINGS`` is an ``IntegrationError``.  Each rule makes one inner tanh-sinh
    call on [0, r_max], a row per set still going; a set has the bits of a call on it alone.
    """
    require_density(rho)
    shape = np.broadcast(quad.a, quad.b_coeff, quad.c0, rho).shape
    a, b_coeff, c0, rho = (np.broadcast_to(np.asarray(x, dtype=float), shape).ravel()
                           for x in (quad.a, quad.b_coeff, quad.c0, rho))
    r_max = np.sqrt(40.0 / (math.pi * rho))  # PPP tail mass < 1e-16

    def inner(theta, sets):  # one row per set, one column per bearing
        b = b_coeff[sets, None] * np.cos(theta)

        def integrand(r, rows):  # (rows, bearings, nodes)
            s, r = sets[rows, None, None], r[:, None, :]
            return ((a[s] * r * r + b[rows, :, None] * r + c0[s])
                    * (rho[s] * r * np.exp(-math.pi * rho[s] * r * r)))

        return _tanh_sinh(integrand, np.zeros(sets.size), r_max[sets], 0.0, _MEAN_EPSREL)

    def bearings(level, sets):  # the 2 << level new bearings of 4 << level
        n = 2 << level
        theta = -0.5 * math.pi + (2.0 * math.pi / n) * (np.arange(n) + 0.5)
        return inner(theta, sets).sum(axis=1)

    first = inner(-0.5 * math.pi + (0.25 * math.pi) * np.arange(8), np.arange(a.size))
    means, _ = _doubling(  # one summing order for any set count
        (first[:, ::2].sum(axis=1), first[:, 1::2].sum(axis=1)), bearings, 2.0 * math.pi / 4,
        ((_MAX_BEARINGS - 1) // 4).bit_length(),  # the first level of >= _MAX_BEARINGS
        lambda i: f"mean of set {i} (rho = {float(rho[i])!r})",
        lambda level: f"{4 << level} bearings", rtol=_MEAN_EPSREL)
    return means.reshape(shape) if shape else float(means[0])


def energy_efficiency(expected: float, rate: float) -> float:
    """Delivered bits per joule: both messages (2R bits) per expected round total."""
    if not (math.isfinite(expected) and expected > 0):
        raise ValueError(f"expected power must be finite and > 0, got {expected!r}")
    return 2.0 * rate / expected


def _y_upper(k: float, tail: float) -> float:
    """u_t + k*sqrt(u_t) with u_t = -log(tail), the area pi*rho*r^2 the PPP
    neighbor exceeds with probability exactly ``tail``: at every bearing u +
    k*cos(theta)*sqrt(u) is at most that for u <= u_t, so H there is >= 1 - tail.
    It is that of the (1 - tail)-quantile when u_t dominates, and at most 1.12
    (tail 1e-6) or 1.09 (tail 1e-9) times it over the shapes of rho in [1e-7, 1]
    and r1 in [50 m, 100 km]."""
    u_t = -math.log(tail)
    return u_t + k * math.sqrt(u_t)
