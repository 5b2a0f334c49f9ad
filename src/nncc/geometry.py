"""Random placement of the cooperating pair relative to the base station.

Handset locations follow a homogeneous Poisson point process of density
``rho``, so the distance from a handset to its nearest neighbor has the
Rayleigh-type density ``2*pi*rho*r*exp(-pi*rho*r^2)`` and the neighbor's
bearing is uniform.  The tagged handset sits at a fixed distance ``r1`` from
the base station.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ParameterError


@dataclass(frozen=True)
class Geometry:
    """One placement of the pair: distances in meters, bearing in radians.

    The neighbor's distance to the BS follows from the other three, so it is
    derived (``partner_distance_to_bs``), never given.
    """

    r1: float      # tagged handset to BS
    r: float       # tagged handset to its nearest neighbor
    theta: float   # bearing of the neighbor, in [-pi/2, 3*pi/2)
    r2: float = field(init=False)  # neighbor to BS

    def __post_init__(self):
        object.__setattr__(self, "r2", partner_distance_to_bs(self.r1, self.r, self.theta))


def partner_distance_to_bs(r1, r, theta):
    """Distance from the neighbor to the BS via the law of cosines.

    Accepts scalars or arrays, broadcast together; scalars give a float.
    """
    r1, r = np.asarray(r1, dtype=float), np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r1) & (r1 > 0)):
        raise ParameterError("r1", f"must be finite and > 0, got {r1}")
    if not np.all(np.isfinite(r) & (r >= 0)):
        raise ParameterError("r", f"must be finite and >= 0, got {r}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        s = r * r + r1 * r1 + 2.0 * r1 * r * np.cos(theta)
    # never negative analytically; rounding can dip just below zero at r = r1
    out = np.sqrt(np.maximum(s, 0.0))
    if not np.all(np.isfinite(out)):  # the larger distance's square overflowed
        raise ParameterError("r1" if np.max(r1) > np.max(r) else "r",
                             f"the partner's distance to the BS overflows at "
                             f"r = {r}, r1 = {r1}")
    return out if out.ndim else float(out)


def require_density(rho) -> None:
    """Handset density must be finite and > 0 (handsets per square meter).

    An array of densities is checked element-wise.
    """
    if not np.all(np.isfinite(rho) & (np.asarray(rho) > 0)):
        raise ParameterError("rho", f"must be finite and > 0, got {rho!r}")


def sample_nn_geometries(rng: np.random.Generator, n: int):
    """Vectorized sampler: returns arrays (area, theta) of length n.

    ``area`` is the unit-density area pi*rho*r^2 = -log(1-u), one uniform u
    in [0,1) per draw, finite for every representable u.  It does not depend
    on rho, so one draw serves every density (common random numbers): the
    neighbor distance at density rho is r = sqrt(area/(pi*rho)), the inverse
    CDF, and the Monte Carlo block kernel never forms it, reading the area
    itself.  Bearings are uniform on [-pi/2, 3*pi/2).  Draw order (all areas
    first, then all theta) is part of the reproducibility contract for a
    given generator state.
    """
    # each step in place on one buffer; the same operations, in the same
    # order, as -log1p(-u) and -pi/2 + 2*pi*u
    area = rng.random(n)
    np.negative(area, out=area)
    np.log1p(area, out=area)
    np.negative(area, out=area)
    theta = rng.random(n)
    theta *= 2.0 * math.pi
    theta += -0.5 * math.pi
    return area, theta
