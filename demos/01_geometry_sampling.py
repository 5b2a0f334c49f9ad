#!/usr/bin/env python3
"""Nearest-neighbor geometry under a Poisson field of handsets.

Walks through the placement model: the distance from a tagged handset to its
nearest neighbor follows a Rayleigh-type law set by the handset density, the
neighbor's bearing is uniform, and the neighbor-to-base-station distance
follows from the law of cosines.  Prints sampled moments against the closed
forms.
"""

import math

import numpy as np

from nncc import partner_distance_to_bs, sample_nn_geometries
from nncc.montecarlo import RandomStream

rho = 1e-4      # handsets per square meter
r1 = 800.0      # tagged handset to base station, m
n = 500_000

print(f"handset density rho = {rho} /m^2, tagged handset at r1 = {r1} m")
print()

# the draw is the unit-density area pi*rho*r^2 and the bearing, so the pair's
# own placement depends on the density alone; r1 enters only through the law
# of cosines for the neighbor's distance to the base station
rng = RandomStream(seed=2024).block(0)
area, theta = sample_nn_geometries(rng, n)
r = np.sqrt(area / (math.pi * rho))  # inverse CDF at density rho
r2 = partner_distance_to_bs(r1, r, theta)   # neighbor to base station

print("neighbor distance statistics over", n, "draws:")
print(f"  sample mean     {np.mean(r):10.3f} m")
print(f"  closed form     {0.5 / math.sqrt(rho):10.3f} m  (1 / (2 sqrt(rho)))")
print(f"  sample E[r^2]   {np.mean(r * r):10.1f} m^2")
print(f"  closed form     {1.0 / (math.pi * rho):10.1f} m^2  (1 / (pi rho))")
print()

# empirical CDF vs the closed form at a few distances
print("P(neighbor within x):")
for x in (10.0, 25.0, 50.0, 100.0):
    emp = np.mean(r <= x)
    closed = 1.0 - math.exp(-math.pi * rho * x * x)
    print(f"  x = {x:5.0f} m   empirical {emp:.4f}   closed form {closed:.4f}")
print()

# the neighbor-to-BS distance closes the triangle with r1 and r
print(f"neighbor-to-BS distance: mean {np.mean(r2):.3f} m, "
      f"E[r2^2] - r1^2 = {np.mean(r2 * r2) - r1 * r1:.1f} m^2 "
      f"(closed form 1 / (pi rho) = {1.0 / (math.pi * rho):.1f})")
print(f"triangle inequality violations: "
      f"{int(np.sum((r2 > r1 + r) | (r2 < np.abs(r1 - r))))}")
print()
print(f"bearing range: [{theta.min():+.4f}, {theta.max():+.4f}) "
      f"(expected [-pi/2, 3pi/2))")
