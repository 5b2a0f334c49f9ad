#!/usr/bin/env python3
"""Distribution of the cooperative round total over random placements.

With handset locations forming a Poisson field, the round total becomes a
random variable through the neighbor distance and bearing.  This demo
evaluates its CDF, checks it against a Monte Carlo sample, and shows where
the two-branch split form, whose upper branch carries an additive boundary
term, deviates from it.
"""

import numpy as np

from nncc import (
    PowerQuadratic,
    SystemParams,
    cdf_scale_free,
    energy_efficiency,
    expected_power,
    pdf_scale_free,
    power_coefficients,
    validate,
)
from nncc.montecarlo import (
    RandomStream,
    draw_power_samples,
    ks_distance,
    sample_power_distribution,
)

params = validate(SystemParams(rate=1e7, rho=1e-4))
r1 = 2000.0
quad = PowerQuadratic.from_coefficients(power_coefficients(params), r1)
rho = params.rho
# the total is c0 + A*y, and y = u + k*v has the CDF H(y; k), 0 up to -k^2/4
big_a, _, k = quad.law(rho)
support_min = quad.c0 - big_a * 0.25 * k * k

print(f"quadratic coefficients: a = {quad.a:.4e} W/m^2, "
      f"b(theta) = {quad.b_coeff:.4e} cos(theta) W/m, c0 = {quad.c0:.4e} W")
print(f"support starts at {support_min:.6f} W "
      f"(dip below c0: {quad.c0 - support_min:.2e} W)")
print()

mean = expected_power(quad, rho)
print(f"expected round total  {mean:.6f} W")
print(f"energy efficiency     {energy_efficiency(mean, params.rate):.4e} bits/J")
print()

n = 200_000
# the summary and the samples come from the same stream, so the same draws
mc_mean, mc_stderr = sample_power_distribution(n, rho, quad, RandomStream(33))
print(f"Monte Carlo over {n} placements: mean {mc_mean:.6f} W "
      f"(stderr {mc_stderr:.2e})")
# the draw holds the scale-free totals y
y = np.sort(draw_power_samples(n, rho, quad, RandomStream(33)).y)
ks = ks_distance(y, lambda y: cdf_scale_free(y, k))
print(f"KS distance, empirical vs direct CDF: {ks:.5f}")
samples = quad.c0 + big_a * y
print()

print(f"{'p (W)':>10} {'CDF direct':>11} {'CDF split':>10} {'PDF':>10} "
      f"{'empirical':>10}")
# the split form is the direct CDF plus the boundary term F(c0) = H(0; k) above c0
boundary = cdf_scale_free(0.0, k)
grid = np.geomspace(support_min * 1.000001, samples[-1], 10)
grid_y = (grid - quad.c0) / big_a
ref = cdf_scale_free(grid_y, k)
split = ref + boundary * (grid > quad.c0)
dens = pdf_scale_free(grid_y, k) / big_a  # per watt
emp = np.searchsorted(samples, grid) / n
for row in zip(grid, ref, split, dens, emp):
    print("{:10.5f} {:11.6f} {:10.6f} {:10.4f} {:10.6f}".format(*row))
print()

print(f"above c0 the split form exceeds the direct CDF by its boundary term "
      f"{boundary:.6f}")
print("the split-form density, however, is the exact derivative of the "
      "direct CDF on both sides")
