#!/usr/bin/env python3
"""Outage-constrained transmit powers: cooperative pair vs solo uplinks.

Shows how the end-to-end outage target turns into per-link targets and
per-square-meter power coefficients, then compares the round totals of the
two schemes across base-station distances.  The cooperative scheme tolerates
a much larger per-link cellular outage, which is where its energy saving
comes from.
"""

import math

import numpy as np

from nncc import (
    Geometry,
    OutageTargets,
    SystemParams,
    conventional_coefficients,
    power_breakdown,
    power_coefficients,
    validate,
)

params = validate(SystemParams())  # 1e-3 outage target, 100 kb/s
targets = OutageTargets.for_target(params.p_out_target)

print(f"end-to-end outage target          {params.p_out_target:g}")
print(f"exchange success probability      {targets.eps_short:.6f}")
print(f"expected cellular slot multiplier {targets.eps_total:.6f}")
print(f"per-link target, cooperative      {targets.p_out_nc:.6f}")
print(f"per-link target, solo uplinks     {targets.p_out_c:.3e}")
print()

# one link budget per link: the exchange and each handset's uplink; the
# baseline is the same model without the exchange, one slot, at p_out_c
coeff = power_coefficients(params)
solo = conventional_coefficients(params)
print(f"exchange power coefficient  zeta   = {coeff.zeta:.4e} W/m^2")
print(f"cellular coefficient (coop) eta1   = {coeff.eta1:.4e} W/m^2")
print(f"cellular coefficient (solo) eta_c1 = {solo.eta1:.4e} W/m^2")
print(f"solo links need {solo.eta1 / coeff.eta1:.1f}x the cooperative per-m^2 power")
weak = power_coefficients(validate(SystemParams(g_u2_db=-3.0)))
print(f"a handset with 3 dB less antenna gain needs eta2 = {weak.eta2:.4e} W/m^2 "
      f"({weak.eta2 / weak.eta1:.3f}x)")
print()

r = 20.0
print(f"round totals at inter-user distance r = {r} m (bearing averaged):")
print(f"{'r1 (m)':>8} {'cooperative (W)':>16} {'solo (W)':>12} {'ratio':>7}")
for r1 in np.linspace(500.0, 3000.0, 6):
    geom = Geometry(r1=r1, r=r, theta=0.5 * math.pi)
    coop, conv = (power_breakdown(geom, c).total for c in (coeff, solo))
    print(f"{r1:8.0f} {coop:16.6e} {conv:12.4e} {conv / coop:7.1f}")
print()

geom = Geometry(r1=2000.0, r=r, theta=0.5 * math.pi)
b = power_breakdown(geom, coeff)
print("cooperative breakdown at r1 = 2000 m:")
print(f"  exchange (each way)   {b.p12:.4e} W")
print(f"  uplink from handset 1 {b.p1b:.4e} W")
print(f"  uplink from handset 2 {b.p2b:.4e} W")
print(f"  round total           {b.total:.4e} W "
      f"(uplinks weighted by {targets.eps_total:.4f} expected slots)")
