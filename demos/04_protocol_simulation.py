#!/usr/bin/env python3
"""The cooperation protocol's round law, exact and drawn.

At the closed-form powers, a round's outcome has an exact law over finitely
many classes of fades, which ``protocol_rates`` sums into each event's
probability: the exchange succeeds with probability (1 - p_out)^2, the
composite outage equals the end-to-end target, and the mean round energy
matches the expected-slot accounting.  The solo-uplink baseline, on the same
fades, meets the same target.  Also reports the per-message outage, which
is lower than the composite target because the relay gives each message two
chances, and shows that the target still holds when handset 2 has a weaker
antenna.  Last, one draw of n exchanges (``exchange_counts``) gives the
Monte Carlo round energy that the figures' datasets report.
"""

import math

from nncc import (Geometry, OutageTargets, SystemParams, conventional_coefficients,
                  power_breakdown, power_coefficients, protocol_rates, validate)
from nncc.montecarlo import RandomStream, exchange_counts, exchange_energy
from nncc.powermodel import Link, either_fails

params = validate(SystemParams())
geom = Geometry(r1=2000.0, r=20.0, theta=0.5 * math.pi)
targets = OutageTargets.for_target(params.p_out_target)
rates = protocol_rates(geom, params)

print(f"one protocol round at r = {geom.r} m, r1 = {geom.r1} m, enumerated")
print()
print(f"exchange success rate  {rates.exchanged:.9f}  (designed {targets.eps_short:.9f})")
print(f"composite outage rate  {rates.outage:.9f}  (designed {params.p_out_target:.9f})")
x = targets.p_out_nc
per_msg = targets.eps_short * x * x + either_fails(params.p_out_target) * x
print(f"message-1 outage rate  {rates.lost_d1:.9f}  "
      f"(predicted {per_msg:.9f}; below the composite target because the")
print("                                    relay copy rides a second "
      "independent fade)")
print()

powers = power_breakdown(geom, power_coefficients(params))
print(f"mean round energy      {rates.mean_energy:.9e} J  (designed {powers.total:.9e})")
print()

# the solo-uplink baseline runs on the same slot-2 fades as the cooperation
baseline = power_breakdown(geom, conventional_coefficients(params)).total
print(f"solo-uplink baseline composite outage {rates.conv_outage:.9f} "
      f"at {baseline:.4e} J per round")
print(f"cooperation delivers the same outage target on "
      f"{rates.mean_energy / baseline:.1%} of the baseline energy")
print()

# each handset's uplink power comes from its own link budget, so a handset
# with a weaker antenna pays more power and the target still holds
weak = validate(SystemParams(g_u2_db=-3.0))
print(f"handset 2 at -3 dB antenna gain: composite outage rate "
      f"{protocol_rates(geom, weak).outage:.9f} (designed {weak.p_out_target:.9f})")
print()

# a round's energy depends on its exchange alone: one draw of n exchanges
n = 2_000_000
t12 = Link.short(params).threshold(powers.p12, geom.r)
(exchanged,) = exchange_counts(n, [t12], params.sigma2_short, RandomStream(seed=99))
mean_e, stderr = exchange_energy(n, exchanged, powers)
print(f"{n} drawn exchanges: success rate {exchanged / n:.6f}; mean round energy "
      f"{mean_e:.6e} J (stderr {stderr:.1e}, z = {(mean_e - powers.total) / stderr:+.2f})")
