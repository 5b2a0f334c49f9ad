#!/usr/bin/env python3
"""Fading-level simulation of the cooperation protocol.

Runs the slotted protocol at the closed-form powers and checks that the
measured statistics land on their designed targets: the exchange succeeds
with probability (1 - p_out)^2, the composite outage rate equals the
end-to-end target, and the mean round energy matches the expected-slot
accounting.  The solo-uplink baseline, run on the same fades, meets the same
target.  Also reports the per-message delivery rate, which is stricter
than the composite target because the relay gives each message two chances,
and shows that the target still holds when handset 2 has a weaker antenna.
"""

import math

from nncc import (Geometry, OutageTargets, SystemParams, conventional_coefficients,
                  power_breakdown, power_coefficients, validate)
from nncc.montecarlo import RandomStream, estimate_outage

params = validate(SystemParams())
geom = Geometry(r1=2000.0, r=20.0, theta=0.5 * math.pi)
targets = OutageTargets.for_target(params.p_out_target)
n = 2_000_000

counts = estimate_outage(n, geom, params, RandomStream(seed=99))
exchange_rate = counts.exchanged / n

print(f"{n} protocol rounds at r = {geom.r} m, r1 = {geom.r1} m")
print()
print(f"exchange success rate  {exchange_rate:.6f}  "
      f"(designed {targets.eps_short:.6f}, "
      f"stderr {math.sqrt(exchange_rate * (1.0 - exchange_rate) / n):.1e})")
print(f"composite outage rate  {counts.outages / n:.6f}  "
      f"(designed {params.p_out_target:.6f})")
x = targets.p_out_nc
per_msg = targets.eps_short * x * x + (1.0 - targets.eps_short) * x
print(f"message-1 outage rate  {counts.lost_d1 / n:.6f}  "
      f"(predicted {per_msg:.6f}; below the composite target because the")
print("                                  relay copy rides a second "
      "independent fade)")
print()

powers = power_breakdown(geom, power_coefficients(params))
print(f"mean round energy      {counts.mean_energy:.6e} J  "
      f"(designed {powers.total:.6e})")
print()

# the solo-uplink baseline runs on the same slot-2 fades as the cooperation
baseline = power_breakdown(geom, conventional_coefficients(params)).total
print(f"solo-uplink baseline composite outage {counts.conv_outages / n:.6f} "
      f"at {baseline:.4e} J per round")
print(f"cooperation delivers the same outage target on "
      f"{counts.mean_energy / baseline:.1%} of the baseline energy")
print()

# each handset's uplink power comes from its own link budget, so a handset
# with a weaker antenna pays more power and the target still holds
weak = validate(SystemParams(g_u2_db=-3.0))
uneven = estimate_outage(n, geom, weak, RandomStream(seed=101))
print(f"handset 2 at -3 dB antenna gain: composite outage rate "
      f"{uneven.outages / n:.6f} (designed {weak.p_out_target:.6f})")
