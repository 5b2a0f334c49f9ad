"""Named faults of the program, and a hand-run table of the checks that see them.

Each fault is a plausible bug of size ``delta`` (``delta = 0`` is the correct
program), installed by monkeypatch on the names the package looks up at call
time, so a test or the table can turn it on for one run:

- ``distance_scale``: every unit-density area pi*rho*r^2 from
  ``montecarlo.sample_nn_geometries`` is ``(1 + delta)**2`` times too large,
  so every neighbour distance is ``1 + delta`` times too long;
- ``bearing_skew``: the bearing is drawn from ``u**(1 + delta)`` in place of
  a uniform ``u``, so it is no longer uniform;
- ``slot3_uncharged``: a fraction ``delta`` of slot 3's expected cellular
  charge is dropped from the closed forms, ``eps_total = 1 + (1 -
  delta)*eps_short``; ``delta = 1`` is ``eps_total = 1``;
- ``relay_dropped``: each slot-3 copy that would reach the base station is
  lost with probability ``delta``, so its success probability is ``1 -
  delta`` times what it should be: on the classes of
  ``montecarlo._round_classes``, that share of every class where a copy
  succeeds moves to its twin class where the copy fails;
- ``threshold_scale``: every fading threshold from ``powermodel.Link.threshold``
  is ``1 + delta`` times too large, in the round law and in a fixed-placement
  dataset alike;
- ``baseline_eta_scale``: the baseline's uplink coefficients from
  ``powermodel.conventional_coefficients`` are ``1 + delta`` times too large,
  in its powers at a fixed placement and in its mean alike;
- ``law_scale``: the one map ``PowerQuadratic.law`` takes pi*rho as ``(1 +
  delta)*pi*rho``, so every reader of the map (the closed-form mean, the
  shape k of the CDF and of section [e]'s cells, section [b]'s draw and the
  Monte Carlo means) has the neighbour law of a density ``1 + delta`` times
  too high;
- ``density_scale``: the density of the round total, from the one closed form
  ``distribution._rice`` behind ``pdf_scale_free``, is ``1 + delta`` times
  too large, while the CDF is exact;
- ``shared_substitution``: the CDF engine's s2 = sinh(v)^2 of
  ``distribution._branch`` is ``1 + delta`` times too large, consistently in
  the kernel ``_cdf_integrand`` and its phi = 0 limit ``_cdf_limit`` (both
  take v = asinh(sqrt(s2))), so H is off by O(delta) (above 0 it is exactly
  H(y; k*sqrt(1 + delta))) while the density is exact.  Scaling s2 in the
  kernel alone is not a plausible fault: the rule stops converging and
  raises ``IntegrationError``;
- ``one_direction``: the round law's exchange, the minimum of the two short-range
  fades of mean sigma2_short/2, has the mean ``(1 + delta)*sigma2_short/2``;
  ``delta = 1`` is the one direction ``_meets(t12, sigma2_short)``;
- ``nc_target_swapped``: the cooperative per-cellular-link target
  ``OutageTargets.p_out_nc`` moves a fraction ``delta`` of the way to the
  baseline's ``p_out_c``, for every reader of the targets; ``delta = 1`` reads
  ``p_out_c`` in its place;
- ``coeff_b_scale``: the bearing coefficient ``b_coeff`` from
  ``PowerQuadratic.from_coefficients`` is ``1 - delta`` times what it should
  be.  Section [b]'s draw and CDF, [c]'s means and [e]'s cells all read the
  faulty quadratic on both sides, so only [a]'s "total vs quadratic form"
  identity, against the totals of the link powers, can see it;
- ``area_exponent``: the block kernel ``montecarlo._power_block`` forms the area
  u = pi*rho*r^2 as ``r**(2 - delta)`` from the distance r at pi*rho = 1 (its
  in-place ``r *= r``); ``delta = 1`` is ``r`` in place of ``r*r``.  Section
  [c]'s area moment m_A is the sum of r*r, taken before that line, so only
  section [b]'s KS statistic reads the fault.

pytest does not collect this file.  From the repository root, the table of
which ``validate`` checks fire for each fault and size:

    PYTHONPATH=src python3 tests/mutants.py --seeds 0-4 --trials 1000000

``--faults coeff_b_scale,law_scale`` runs only the rows of the named faults.
A fault is detected at a size when ``validate`` fails on at least 4 of the
seeds.  The last line of standard output is one JSON object with the table.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest

from nncc import distribution
from nncc import montecarlo as mc
from nncc import powermodel
from nncc.distribution import PowerQuadratic
from nncc.experiments import ExperimentSpec, validate_report


def distance_scale(monkeypatch, delta: float) -> None:
    exact = mc.sample_nn_geometries

    def scaled(rng, n):
        area, theta = exact(rng, n)
        area *= (1.0 + delta) ** 2
        return area, theta

    monkeypatch.setattr(mc, "sample_nn_geometries", scaled)


def bearing_skew(monkeypatch, delta: float) -> None:
    exact = mc.sample_nn_geometries

    def skewed(rng, n):
        area, theta = exact(rng, n)
        theta += 0.5 * math.pi  # back to u in [0, 1), then theta from u**(1 + delta)
        theta /= 2.0 * math.pi
        theta **= 1.0 + delta
        theta *= 2.0 * math.pi
        theta -= 0.5 * math.pi
        return area, theta

    monkeypatch.setattr(mc, "sample_nn_geometries", skewed)


def slot3_uncharged(monkeypatch, delta: float) -> None:
    exact = powermodel.OutageTargets.for_target.__func__

    def for_target(cls, p_out):
        targets = exact(cls, p_out)
        return targets._replace(eps_total=1.0 + (1.0 - delta) * targets.eps_short)

    monkeypatch.setattr(powermodel.OutageTargets, "for_target", classmethod(for_target))


def relay_dropped(monkeypatch, delta: float) -> None:
    exact = mc._round_classes

    def dropping(geom, params):
        exchange, events, probs = exact(geom, params)
        # the classes given the exchange, each a tuple of its event values
        keys = list(zip(*(column[:probs.size] for column in events)))
        for relay in (3, 4):  # relay1, then relay2: the copies are lost independently
            moved = probs.copy()
            for i, key in enumerate(keys):
                if key[relay]:
                    twin = keys.index(key[:relay] + (False,) + key[relay + 1:])
                    moved[i] -= delta * probs[i]
                    moved[twin] += delta * probs[i]
            probs = moved
        return exchange, events, probs

    monkeypatch.setattr(mc, "_round_classes", dropping)


def threshold_scale(monkeypatch, delta: float) -> None:
    exact = powermodel.Link.threshold

    def scaled(link, p_tx, d):
        return (1.0 + delta) * exact(link, p_tx, d)

    monkeypatch.setattr(powermodel.Link, "threshold", scaled)


def baseline_eta_scale(monkeypatch, delta: float) -> None:
    exact = powermodel.conventional_coefficients

    def scaled(params):
        coeff = exact(params)
        return coeff._replace(eta1=(1.0 + delta) * coeff.eta1,
                              eta2=(1.0 + delta) * coeff.eta2)

    monkeypatch.setattr(powermodel, "conventional_coefficients", scaled)


def law_scale(monkeypatch, delta: float) -> None:
    exact = PowerQuadratic.law

    def scaled(quad, rho):
        return exact(quad, (1.0 + delta) * rho)

    monkeypatch.setattr(PowerQuadratic, "law", scaled)


def density_scale(monkeypatch, delta: float) -> None:
    exact = distribution._rice

    def scaled(y, lift, k):
        return (1.0 + delta) * exact(y, lift, k)

    monkeypatch.setattr(distribution, "_rice", scaled)


def shared_substitution(monkeypatch, delta: float) -> None:
    kernel, limit = distribution._cdf_integrand, distribution._cdf_limit

    def scaled_kernel(v, s2, beta, cos_phi, sin_phi, upper):
        s2 = s2 * (1.0 + delta)
        return kernel(np.arcsinh(np.sqrt(s2)), s2, beta, cos_phi, sin_phi, upper)

    def scaled_limit(v, beta, upper):
        return limit(np.arcsinh(np.sinh(v) * math.sqrt(1.0 + delta)), beta, upper)

    monkeypatch.setattr(distribution, "_cdf_integrand", scaled_kernel)
    monkeypatch.setattr(distribution, "_cdf_limit", scaled_limit)


def one_direction(monkeypatch, delta: float) -> None:
    exact = mc._round_classes

    def one_way(geom, params):
        _, events, probs = exact(geom, params)
        coop = powermodel.power_breakdown(geom, powermodel.power_coefficients(params))
        t12 = mc._thresholds(geom, coop, params)[0]
        return mc._meets(t12, 0.5 * (1.0 + delta) * params.sigma2_short), events, probs

    monkeypatch.setattr(mc, "_round_classes", one_way)


def nc_target_swapped(monkeypatch, delta: float) -> None:
    exact = powermodel.OutageTargets.for_target.__func__

    def for_target(cls, p_out):
        targets = exact(cls, p_out)
        return targets._replace(
            p_out_nc=targets.p_out_nc + delta * (targets.p_out_c - targets.p_out_nc))

    monkeypatch.setattr(powermodel.OutageTargets, "for_target", classmethod(for_target))


def coeff_b_scale(monkeypatch, delta: float) -> None:
    exact = PowerQuadratic.from_coefficients.__func__

    def scaled(cls, coeff, r1):
        quad = exact(cls, coeff, r1)
        return quad._replace(b_coeff=(1.0 - delta) * quad.b_coeff)

    monkeypatch.setattr(PowerQuadratic, "from_coefficients", classmethod(scaled))


def area_exponent(monkeypatch, delta: float) -> None:
    def faulty(rng, size, out=None, k=None):  # the kernel's expressions, u from r**(2 - delta)
        area, theta = mc.sample_nn_geometries(rng, size)
        r = np.sqrt(area)
        cos = 2.0 / (1.0 + np.tan(0.5 * theta) ** 2) - 1.0
        sums = (np.einsum("i,i->", r, r), np.einsum("i,i->", cos, r))
        u, v = r ** (2.0 - delta), cos * r
        if out is None:
            return sums + (np.einsum("i,i->", u, u), np.einsum("i,i->", u, v),
                           np.einsum("i,i->", v, v))
        np.add(u, v * k, out=out)
        return sums

    monkeypatch.setattr(mc, "_power_block", faulty)


# each fault with the sizes the table tries, smallest first; "none" is the
# correct program, whose failures are false alarms
FAULTS = {
    "none": (lambda monkeypatch, delta: None, (0.0,)),
    "distance_scale": (distance_scale, (0.001, 0.002, 0.003, 0.005, 0.01)),
    "bearing_skew": (bearing_skew, (0.005, 0.01, 0.02, 0.03)),
    "slot3_uncharged": (slot3_uncharged, (1e-9, 1e-6, 1e-4, 1e-2, 1.0)),
    "relay_dropped": (relay_dropped, (1e-9, 0.001, 0.003, 0.01, 0.03, 0.1)),
    "threshold_scale": (threshold_scale, (1e-9, 0.01, 0.03, 0.1, 0.3)),
    "baseline_eta_scale": (baseline_eta_scale, (1e-9, 0.01, 0.03, 0.1, 0.3)),
    "law_scale": (law_scale, (1e-9, 1e-8, 1e-6, 1e-3, 0.05)),
    "density_scale": (density_scale, (1e-10, 3e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-3)),
    "shared_substitution": (shared_substitution, (1e-8, 1e-7, 1e-6, 1e-4, 1e-2)),
    "one_direction": (one_direction, (1e-9, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0)),
    "nc_target_swapped": (nc_target_swapped, (1e-9, 0.01, 0.03, 0.1, 0.3, 1.0)),
    "coeff_b_scale": (coeff_b_scale, (1e-9, 1e-8, 2e-8, 1e-7, 1e-6)),
    "area_exponent": (area_exponent, (0.003, 0.01, 0.02, 0.03, 0.04, 0.05, 0.1, 0.3, 1.0)),
}


def failed_checks(install, delta: float, seed: int, trials: int, workers: int,
                  out: str) -> list[str]:
    """The names of the checks that fail in one in-process ``validate`` run."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        install(monkeypatch, delta)
        _, checks = validate_report(ExperimentSpec(kind="validate", out=out, seed=seed,
                                                   n_trials=trials, workers=workers))
    return [c.name for c in checks if not c.passed]


def table(seeds: range, trials: int, workers: int, faults) -> dict:
    """Per fault of ``faults`` and size: the runs that failed and how often each
    check fired."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.txt")
        for name in faults:
            install, deltas = FAULTS[name]
            for delta in deltas:
                fired = collections.Counter()
                failed = 0
                for seed in seeds:
                    names = failed_checks(install, delta, seed, trials, workers, out)
                    failed += bool(names)
                    fired.update(names)
                result[f"{name} {delta:g}"] = {
                    "failed_runs": failed, "detected": failed >= 4,
                    "checks": dict(sorted(fired.items()))}
    return result


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _fault_names(text: str) -> tuple[str, ...]:
    names = tuple(text.split(","))
    unknown = [name for name in names if name not in FAULTS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown fault {unknown[0]!r}; choose from {', '.join(FAULTS)}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-4"),
                        help="inclusive seed range, e.g. 0-4")
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--faults", type=_fault_names, default=tuple(FAULTS),
                        help="comma-separated fault names (default: every fault)")
    args = parser.parse_args(argv)
    result = table(args.seeds, args.trials, args.workers, args.faults)
    for row, entry in result.items():
        checks = "; ".join(f"{n}x {c}" for c, n in entry["checks"].items())
        print(f"{row:24s} {entry['failed_runs']}/{len(args.seeds)}  {checks}",
              file=sys.stderr)
    print(json.dumps({"seeds": f"{args.seeds.start}-{args.seeds.stop - 1}",
                      "trials": args.trials, "table": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
