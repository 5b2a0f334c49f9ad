"""Acceptance gate: every criterion at its stated tolerance.

Each test covers one numbered criterion and prints one PASS line on success
(run with ``pytest -v`` to get one line per criterion from the runner itself,
or ``-s`` to see the printed values).
"""

import filecmp
import math

import numpy as np

from cdf_oracle import branch_form_cdf
from model_helpers import binomial_z, cooperative_quadratic, rounds_drawn_directly
from nncc import (
    Geometry,
    Link,
    OutageTargets,
    SystemParams,
    cdf_scale_free,
    expected_power,
    expected_power_quadrature,
    pdf_scale_free,
    per_link_outage_conventional,
    per_link_outage_nncc,
    power_breakdown,
    power_coefficients,
    validate,
)
from nncc.distribution import _y_upper
from nncc.experiments import ExperimentSpec, sweep, validate_report
from nncc.montecarlo import RandomStream, draw_power_samples, ks_distance, \
    protocol_rates, sample_power_distribution
from nncc.powermodel import either_fails


def _report(number, message):
    print(f"criterion {number}: PASS - {message}")


def _bisect_per_link(p_out, tol=1e-14):
    eps = (1.0 - p_out) ** 2
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        val = eps * mid * mid + (1.0 - eps) * (2.0 * mid - mid * mid)
        lo, hi = (mid, hi) if val < p_out else (lo, mid)
    return 0.5 * (lo + hi)


def test_criterion_01_inversion_closure():
    worst = 0.0
    for p_out in (1e-4, 1e-3, 1e-2):
        params = validate(SystemParams(p_out_target=p_out))
        short = Link.short(params)
        zeta = short.coeff(p_out)
        for r in (1.0, 20.0, 100.0):
            worst = max(worst, abs(short.outage(zeta * r * r, r) - p_out))
    assert worst < 1e-12
    _report(1, f"max inversion residual {worst:.3e} < 1e-12")


def test_criterion_02_per_link_target_vs_bisection():
    grid = np.linspace(0.002, 0.2, 100)
    worst = max(abs(per_link_outage_nncc(p) - _bisect_per_link(p)) for p in grid)
    assert worst < 1e-10
    at_target = per_link_outage_nncc(1e-3)
    assert abs(at_target - 0.029743) < 1e-6
    _report(2, f"max |closed form - bisection| {worst:.3e} < 1e-10; "
               f"value at 1e-3 = {at_target:.9f}")


def test_criterion_03_conventional_target_and_simulation():
    value = per_link_outage_conventional(1e-3)
    assert abs(value - 5.00125e-4) < 1e-9
    params = validate(SystemParams())
    geom = Geometry(r1=2000.0, r=20.0, theta=0.5 * math.pi)
    exact = protocol_rates(geom, params).conv_outage
    assert abs(exact - 1e-3) <= 1e-12 * 1e-3
    n = 2_000_000
    conv = int(rounds_drawn_directly(n, geom, params, RandomStream(1003))["conv"].sum())
    z = binomial_z(conv, n, 1e-3)
    assert abs(z) <= 3.0
    _report(3, f"per-link target {value:.9e}; enumerated composite {exact:.15e}; "
               f"simulated {conv / n:.6e} (z = {z:+.2f}) at {n} rounds")


def test_criterion_04_total_equals_quadratic_form():
    params = validate(SystemParams())
    coeff = power_coefficients(params)
    eps_total = OutageTargets.for_target(params.p_out_target).eps_total
    ee2 = eps_total * coeff.eta2
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(10_000):
        r1 = rng.uniform(100.0, 3000.0)
        r = rng.uniform(0.0, 400.0)
        theta = rng.uniform(-0.5 * math.pi, 1.5 * math.pi)
        geom = Geometry(r1=r1, r=r, theta=theta)
        total = power_breakdown(geom, power_coefficients(params)).total
        quadratic = ((2.0 * coeff.zeta + ee2) * r * r
                     + 2.0 * ee2 * r1 * math.cos(theta) * r
                     + eps_total * (coeff.eta1 + coeff.eta2) * r1 * r1)
        worst = max(worst, abs(total - quadratic) / total)
    assert worst < 1e-9
    _report(4, f"max relative residual {worst:.3e} < 1e-9 on 10000 placements")


def test_criterion_05_protocol_statistics():
    params = validate(SystemParams())
    geom = Geometry(r1=2000.0, r=20.0, theta=0.5 * math.pi)
    t = OutageTargets.for_target(params.p_out_target)
    x = t.p_out_nc
    per_msg_pred = t.eps_short * x * x + either_fails(params.p_out_target) * x
    rates = protocol_rates(geom, params)
    for exact, target in ((rates.exchanged, t.eps_short), (rates.outage, params.p_out_target),
                          (rates.lost_d1, per_msg_pred), (rates.lost_d2, per_msg_pred)):
        assert abs(exact - target) <= 1e-12 * target
    n = 2_000_000
    rounds = rounds_drawn_directly(n, geom, params, RandomStream(1005))
    exchanged, outages = int(rounds["delta0"].sum()), int(rounds["composite"].sum())
    lost_d1 = int(n - rounds["d1"].sum())
    z_delta = binomial_z(exchanged, n, t.eps_short)
    z_comp = binomial_z(outages, n, params.p_out_target)
    assert abs(z_delta) <= 3.0
    assert abs(z_comp) <= 3.0
    _report(5, f"exact rates within 1e-12 of their targets; simulated over {n} rounds: "
               f"Pr(delta=0) {exchanged / n:.6f} (z = {z_delta:+.2f}); "
               f"composite {outages / n:.6e} (z = {z_comp:+.2f}); "
               f"per-message {lost_d1 / n:.6e} measured vs "
               f"{per_msg_pred:.6e} predicted (gap is semantic, not hidden)")


def test_criterion_06_distribution_ground_truth():
    params = validate(SystemParams(rate=1e7, rho=1e-4))
    quad = cooperative_quadratic(params, 2000.0)
    n = 1_000_000
    # the scale-free totals y and their CDF H(y; k), as validate's section [b]
    samples = np.sort(draw_power_samples(n, params.rho, quad, RandomStream(1006)).y)
    k = quad.law(params.rho)[2]
    ks = ks_distance(samples, lambda y: cdf_scale_free(y, k))
    assert ks < 0.005
    _report(6, f"KS distance {ks:.5f} < 0.005 at {n} samples")


def test_criterion_07_expectation_triple_agreement():
    base = validate(SystemParams(rate=1e7))
    sets = [(1e-5, 3000.0), (1e-4, 2000.0), (1e-3, 1000.0),
            (3e-3, 500.0), (1e-2, 150.0)]
    lines = []
    for i, (rho, r1) in enumerate(sets):
        params = validate(base._replace(rho=rho))
        quad = cooperative_quadratic(params, r1)
        closed = expected_power(quad, rho)
        by_quad = expected_power_quadrature(quad, rho)
        rel = abs(closed - by_quad) / closed
        assert rel < 1e-9
        mean, stderr = sample_power_distribution(1_000_000, rho, quad,
                                                 RandomStream(1007, i))
        z = (mean - closed) / stderr
        assert abs(z) <= 3.0
        lines.append(f"rho={rho:g}: rel {rel:.2e}, z {z:+.2f}")
    _report(7, "; ".join(lines))


def test_criterion_08_branch_form_report(tmp_path):
    params = validate(SystemParams(rate=1e7, rho=1e-4))
    k = cooperative_quadratic(params, 2000.0).law(params.rho)[2]
    floor, hi = -0.25 * k * k, _y_upper(k, 1e-6)
    grid = np.linspace(floor, hi, 256)
    cdf_branch = np.array([branch_form_cdf(y, k) for y in grid])
    pdf_branch = np.array([pdf_scale_free(y, k) for y in grid])
    cdf_ref = cdf_scale_free(grid, k)
    assert np.all(np.isfinite(cdf_branch))
    assert np.all(np.isfinite(pdf_branch))
    max_gap = float(np.max(np.abs(cdf_branch - cdf_ref)))

    from scipy import integrate
    q1, _ = integrate.quad(lambda y: pdf_scale_free(y, k), floor, 0.0, limit=300)
    q2, _ = integrate.quad(lambda y: pdf_scale_free(y, k), 0.0, hi, limit=300)
    pdf_defect = q1 + q2 - 1.0

    out = str(tmp_path / "report.txt")
    validate_report(ExperimentSpec(kind="validate", out=out, seed=7, n_trials=20_000))
    text = open(out, encoding="utf-8").read()
    assert "[e]" in text
    assert "upper-branch additive boundary term" in text
    assert "integral of branch-form PDF over support - 1" in text
    _report(8, f"branch-form evaluated on 256-point grid; max CDF gap "
               f"{max_gap:.6f} (boundary term, no bound imposed); "
               f"PDF integral defect {pdf_defect:.2e}; report written")


def test_criterion_09_figure_shapes(tmp_path):
    trials = 20_000

    def rows(kind):
        path = str(tmp_path / f"{kind}.csv")
        sweep(ExperimentSpec(kind=kind, out=path, seed=1009, n_trials=trials))
        out = []
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            for line in fh:
                cells = line.strip().split(",")
                out.append([cells[0]] + [float(c) for c in cells[1:]])
        return out

    fig3 = rows("figure3")
    assert all(500.0 <= row[1] <= 3000.0 for row in fig3)
    assert all(row[2] < row[3] for row in fig3)
    fig4 = rows("figure4")
    assert all(row[6] > row[7] for row in fig4)
    fig5 = rows("figure5")
    e5 = [row[2] for row in fig5]
    assert all(a > b for a, b in zip(e5, e5[1:]))
    fig6 = rows("figure6")
    e6 = [row[2] for row in fig6]
    assert all(a > b for a, b in zip(e6, e6[1:]))
    _report(9, "figure3 cooperative < baseline at all 26 points; figure4 "
               "efficiency ordering reversed; figure5 and figure6 strictly "
               "decreasing")


def test_criterion_10_reproducibility(tmp_path):
    p1, p4 = str(tmp_path / "w1.txt"), str(tmp_path / "w4.txt")
    _, checks1 = validate_report(ExperimentSpec(kind="validate", out=p1, seed=77,
                                                n_trials=100_000, workers=1))
    _, checks4 = validate_report(ExperimentSpec(kind="validate", out=p4, seed=77,
                                                n_trials=100_000, workers=4))
    assert all(c.passed for c in checks1) and checks4 == checks1
    assert filecmp.cmp(p1, p4, shallow=False)
    _report(10, "validate reports byte-identical for 1 vs 4 workers")
