"""Experiment runner: figure datasets, parameter sweeps, validation reports.

Datasets are CSV with a fixed schema so any plotting tool can reproduce the
curves; this package never renders images.  Every emitted analytic curve
ships with a Monte Carlo column as its empirical check.  Output is
byte-stable: identical spec and seed produce identical files for any worker
count, so reports deliberately exclude wall-clock metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import distribution as dist
from . import montecarlo as mc
from . import powermodel
from .geometry import Geometry, partner_distance_to_bs
from .params import LinearParams, SystemParams, validate

CSV_HEADER = ("swept_var,value,e_nncc_analytic,e_conv_analytic,"
              "e_nncc_mc,e_nncc_mc_stderr,ee_nncc,ee_conv")

SWEEPABLE = ("r1", "r", "rho", "p_out_target", "rate")
_GEOMETRY_KEYS = ("r1", "r")
DEFAULT_R1 = 2000.0

# Built-in sweep presets for the four bundled figure datasets.
FIGURE_PRESETS = {
    "figure3": dict(var="r1", v_min=500.0, v_max=3000.0, count=26,
                    spacing="linear", fixed={"r": 20.0, "p_out_target": 1e-3,
                                             "rate": 1e5}),
    "figure5": dict(var="rho", v_min=1e-5, v_max=1e-3, count=25,
                    spacing="log", fixed={"r1": 2000.0, "rate": 1e7,
                                          "p_out_target": 1e-3}),
    "figure6": dict(var="p_out_target", v_min=1e-4, v_max=1e-1, count=25,
                    spacing="log", fixed={"r1": 150.0, "rate": 1e6}),
}
# figure 4 is the efficiency view of the figure 3 sweep
FIGURE_PRESETS["figure4"] = FIGURE_PRESETS["figure3"]


@dataclass
class ExperimentSpec:
    """What to run and where to put the result."""

    kind: str                      # figure3|figure4|figure5|figure6|sweep|validate
    out: str
    seed: int = 0
    n_trials: int = 200_000
    workers: int = 1
    var: str | None = None         # sweep only
    v_min: float | None = None
    v_max: float | None = None
    count: int | None = None
    spacing: str = "linear"
    overrides: dict = field(default_factory=dict)  # SystemParams fields + r1/r
    base: SystemParams = field(default_factory=SystemParams)

    def resolved(self) -> "ExperimentSpec":
        """Fill figure presets, then check everything needed is present."""
        spec = self
        if spec.workers < 1:
            raise ValueError(f"workers must be >= 1, got {spec.workers!r}")
        preset = FIGURE_PRESETS.get(spec.kind)
        if preset is not None:
            merged = dict(preset["fixed"])
            merged.update(spec.overrides)
            spec = replace(
                spec,
                var=preset["var"],
                v_min=spec.v_min if spec.v_min is not None else preset["v_min"],
                v_max=spec.v_max if spec.v_max is not None else preset["v_max"],
                count=spec.count if spec.count is not None else preset["count"],
                spacing=preset["spacing"],
                overrides=merged,
            )
        elif spec.kind == "sweep":
            if spec.var not in SWEEPABLE:
                raise ValueError(
                    f"unknown sweep variable {spec.var!r}; choose from {SWEEPABLE}")
            if spec.v_min is None or spec.v_max is None or spec.count is None:
                raise ValueError("sweep requires v_min, v_max and count")
        elif spec.kind != "validate":
            raise ValueError(f"unknown experiment kind {spec.kind!r}")

        if spec.kind != "validate":
            if not (spec.v_min < spec.v_max):
                raise ValueError(f"swept range needs min < max, "
                                 f"got [{spec.v_min!r}, {spec.v_max!r}]")
            if spec.count < 2:
                raise ValueError(f"count must be >= 2, got {spec.count!r}")
            if spec.spacing not in ("linear", "log"):
                raise ValueError(f"spacing must be linear or log, got {spec.spacing!r}")

        allowed = {f.name for f in fields(SystemParams)} | set(_GEOMETRY_KEYS)
        unknown = sorted(set(spec.overrides) - allowed)
        if unknown:
            raise ValueError(f"unknown override key {unknown[0]!r}")
        return spec


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _split_overrides(overrides: dict):
    geo = {k: overrides[k] for k in _GEOMETRY_KEYS if k in overrides}
    sys_over = {k: v for k, v in overrides.items() if k not in _GEOMETRY_KEYS}
    return geo, sys_over


def _grid(spec: ExperimentSpec) -> np.ndarray:
    if spec.spacing == "log":
        return np.geomspace(spec.v_min, spec.v_max, spec.count)
    return np.linspace(spec.v_min, spec.v_max, spec.count)


def _sweep_row(params: LinearParams, r1: float, r: float | None,
               n_trials: int, stream: mc.RandomStream, workers: int):
    """One dataset row: analytic energies, the Monte Carlo check, efficiencies.

    With an inter-user distance the energies are per-round totals at that
    placement, averaged over the bearing (the cosine term integrates to zero),
    and the Monte Carlo column re-measures the expected slot usage by running
    the fading-level protocol.  Without one the pair placement is random and
    both columns are PPP expectations.
    """
    if r is not None:
        geom = Geometry(r1=r1, r=r, theta=0.5 * math.pi)
        e_nncc = powermodel.nncc_power_breakdown(geom, params).total
        e_conv = powermodel.conventional_power(geom, params).total
        report = mc.estimate_outage(n_trials, geom, params, stream, workers=workers)
    else:
        quad = dist.PowerQuadratic.from_params(params, r1)
        e_nncc = dist.expected_power(quad, params.rho)
        e_conv = dist.expected_power_conventional(params, r1)
        report = mc.sample_power_distribution(n_trials, params.rho, r1, params,
                                              stream, workers=workers)
    return (e_nncc, e_conv, report.mean_energy, report.energy_stderr,
            dist.energy_efficiency(e_nncc, params.rate),
            dist.energy_efficiency(e_conv, params.rate))


def _run_sweep(spec: ExperimentSpec) -> str:
    spec = spec.resolved()
    geo, sys_over = _split_overrides(spec.overrides)
    base = replace(spec.base, **sys_over)
    values = _grid(spec)

    lines = [CSV_HEADER]
    for i, value in enumerate(values):
        r1 = float(geo.get("r1", DEFAULT_R1))
        r = geo.get("r")
        row_params = base
        if spec.var in _GEOMETRY_KEYS:
            if spec.var == "r1":
                r1 = float(value)
            else:
                r = float(value)
        else:
            row_params = replace(base, **{spec.var: float(value)})
        if r is not None:
            r = float(r)
        row = _sweep_row(validate(row_params), r1, r, spec.n_trials,
                         mc.RandomStream(spec.seed, stream_id=i), spec.workers)
        lines.append(",".join([spec.var, _fmt(float(value))] + [_fmt(v) for v in row]))

    with open(spec.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return spec.out


def run_figure(spec: ExperimentSpec) -> str:
    """Emit the dataset behind one of the four bundled figures."""
    if spec.kind not in FIGURE_PRESETS:
        raise ValueError(f"not a figure kind: {spec.kind!r}")
    return _run_sweep(spec)


def sweep(spec: ExperimentSpec) -> str:
    """Emit a dataset over an arbitrary axis with the same schema."""
    if spec.resolved().kind != "sweep":
        raise ValueError(f"not a sweep spec: {spec.kind!r}")
    return _run_sweep(spec)


# --- validation report ------------------------------------------------------

class _Report:
    def __init__(self):
        self.lines: list[str] = []
        self.failures: list[str] = []
        self.n_checks = 0

    def add(self, text: str) -> None:
        self.lines.append(text)

    def check(self, name: str, value: float, bound: float, detail: str = "") -> None:
        self.n_checks += 1
        ok = value <= bound
        if not ok:
            self.failures.append(name)
        tag = "PASS" if ok else "FAIL"
        extra = f" {detail}" if detail else ""
        self.add(f"  {tag} {name}: {_fmt(value)} (bound {_fmt(bound)}){extra}")

    def check_z(self, name: str, observed: float, target: float, stderr: float) -> None:
        if stderr > 0:
            z = (observed - target) / stderr
        else:  # every trial gave the same value
            z = 0.0 if observed == target else math.inf
        self.n_checks += 1
        ok = abs(z) <= 3.0
        if not ok:
            self.failures.append(name)
        tag = "PASS" if ok else "FAIL"
        self.add(f"  {tag} {name}: {_fmt(observed)} vs target {_fmt(target)} "
                 f"(z = {z:+.2f}, bound |z| <= 3)")

    def info(self, name: str, text: str) -> None:
        self.add(f"  INFO {name}: {text}")


def _closure_section(rep: _Report, params: LinearParams, seed: int,
                     coeff: powermodel.PowerCoefficients,
                     scaled: powermodel.PowerCoefficients) -> None:
    rep.add("[a] closed-form closure identities")
    targets = powermodel.OutageTargets.for_target(params.p_out_target)

    short = powermodel.Link.short(params)
    res = max(abs(short.outage(coeff.zeta * r * r, r) - params.p_out_target)
              for r in (1.0, 20.0, 100.0))
    rep.check("short-range power inversion residual", res, 1e-12)

    res = max(abs(powermodel.composite_outage_nncc(
        powermodel.per_link_outage_nncc(p), p) - p)
        for p in (1e-4, 1e-3, 1e-2, 0.1))
    rep.check("composite outage closure residual", res, 1e-12)

    p_c = targets.p_out_c
    res = abs(-(math.expm1(2.0 * math.log1p(-p_c))) - params.p_out_target)
    rep.check("conventional outage closure residual", res, 1e-12)

    # total vs quadratic identity on random placements; the quadratic is
    # built from the eta_scale-scaled coefficients (see validate_report).
    # eps*(eta1*r1^2 + eta2*r2^2) is split around the mean coefficient, so
    # with equal handset gains the difference term is exactly zero.
    rng = np.random.default_rng(seed)
    eps = targets.eps_total
    r1s = rng.uniform(100.0, 3000.0, 10_000)
    rs = rng.uniform(0.0, 300.0, 10_000)
    thetas = rng.uniform(-0.5 * math.pi, 1.5 * math.pi, 10_000)
    r2s = partner_distance_to_bs(r1s, rs, thetas)
    total = (2.0 * coeff.zeta * rs * rs
             + eps * (0.5 * (coeff.eta1 + coeff.eta2)) * (r1s * r1s + r2s * r2s)
             + eps * (0.5 * (coeff.eta2 - coeff.eta1)) * (r2s * r2s - r1s * r1s))
    quad = dist.PowerQuadratic.from_coefficients(scaled, eps, r1s)
    quad_form = quad.a * rs * rs + quad.b_coeff * np.cos(thetas) * rs + quad.c0
    res = float(np.max(np.abs(total - quad_form) / total))
    rep.check("total vs quadratic-form max relative residual", res, 1e-9,
              detail="(10000 random placements)")


def _distribution_sections(rep: _Report, params: LinearParams,
                           quad: dist.PowerQuadratic, r1: float,
                           n_trials: int, seed: int, workers: int) -> float:
    """Sections [b] and [c]; returns F(c0), the boundary term, for section [e]."""
    rho = params.rho
    rep.add(f"[b] power distribution vs Monte Carlo (rho = {_fmt(rho)}, "
            f"r1 = {_fmt(r1)})")
    sample = mc.sample_power_distribution(n_trials, rho, r1, params,
                                          mc.RandomStream(seed, stream_id=101),
                                          workers=workers)
    samples = sample.power_samples
    f_ref = dist.cdf_reference_batch(samples, quad, rho, workers=workers)
    ks_ref = mc.ks_distance(samples, f_ref)
    ks_bound = max(0.005, 1.5 * 1.36 / math.sqrt(n_trials))
    rep.check("KS distance, samples vs reference CDF", ks_ref, ks_bound,
              detail=f"({n_trials} samples)")
    # the branch form is the reference plus the boundary term above c0
    boundary_term = dist.cdf_reference_batch(quad.c0, quad, rho)
    ks_branch = mc.ks_distance(samples, f_ref + boundary_term * (samples > quad.c0))
    rep.info("KS distance, samples vs branch-form CDF", _fmt(ks_branch))
    # each CDF value depends on its own point alone, so this is F(sample median)
    rep.info("reference CDF at sample median - 0.5", _fmt(f_ref[n_trials // 2] - 0.5))

    rep.add("[c] expected power: closed form vs quadrature vs Monte Carlo")
    sets = [(1e-5, 3000.0), (1e-4, 2000.0), (1e-3, 1000.0),
            (3e-3, 500.0), (1e-2, 150.0)]
    n_exp = min(n_trials, 1_000_000)
    for i, (rho_i, r1_i) in enumerate(sets):
        params_i = params.replace_raw(rho=rho_i)
        quad_i = dist.PowerQuadratic.from_params(params_i, r1_i)
        closed = dist.expected_power(quad_i, rho_i)
        by_quad = dist.expected_power_quadrature(quad_i, rho_i)
        rel = abs(closed - by_quad) / closed
        rep.check(f"closed form vs quadrature, rho={_fmt(rho_i)} r1={_fmt(r1_i)}",
                  rel, 1e-9)
        samp = mc.sample_power_distribution(n_exp, rho_i, r1_i, params_i,
                                            mc.RandomStream(seed, stream_id=201 + i),
                                            workers=workers)
        rep.check_z(f"Monte Carlo mean, rho={_fmt(rho_i)} r1={_fmt(r1_i)}",
                    samp.mean_energy, closed, samp.energy_stderr)
    return boundary_term


def _branch_form_section(rep: _Report, quad: dist.PowerQuadratic,
                         rho: float, boundary_term: float) -> None:
    rep.add("[e] two-branch distribution expressions vs the reference")
    result_grid = np.geomspace(quad.support_min, dist.support_upper(quad, rho), 192)
    # the upper CDF branch is the reference plus this term
    rep.info("upper-branch additive boundary term", _fmt(boundary_term))
    p_hi = dist.support_upper(quad, rho, tail=1e-9)
    pdf_q1 = _pdf_integral(quad, rho, quad.support_min, quad.c0)
    pdf_q2 = _pdf_integral(quad, rho, quad.c0, p_hi)
    rep.info("integral of branch-form PDF over support - 1",
             f"{_fmt(pdf_q1 + pdf_q2 - 1.0)} (upper limit p = {_fmt(p_hi)})")
    eps_p = 1e-9 * quad.c0
    below, above = dist.pdf_branch_form(quad.c0 + np.array([-eps_p, eps_p]), quad, rho)
    rep.info("PDF one-sided limits at the branch junction",
             f"below = {_fmt(below)}, above = {_fmt(above)}, "
             f"rel gap = {_fmt(abs(above - below) / max(above, below))}")
    # central finite differences of the reference CDF against the density
    interior = result_grid[(result_grid > quad.c0 * (1.0 + 1e-3))][:50]
    name = "max |finite-difference CDF slope - PDF| (50 interior points)"
    if interior.size == 0:  # the support ends within 1e-3 of c0
        rep.info(name, "n/a (no grid point above c0 * (1 + 1e-3))")
        return
    h = (result_grid[-1] - quad.c0) * 1e-5
    slope = (dist.cdf_reference_batch(interior + h, quad, rho)
             - dist.cdf_reference_batch(interior - h, quad, rho)) / (2 * h)
    fd_gap = np.max(np.abs(slope - dist.pdf_branch_form(interior, quad, rho)))
    rep.info(name, _fmt(float(fd_gap)))


def _pdf_integral(quad, rho, lo, hi):
    return dist._quad(lambda p: dist.pdf_branch_form(p, quad, rho), lo, hi,
                      epsabs=1e-10, epsrel=1e-8, limit=400)


def _protocol_section(rep: _Report, params: LinearParams, r1: float, r: float,
                      n_trials: int, seed: int, workers: int) -> None:
    rep.add(f"[d] protocol statistics at fixed placement (r = {_fmt(r)}, "
            f"r1 = {_fmt(r1)})")
    geom = Geometry(r1=r1, r=r, theta=0.5 * math.pi)
    targets = powermodel.OutageTargets.for_target(params.p_out_target)

    rpt = mc.estimate_outage(n_trials, geom, params,
                             mc.RandomStream(seed, stream_id=301), workers=workers)
    rep.check_z("exchange success rate Pr(delta = 0)", rpt.delta0_rate,
                targets.eps_short, rpt.delta0_stderr)
    rep.check_z("composite outage rate", rpt.outage_composite,
                params.p_out_target, rpt.outage_composite_stderr)
    x = targets.p_out_nc
    per_msg = targets.eps_short * x * x + (1.0 - targets.eps_short) * x
    rep.info("per-message outage rate (reported, lower than composite)",
             f"{_fmt(rpt.outage_d1)} measured vs {_fmt(per_msg)} predicted")
    mean_pred = powermodel.nncc_power_breakdown(geom, params).total
    rep.check_z("mean round energy", rpt.mean_energy, mean_pred, rpt.energy_stderr)

    eta1 = powermodel.power_coefficients(params).eta1
    rate, se = mc.estimate_link_outage(n_trials, powermodel.Link.cellular(params, 1),
                                       eta1 * r1 * r1, r1,
                                       mc.RandomStream(seed, stream_id=302),
                                       workers=workers)
    rep.check_z("single cellular uplink outage", rate, targets.p_out_nc, se)

    conv = mc.estimate_outage(n_trials, geom, params,
                              mc.RandomStream(seed, stream_id=303),
                              scheme="conventional", workers=workers)
    rep.check_z("conventional composite outage", conv.outage_composite,
                params.p_out_target, conv.outage_composite_stderr)


def validate_report(spec: ExperimentSpec, eta_scale: float = 1.0) -> tuple[str, bool]:
    """Write the cross-validation report; returns (path, all bounded checks ok).

    ``eta_scale`` rescales both uplink coefficients of the quadratic that the
    quadratic-form check and sections [b] and [e] use; it exists so tests
    can verify that a corrupted coefficient is actually flagged.
    """
    spec = spec.resolved()
    if spec.n_trials < mc.MIN_TRIALS:
        raise ValueError(
            f"n_trials={spec.n_trials} cannot support the report's confidence "
            f"intervals; need at least {mc.MIN_TRIALS}")
    geo, sys_over = _split_overrides(spec.overrides)
    params = validate(replace(spec.base, **sys_over))
    r1 = float(geo.get("r1", DEFAULT_R1))
    r = float(geo.get("r", 20.0))

    rep = _Report()
    rep.add("cooperative uplink validation report")
    rep.add("===================================")
    rep.add("parameters:")
    for f in fields(SystemParams):
        rep.add(f"  {f.name} = {_fmt(getattr(params, f.name))}")
    rep.add(f"  r1 = {_fmt(r1)}")
    rep.add(f"  r = {_fmt(r)}")
    rep.add(f"  seed = {spec.seed}")
    rep.add(f"  n_trials = {spec.n_trials}")

    coeff = powermodel.power_coefficients(params)
    scaled = replace(coeff, eta1=coeff.eta1 * eta_scale, eta2=coeff.eta2 * eta_scale)
    eps_total = powermodel.OutageTargets.for_target(params.p_out_target).eps_total
    quad = dist.PowerQuadratic.from_coefficients(scaled, eps_total, r1)

    _closure_section(rep, params, spec.seed, coeff, scaled)
    boundary_term = _distribution_sections(rep, params, quad, r1, spec.n_trials,
                                           spec.seed, spec.workers)
    _protocol_section(rep, params, r1, r, spec.n_trials, spec.seed, spec.workers)
    _branch_form_section(rep, quad, params.rho, boundary_term)

    ok = not rep.failures
    rep.add(f"summary: {rep.n_checks - len(rep.failures)}/{rep.n_checks} "
            f"bounded checks passed")
    if not ok:
        rep.add("failed: " + ", ".join(rep.failures))

    with open(spec.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rep.lines) + "\n")
    return spec.out, ok
