"""Experiment runner: figure datasets, parameter sweeps, validation reports.

Datasets are CSV with a fixed schema so any plotting tool can reproduce the
curves; this package never renders images.  Every emitted analytic curve
ships with a Monte Carlo column as its empirical check.  Output is
byte-stable: identical spec and seed produce identical files for any worker
count, so reports deliberately exclude wall-clock metadata.  A validation
report also returns its bounded checks as ``Check`` records.  Its sections
run in order on the calling thread; only section [b]'s placement draw and its
sort use the workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import distribution as dist
from . import montecarlo as mc
from . import powermodel
from .geometry import Geometry, partner_distance_to_bs
from .params import ParameterError, SystemParams, validate

CSV_HEADER = ("swept_var,value,e_nncc_analytic,e_conv_analytic,"
              "e_nncc_mc,e_nncc_mc_stderr,ee_nncc,ee_conv")

SWEEPABLE = ("r1", "r", "rho", "p_out_target", "rate")
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
    spacing: str | None = None     # sweep only; None = linear
    overrides: dict = field(default_factory=dict)  # SystemParams fields + r1/r
    config: dict = field(default_factory=dict)     # the SystemParams fields a file set

    def resolved(self) -> "ExperimentSpec":
        """Fill figure presets, then check every spec-level input up front."""
        spec = self
        if spec.workers < 1:
            raise ValueError(f"workers must be >= 1, got {spec.workers!r}")
        if spec.seed < 0:
            raise ParameterError("seed", f"must be >= 0, got {spec.seed!r}")
        if spec.n_trials < mc.MIN_TRIALS:
            raise ValueError(
                f"n_trials={spec.n_trials} cannot support the confidence "
                f"intervals; need at least {mc.MIN_TRIALS}")
        preset = FIGURE_PRESETS.get(spec.kind)
        if preset is not None:
            # a figure is its preset's sweep: a different axis is another dataset
            for key in ("var", "spacing"):
                if getattr(spec, key) not in (None, preset[key]):
                    raise ValueError(f"{spec.kind} sweeps {preset['var']} with "
                                     f"{preset['spacing']} spacing; got {key}="
                                     f"{getattr(spec, key)!r}")
            spec = replace(
                spec,
                var=preset["var"],
                v_min=spec.v_min if spec.v_min is not None else preset["v_min"],
                v_max=spec.v_max if spec.v_max is not None else preset["v_max"],
                count=spec.count if spec.count is not None else preset["count"],
                spacing=preset["spacing"],
                overrides={**preset["fixed"], **spec.overrides},
            )
        elif spec.kind == "sweep":
            if spec.var not in SWEEPABLE:
                raise ValueError(
                    f"unknown sweep variable {spec.var!r}; choose from {SWEEPABLE}")
            if spec.v_min is None or spec.v_max is None or spec.count is None:
                raise ValueError("sweep requires v_min, v_max and count")
            if spec.spacing is None:
                spec = replace(spec, spacing="linear")
        elif spec.kind != "validate":
            raise ValueError(f"unknown experiment kind {spec.kind!r}")

        names = set(SystemParams._fields)
        unknown = sorted((set(spec.overrides) - names - {"r1", "r"})
                         | (set(spec.config) - names))
        if unknown:
            raise ValueError(f"unknown override key {unknown[0]!r}")
        if spec.kind != "validate":
            if not (math.isfinite(spec.v_min) and math.isfinite(spec.v_max)
                    and spec.v_min < spec.v_max):
                raise ValueError(f"swept range needs finite min < max, "
                                 f"got [{spec.v_min!r}, {spec.v_max!r}]")
            if spec.count < 2:
                raise ValueError(f"count must be >= 2, got {spec.count!r}")
            if spec.spacing not in ("linear", "log"):
                raise ValueError(f"spacing must be linear or log, got {spec.spacing!r}")
            if spec.spacing == "log" and not spec.v_min > 0:
                raise ValueError(f"log spacing needs min > 0, got {spec.v_min!r}")
            # the grid replaces a fixed value, which would be silently dropped
            if spec.var in spec.overrides or spec.var in spec.config:
                raise ParameterError(spec.var, "is swept, so no flag, override or "
                                               "config may also fix it")
        return spec


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _schemes(params: SystemParams) -> tuple[powermodel.PowerCoefficients, ...]:
    """The cooperative scheme's coefficients and the baseline's, in CSV column order."""
    return powermodel.power_coefficients(params), powermodel.conventional_coefficients(params)


def _resolve_run(config: dict, overrides: dict):
    """Validated parameters and placement (r1, r) of one run; r None = random."""
    system = dict(overrides)
    r1 = float(system.pop("r1", DEFAULT_R1))
    r = system.pop("r", None)
    params = validate(SystemParams(**{**config, **system}))
    if not (math.isfinite(r1) and r1 > 0):
        raise ParameterError("r1", f"must be finite and > 0, got {r1!r}")
    if r is not None:
        r = float(r)
        mc.require_exchange_distance(r, params)
    else:  # each scheme's quadratic refuses its coefficients here, before the draw
        for coeff in _schemes(params):
            dist.PowerQuadratic.from_coefficients(coeff, r1)
    return params, r1, r


def _sweep_rows(runs: list, n_trials: int, stream: mc.RandomStream, workers: int):
    """The dataset's rows, all read from one Monte Carlo draw on ``stream``.

    At a fixed placement the energies are per-round totals, averaged over the
    bearing, and the Monte Carlo column counts one exchange draw (it alone sets
    the slot usage; ``sigma2_short`` is never swept) at each row's threshold.
    At a random placement both columns are PPP expectations."""
    if runs[0][2] is not None:  # a fixed placement: every row pins r
        powers = [[powermodel.power_breakdown(Geometry(r1=r1, r=r, theta=0.5 * math.pi), c)
                   for c in _schemes(p)] for p, r1, r in runs]
        t12 = [powermodel.Link.short(p).threshold(coop.p12, r)
               for (p, _, r), (coop, _) in zip(runs, powers)]
        counts = mc.exchange_counts(n_trials, t12, runs[0][0].sigma2_short, stream)
        cols = [(coop.total, conv.total, *mc.exchange_energy(n_trials, k, coop))
                for (coop, conv), k in zip(powers, counts)]
    else:  # an array per coefficient, per scheme
        quads = np.array([[dist.PowerQuadratic.from_coefficients(c, r1) for c in _schemes(p)]
                          for p, r1, _ in runs])
        coop, conv = (dist.PowerQuadratic(*quads[:, i].T) for i in (0, 1))
        rho = np.array([p.rho for p, _, _ in runs])
        cols = zip(dist.expected_power(coop, rho), dist.expected_power(conv, rho),
                   *mc.sample_power_distribution(n_trials, rho, coop, stream, workers))
    return [(*c, dist.energy_efficiency(c[0], p.rate), dist.energy_efficiency(c[1], p.rate))
            for (p, _, _), c in zip(runs, cols)]


def sweep(spec: ExperimentSpec) -> str:
    """Emit the dataset of a sweep or of a bundled figure (a preset sweep).

    Every row is resolved, so every bad input refused, before the one draw.
    """
    spec = spec.resolved()
    if spec.kind == "validate":
        raise ValueError("a validate spec is not a dataset; use validate_report")
    grid = np.geomspace if spec.spacing == "log" else np.linspace
    values = grid(spec.v_min, spec.v_max, spec.count)
    runs = [_resolve_run(spec.config, {**spec.overrides, spec.var: float(value)})
            for value in values]
    rows = _sweep_rows(runs, spec.n_trials, mc.RandomStream(spec.seed), spec.workers)
    lines = [CSV_HEADER] + [",".join([spec.var, _fmt(float(value))] + [_fmt(v) for v in row])
                            for value, row in zip(values, rows)]

    with open(spec.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return spec.out


# --- validation report ------------------------------------------------------

class Check(NamedTuple):
    """One bounded check of a validation report: one PASS or FAIL line."""

    section: str  # "a" to "e"
    name: str
    kind: str  # "identity" (deterministic), "bound": value <= target; "z": |z| <= 3
    value: float
    target: float
    passed: bool
    stderr: float | None = None  # "z" checks only


class _Report:
    def __init__(self):
        self.lines: list[str] = []
        self.checks: list[Check] = []
        self._section = ""

    def add(self, text: str) -> None:
        if text.startswith("[") and text[2:3] == "]":  # a section heading, "[x] ..."
            self._section = text[1]
        self.lines.append(text)

    def _record(self, kind, name, value, target, passed, text, stderr=None) -> None:
        self.checks.append(Check(self._section, name, kind, float(value), float(target),
                                 bool(passed), stderr))
        self.add(f"  {'PASS' if passed else 'FAIL'} {name}: {text}")

    def check(self, name: str, value: float, bound: float, detail: str = "",
              kind: str = "identity") -> None:
        extra = f" {detail}" if detail else ""
        self._record(kind, name, value, bound, value <= bound,
                     f"{_fmt(value)} (bound {_fmt(bound)}){extra}")

    def check_z(self, name: str, observed: float, target: float, stderr: float) -> None:
        if stderr > 0:
            z = (observed - target) / stderr
        else:  # every trial gave the same value
            z = 0.0 if observed == target else math.copysign(math.inf, observed - target)
        self._record("z", name, observed, target, abs(z) <= 3.0,
                     f"{_fmt(observed)} vs target {_fmt(target)} "
                     f"(z = {z:+.2f}, bound |z| <= 3)", float(stderr))

    def info(self, name: str, text: str) -> None:
        self.add(f"  INFO {name}: {text}")


def _closure_section(rep: _Report, params: SystemParams,
                     coeff: powermodel.PowerCoefficients) -> None:
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
    res = abs(powermodel.either_fails(p_c) - params.p_out_target)
    rep.check("conventional outage closure residual", res, 1e-12)

    # total vs quadratic identity.  At each r1 both sides are one quadratic in r and
    # r*cos(theta), so a fault shows at any generic placement: a fixed grid of 8 r1 x
    # 8 r x 8 bearings, with r1 = 100 and 3000 m, r = 0 and theta = 0, pi/2 and pi.
    # eps*(eta1*r1^2 + eta2*r2^2) is split around the mean coefficient, so with equal
    # handset gains the difference term is exactly zero.
    r1s, rs, thetas = np.meshgrid(np.linspace(100.0, 3000.0, 8), np.linspace(0.0, 300.0, 8),
                                  np.arange(-2, 6) * (0.25 * math.pi), indexing="ij", sparse=True)
    eps = coeff.eps_total
    r2s = partner_distance_to_bs(r1s, rs, thetas)
    total = (2.0 * coeff.zeta * rs * rs
             + eps * (0.5 * (coeff.eta1 + coeff.eta2)) * (r1s * r1s + r2s * r2s)
             + eps * (0.5 * (coeff.eta2 - coeff.eta1)) * (r2s * r2s - r1s * r1s))
    quad = dist.PowerQuadratic.from_coefficients(coeff, r1s)
    quad_form = quad.a * rs * rs + quad.b_coeff * np.cos(thetas) * rs + quad.c0
    res = float(np.max(np.abs(total - quad_form) / total))
    rep.check("total vs quadratic-form max relative residual", res, 1e-9,
              detail=f"({total.size} grid placements)")


def _distribution_section(rep: _Report, params: SystemParams,
                          quad: dist.PowerQuadratic, k: float, r1: float,
                          n_trials: int, seed: int, workers: int) -> tuple[float, float]:
    """Section [b]; returns its draw's placement moments, which section [c] checks."""
    rho = params.rho
    rep.add(f"[b] power distribution vs Monte Carlo (rho = {_fmt(rho)}, "
            f"r1 = {_fmt(r1)})")
    # the scale-free totals y, which keep their digits where A < ulp(c0), and H(y; k)
    samples, m_a, m_c = mc.draw_power_samples(n_trials, rho, quad,
                                              mc.RandomStream(seed, stream_id=101),
                                              workers=workers)
    # sorted in place on the workers, as a sorted copy would double the sample's memory
    mc._sort_in_place(samples, workers)
    ks_ref = mc.ks_distance(samples, lambda y: dist.cdf_scale_free(y, k))
    ks_bound = max(0.005, 1.5 * 1.36 / math.sqrt(n_trials))
    rep.check("KS distance, samples vs reference CDF", ks_ref, ks_bound,
              detail=f"({n_trials} samples)", kind="bound")
    rep.info("reference CDF at sample median - 0.5",
             _fmt(dist.cdf_scale_free(samples[n_trials // 2], k) - 0.5))
    return m_a, m_c


def _expected_power_section(rep: _Report, coeff: powermodel.PowerCoefficients,
                            m_a: float, m_c: float, n_trials: int) -> None:
    rep.add("[c] expected power: closed form vs quadrature vs Monte Carlo")
    rhos = np.array([1e-5, 1e-4, 1e-3, 3e-3, 1e-2])
    r1s = np.array([3000.0, 2000.0, 1000.0, 500.0, 150.0])
    # the coefficients do not depend on rho, so one array quadratic holds all sets
    quads = dist.PowerQuadratic.from_coefficients(coeff, r1s)
    closed = dist.expected_power(quads, rhos)
    by_quad = dist.expected_power_quadrature(quads, rhos)
    # every set's Monte Carlo mean is affine in two placement moments, those of
    # section [b]'s draw: check them
    rep.check_z("Monte Carlo mean of pi*rho*r^2", m_a, 1.0, 1.0 / math.sqrt(n_trials))
    rep.check_z("Monte Carlo mean of cos(theta)*sqrt(pi*rho)*r", m_c, 0.0,
                math.sqrt(0.5 / n_trials))
    by_mc = mc.mean_from_moments(quads, rhos, m_a, m_c)
    for rho_i, r1_i, closed_i, by_quad_i, mc_i in zip(rhos, r1s, closed, by_quad, by_mc):
        label = f"rho={_fmt(rho_i)} r1={_fmt(r1_i)}"
        rep.check(f"closed form vs quadrature, {label}",
                  abs(closed_i - by_quad_i) / closed_i, 1e-9)
        rep.info(f"Monte Carlo mean, {label}",
                 f"{_fmt(mc_i)} vs closed form {_fmt(closed_i)}")


def _branch_form_section(rep: _Report, k: float) -> None:
    rep.add("[e] two-branch distribution expressions vs the reference")
    floor, y_hi = -0.25 * k * k, dist._y_upper(k, 1e-9)
    # three cells: y <= -y_hi needs u >= u_t, so a first cell up to -y_hi holds at
    # most the tail; unsplit, a Q1 k^2/4 wide with its mass within ~k of 0 fools tanh-sinh
    ends = np.array([floor, max(floor, -y_hi), 0.0, y_hi])
    integrals = dist._tanh_sinh(lambda y, live: dist.pdf_scale_free(y, k), ends[:-1],
                                ends[1:], atol=1e-10, rtol=1e-12)
    cdf = dist.cdf_scale_free(ends[1:], k)  # and H(floor) = 0
    tol = 1e-10 + 1e-12 * np.abs(integrals)  # each cell's tanh-sinh stop test
    residual, bound = np.abs(integrals - np.diff(cdf, prepend=0.0)), tol + 2.0 * dist._CDF_TOL
    i = int(np.argmax(residual / bound))  # the cell nearest its bound
    # the upper CDF branch is the reference plus F(c0) = H(0; k); the cells
    # [s, 0] and [0, y_hi] share it, so they also check H across its junction at y = 0
    rep.info("upper-branch additive boundary term", _fmt(cdf[1]))
    rep.check("density integral vs CDF difference, worst of three y cells", residual[i],
              bound[i], detail=f"(y in [{_fmt(ends[i])}, {_fmt(ends[i + 1])}])")
    rep.check("|integral of branch-form PDF over support - 1|", abs(np.sum(integrals) - 1.0),
              1e-9 + np.sum(tol), detail=f"(upper limit y = {_fmt(y_hi)})")


def _protocol_section(rep: _Report, params: SystemParams, r1: float, r: float) -> None:
    rep.add(f"[d] protocol event rates at fixed placement, enumerated (r = {_fmt(r)}, "
            f"r1 = {_fmt(r1)})")
    geom = Geometry(r1=r1, r=r, theta=0.5 * math.pi)
    targets = powermodel.OutageTargets.for_target(params.p_out_target)
    rates = mc.protocol_rates(geom, params)
    x = targets.p_out_nc
    # the per-message outage sits below the composite: the relay gives each
    # message a second copy after a successful exchange
    per_msg = targets.eps_short * x * x + powermodel.either_fails(params.p_out_target) * x
    powers = powermodel.power_breakdown(geom, powermodel.power_coefficients(params))
    for name, value, target in (
            ("exchange success rate Pr(delta = 0)", rates.exchanged, targets.eps_short),
            ("composite outage rate", rates.outage, params.p_out_target),
            ("conventional composite outage", rates.conv_outage, params.p_out_target),
            ("per-message outage rate", rates.lost_d1, per_msg),
            ("single cellular uplink outage", rates.uplink1_lost, x),
            ("mean round energy vs total", rates.mean_energy, powers.total)):
        rep.check(f"{name}, relative residual", abs(value - target) / target, 1e-12,
                  detail=f"(enumerated {_fmt(value)} vs {_fmt(target)})")


def validate_report(spec: ExperimentSpec) -> tuple[str, tuple[Check, ...]]:
    """Write the cross-validation report; returns (path, its ``Check`` records).

    The records are in report order; the run passes iff every one ``passed``.
    Every input is checked before a section runs.  Sections [a] to [e] run in
    order on the calling thread; only [b]'s placement draw and the sort of its
    sample take the ``spec.workers``, so the report has the bytes of one worker.
    """
    spec = spec.resolved()
    if spec.kind != "validate":
        raise ValueError(f"not a validate spec: {spec.kind!r}")
    params, r1, r = _resolve_run(spec.config, {"r": 20.0, **spec.overrides})

    rep = _Report()
    rep.add("cooperative uplink validation report")
    rep.add("===================================")
    rep.add("parameters:")
    for name, value in zip(SystemParams._fields, params):
        rep.add(f"  {name} = {_fmt(value)}")
    rep.add(f"  r1 = {_fmt(r1)}")
    rep.add(f"  r = {_fmt(r)}")
    rep.add(f"  seed = {spec.seed}")
    rep.add(f"  n_trials = {spec.n_trials}")

    coeff = powermodel.power_coefficients(params)
    quad = dist.PowerQuadratic.from_coefficients(coeff, r1)
    k = dist.cdf_shape(quad, params.rho)
    _closure_section(rep, params, coeff)
    m_a, m_c = _distribution_section(rep, params, quad, k, r1, spec.n_trials, spec.seed,
                                     spec.workers)
    _expected_power_section(rep, coeff, m_a, m_c, spec.n_trials)  # reads [b]'s draw
    _protocol_section(rep, params, r1, r)
    _branch_form_section(rep, k)

    checks = tuple(rep.checks)
    failed = [c.name for c in checks if not c.passed]
    rep.add(f"summary: {len(checks) - len(failed)}/{len(checks)} bounded checks passed")
    if failed:
        rep.add("failed: " + ", ".join(failed))

    with open(spec.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rep.lines) + "\n")
    return spec.out, checks
