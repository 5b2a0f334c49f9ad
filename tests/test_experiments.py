import filecmp
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mutants
from model_helpers import cooperative_quadratic
from nncc import (Geometry, ParameterError, PowerQuadratic, SystemParams, cli,
                  conventional_coefficients, energy_efficiency, expected_power,
                  power_coefficients, validate)
from nncc import experiments
from nncc import montecarlo as mc
from nncc.cli import main
from nncc.experiments import (
    CSV_HEADER,
    DEFAULT_R1,
    ExperimentSpec,
    _resolve_run,
    sweep,
    validate_report,
)

ROOT = Path(__file__).resolve().parent.parent
TRIALS = 20_000


def failed(checks):
    """The names of a report's failed checks, in report order."""
    return [c.name for c in checks if not c.passed]


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        assert header == CSV_HEADER
        rows = []
        for line in fh:
            cells = line.strip().split(",")
            rows.append((cells[0], *[float(c) for c in cells[1:]]))
    return rows


# --- spec validation -----------------------------------------------------------

def test_spec_rejects_bad_range(tmp_path):
    for v_max in (5.0, math.inf, math.nan):
        spec = ExperimentSpec(kind="sweep", var="r1", v_min=10.0, v_max=v_max,
                              count=4, out=str(tmp_path / "x.csv"))
        with pytest.raises(ValueError):
            spec.resolved()


def test_spec_rejects_small_count(tmp_path):
    spec = ExperimentSpec(kind="sweep", var="r1", v_min=1.0, v_max=5.0,
                          count=1, out=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        spec.resolved()


def test_spec_rejects_unknown_variable(tmp_path):
    spec = ExperimentSpec(kind="sweep", var="bananas", v_min=1.0, v_max=5.0,
                          count=3, out=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError) as err:
        spec.resolved()
    assert "bananas" in str(err.value)


def test_spec_rejects_unknown_kind_and_override(tmp_path):
    with pytest.raises(ValueError):
        ExperimentSpec(kind="figure9", out=str(tmp_path / "x.csv")).resolved()
    spec = ExperimentSpec(kind="figure3", out=str(tmp_path / "x.csv"),
                          overrides={"nope": 1.0})
    with pytest.raises(ValueError) as err:
        spec.resolved()
    assert "nope" in str(err.value)


def test_sweep_and_report_refuse_each_others_kinds(tmp_path):
    out = str(tmp_path / "x.txt")
    with pytest.raises(ValueError) as err:
        sweep(ExperimentSpec(kind="validate", out=out))
    assert "validate" in str(err.value)
    with pytest.raises(ValueError) as err:
        validate_report(ExperimentSpec(kind="figure3", out=out))
    assert "figure3" in str(err.value)
    assert not os.path.exists(out)


@pytest.mark.parametrize("kind,config", [
    ("figure5", {"rho": 1e-3}),
    ("figure6", {"p_out_target": 0.01}),
    ("figure5", {"rho": SystemParams().rho}),
], ids=["figure5-rho", "figure6-p_out_target", "figure5-rho-at-default"])
def test_spec_refuses_swept_variable_fixed_by_config(tmp_path, kind, config):
    """A config value of the swept variable would be replaced by the grid,
    also when it equals the default."""
    spec = ExperimentSpec(kind=kind, out=str(tmp_path / "x.csv"), config=config)
    with pytest.raises(ParameterError, match="is swept"):
        spec.resolved()


@pytest.mark.parametrize("changes,named", [
    (dict(var="rho", spacing="log"), "var='rho'"),
    (dict(var="rho"), "var='rho'"),
    (dict(spacing="log"), "spacing='log'"),
], ids=["var-and-spacing", "var", "spacing"])
def test_figure_spec_refuses_another_axis(tmp_path, monkeypatch, changes, named):
    """A figure sweeps its preset's axis: another var or spacing is refused,
    not replaced by the preset's, and nothing is drawn or written."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a Monte Carlo sample was drawn")

    monkeypatch.setattr(mc, "sample_power_distribution", no_draw)
    monkeypatch.setattr(mc, "exchange_counts", no_draw)
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=named):
        sweep(ExperimentSpec(kind="figure3", n_trials=10_000, out=str(out), **changes))
    assert not out.exists()
    # the preset's own axis, given explicitly, is the figure
    spec = ExperimentSpec(kind="figure5", var="rho", spacing="log", out=str(out))
    assert spec.resolved() == ExperimentSpec(kind="figure5", out=str(out)).resolved()


def test_sweep_spacing_defaults_to_linear(tmp_path):
    spec = ExperimentSpec(kind="sweep", var="r1", v_min=500.0, v_max=1000.0,
                          count=3, out=str(tmp_path / "x.csv")).resolved()
    assert spec.spacing == "linear"


def test_resolved_runs_once_per_call(tmp_path, monkeypatch):
    calls = []
    resolved = ExperimentSpec.resolved

    def counting(self):
        calls.append(self.kind)
        return resolved(self)

    monkeypatch.setattr(ExperimentSpec, "resolved", counting)
    sweep(ExperimentSpec(kind="sweep", var="r", v_min=1.0, v_max=10.0, count=2,
                         out=str(tmp_path / "s.csv"), n_trials=10_000))
    validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                   seed=7, n_trials=10_000))
    assert calls == ["sweep", "validate"]


# --- datasets -------------------------------------------------------------------

def test_degenerate_sweep_two_rows(tmp_path):
    path = str(tmp_path / "two.csv")
    sweep(ExperimentSpec(kind="sweep", var="r1", v_min=500.0, v_max=1000.0,
                         count=2, out=path, n_trials=TRIALS, seed=1))
    rows = read_rows(path)
    assert len(rows) == 2
    assert rows[0][1] == 500.0 and rows[1][1] == 1000.0


def test_csv_byte_stable(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for path in (p1, p2):
        sweep(ExperimentSpec(kind="figure3", out=path, seed=9,
                             n_trials=TRIALS, workers=1))
    assert filecmp.cmp(p1, p2, shallow=False)
    p3 = str(tmp_path / "c.csv")
    sweep(ExperimentSpec(kind="figure3", out=p3, seed=9,
                         n_trials=TRIALS, workers=4))
    assert filecmp.cmp(p1, p3, shallow=False)


@pytest.mark.parametrize("kind,estimator", [("figure3", "exchange_counts"),
                                            ("figure5", "sample_power_distribution")])
def test_a_dataset_draws_once(tmp_path, monkeypatch, kind, estimator):
    """Every row of a figure reads one Monte Carlo call: the placement draw
    makes one pass over its blocks, and the exchange counts are one draw from
    their exact law on block 0, with no pass over trial blocks."""
    calls, passes, blocks = [], [], []
    for name in ("exchange_counts", "sample_power_distribution", "draw_power_samples"):
        monkeypatch.setattr(mc, name, lambda *a, _name=name, _fn=getattr(mc, name), **k:
                            calls.append(_name) or _fn(*a, **k))
    sum_blocks = mc._sum_blocks
    monkeypatch.setattr(mc, "_sum_blocks", lambda n, stream, workers, fn:
                        passes.append(n) or sum_blocks(n, stream, workers, fn))
    block = mc.RandomStream.block
    monkeypatch.setattr(mc.RandomStream, "block",
                        lambda stream, j: blocks.append(j) or block(stream, j))
    sweep(ExperimentSpec(kind=kind, out=str(tmp_path / "f.csv"), n_trials=TRIALS, workers=2))
    assert calls == [estimator]
    assert passes == ([] if estimator == "exchange_counts" else [TRIALS])
    assert blocks == [0]  # TRIALS fit in one block


def test_csv_significant_digits(tmp_path):
    path = str(tmp_path / "digits.csv")
    sweep(ExperimentSpec(kind="sweep", var="r1", v_min=500.0, v_max=700.0,
                         count=2, out=path, n_trials=TRIALS, seed=1))
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        cell = fh.readline().split(",")[2]
    assert len(cell.replace(".", "").replace("-", "").lstrip("0").replace("e", "x").split("x")[0]) <= 12


def test_figure3_cooperation_always_cheaper(tmp_path):
    path = str(tmp_path / "fig3.csv")
    sweep(ExperimentSpec(kind="figure3", out=path, seed=2, n_trials=TRIALS))
    rows = read_rows(path)
    assert len(rows) == 26
    assert rows[0][1] == 500.0 and rows[-1][1] == 3000.0
    for row in rows:
        assert row[2] < row[3]          # analytic energies ordered
        assert abs(row[4] - row[2]) < 6.0 * row[5] or abs(row[4] - row[2]) < 1e-6 * row[2]


def test_figure4_efficiency_ordering(tmp_path):
    path = str(tmp_path / "fig4.csv")
    sweep(ExperimentSpec(kind="figure4", out=path, seed=2, n_trials=TRIALS))
    for row in read_rows(path):
        assert row[6] > row[7]          # cooperative bits/J above baseline
    # figure 4 is the efficiency view of the figure 3 sweep: the same dataset
    fig3 = str(tmp_path / "fig3.csv")
    sweep(ExperimentSpec(kind="figure3", out=fig3, seed=2, n_trials=TRIALS))
    assert filecmp.cmp(path, fig3, shallow=False)


def test_figure5_energy_decreasing_in_density(tmp_path):
    path = str(tmp_path / "fig5.csv")
    sweep(ExperimentSpec(kind="figure5", out=path, seed=2, n_trials=TRIALS))
    rows = read_rows(path)
    energies = [row[2] for row in rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_figure6_energy_decreasing_in_target(tmp_path):
    path = str(tmp_path / "fig6.csv")
    sweep(ExperimentSpec(kind="figure6", out=path, seed=2, n_trials=TRIALS))
    rows = read_rows(path)
    energies = [row[2] for row in rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_sweep_r_energy_increasing(tmp_path):
    path = str(tmp_path / "sw_r.csv")
    sweep(ExperimentSpec(kind="sweep", var="r", v_min=1.0, v_max=100.0, count=6,
                         out=path, seed=3, n_trials=TRIALS,
                         overrides={"r1": 1500.0}))
    energies = [row[2] for row in read_rows(path)]
    assert all(a < b for a, b in zip(energies, energies[1:]))


def test_sweep_rate_energy_increasing(tmp_path):
    path = str(tmp_path / "sw_rate.csv")
    sweep(ExperimentSpec(kind="sweep", var="rate", v_min=5e4, v_max=2e6, count=6,
                         out=path, seed=3, n_trials=TRIALS, spacing="log"))
    energies = [row[2] for row in read_rows(path)]
    assert all(a < b for a, b in zip(energies, energies[1:]))


def test_figure_override_applies(tmp_path):
    path = str(tmp_path / "fig3o.csv")
    sweep(ExperimentSpec(kind="figure3", out=path, seed=2, n_trials=TRIALS,
                         overrides={"r": 40.0}))
    base = str(tmp_path / "fig3b.csv")
    sweep(ExperimentSpec(kind="figure3", out=base, seed=2, n_trials=TRIALS))
    assert read_rows(path)[0][2] > read_rows(base)[0][2]  # larger exchange cost


# --- validation report ----------------------------------------------------------

def test_validate_report_passes_and_is_deterministic(tmp_path):
    """Any worker count gives the bytes of one; with 2 or more, section [b]'s
    placement blocks run on threads, and none outlives the call."""
    before = threading.active_count()
    paths, records = [], []
    for workers in (1, 2, 3, 4):
        paths.append(str(tmp_path / f"v{workers}.txt"))
        _, checks = validate_report(ExperimentSpec(kind="validate", out=paths[-1], seed=7,
                                                   n_trials=50_000, workers=workers))
        assert len(checks) == 20 and not failed(checks)
        records.append(checks)
        assert threading.active_count() == before
    for path, checks in zip(paths[1:], records[1:]):
        assert filecmp.cmp(paths[0], path, shallow=False)
        assert checks == records[0]
    text = open(paths[0], encoding="utf-8").read()
    for section in ("[a]", "[b]", "[c]", "[d]", "[e]", "summary:"):
        assert section in text


@pytest.mark.parametrize("workers", [1, 2])
def test_validate_keeps_sections_a_to_c_on_the_calling_thread(tmp_path, monkeypatch,
                                                              workers):
    """Every section, [a] to [e], runs on the calling thread, in report order,
    with 1 and 2 workers: only [b]'s placement blocks and the two halves of
    its sort take the workers.  A section moved off the main thread costs a
    malloc arena of RSS."""
    threads = []
    names = ("_closure_section", "_distribution_section", "_expected_power_section",
             "_protocol_section", "_branch_form_section")

    def recording(name, section):
        def run(*args):
            threads.append((name, threading.current_thread()))
            return section(*args)
        return run

    for name in names:
        monkeypatch.setattr(experiments, name, recording(name, getattr(experiments, name)))
    validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"), seed=7,
                                   n_trials=10_000, workers=workers))
    assert threads == [(name, threading.main_thread()) for name in names]


@pytest.mark.parametrize("failing", [("draw_power_samples",), ("protocol_rates",),
                                     ("draw_power_samples", "protocol_rates")],
                         ids=["section-b", "section-d", "both"])
def test_validate_error_is_the_same_beside_a_thread(tmp_path, capsys, monkeypatch,
                                                    failing):
    """An error in section [b] or [d] exits with 2 workers as on 1; with both,
    [b]'s comes first, as in section order, and no thread outlives the call."""
    def refusing(name):
        def refuse(*args, **kwargs):
            raise ParameterError("rate", f"{name} refused")
        return refuse

    for name in failing:
        monkeypatch.setattr(mc, name, refusing(name))
    before = threading.active_count()
    for workers in ("1", "2"):
        out = tmp_path / f"v{workers}.txt"
        assert main(["validate", "--seed", "7", "--trials", "10000", "--workers", workers,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: rate: {failing[0]} refused\n"
        assert threading.active_count() == before
        assert not out.exists()


def test_validate_report_check_inventory(tmp_path):
    """The report's 20 bounded checks, by section, name and kind, in order,
    each rendered as one PASS or FAIL line; and its INFO lines, by name."""
    path = tmp_path / "v.txt"
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(path), seed=7,
                                               n_trials=10_000))
    assert not failed(checks)
    assert [(c.section, c.name, c.kind) for c in checks] == [
        ("a", "short-range power inversion residual", "identity"),
        ("a", "composite outage closure residual", "identity"),
        ("a", "conventional outage closure residual", "identity"),
        ("a", "total vs quadratic-form max relative residual", "identity"),
        ("b", "KS distance, samples vs reference CDF", "bound"),
        ("c", "Monte Carlo mean of pi*rho*r^2", "z"),
        ("c", "Monte Carlo mean of cos(theta)*sqrt(pi*rho)*r", "z"),
        ("c", "closed form vs quadrature, rho=1e-05 r1=3000", "identity"),
        ("c", "closed form vs quadrature, rho=0.0001 r1=2000", "identity"),
        ("c", "closed form vs quadrature, rho=0.001 r1=1000", "identity"),
        ("c", "closed form vs quadrature, rho=0.003 r1=500", "identity"),
        ("c", "closed form vs quadrature, rho=0.01 r1=150", "identity"),
        ("d", "exchange success rate Pr(delta = 0), relative residual", "identity"),
        ("d", "composite outage rate, relative residual", "identity"),
        ("d", "conventional composite outage, relative residual", "identity"),
        ("d", "per-message outage rate, relative residual", "identity"),
        ("d", "single cellular uplink outage, relative residual", "identity"),
        ("d", "mean round energy vs total, relative residual", "identity"),
        ("e", "density integral vs CDF difference, worst of three y cells", "identity"),
        ("e", "|integral of branch-form PDF over support - 1|", "identity"),
    ]
    assert all((c.stderr is not None) == (c.kind == "z") for c in checks)
    text = path.read_text(encoding="utf-8")
    tagged = [line for line in text.splitlines() if line.startswith(("  PASS ", "  FAIL "))]
    assert len(tagged) == len(checks)
    for line, c in zip(tagged, checks):
        assert line.startswith(f"  {'PASS' if c.passed else 'FAIL'} {c.name}: ")
    assert re.findall(r"^  INFO (.*?): ", text, flags=re.MULTILINE) == [
        "reference CDF at sample median - 0.5",
        "Monte Carlo mean, rho=1e-05 r1=3000",
        "Monte Carlo mean, rho=0.0001 r1=2000",
        "Monte Carlo mean, rho=0.001 r1=1000",
        "Monte Carlo mean, rho=0.003 r1=500",
        "Monte Carlo mean, rho=0.01 r1=150",
        "upper-branch additive boundary term",
    ]


def test_validate_report_evaluates_batch_cdf_once(tmp_path, monkeypatch):
    """One KS statistic takes the batch CDF H(y; k), at under a quarter of the
    sample.

    Each point is evaluated at most once: the table and the cells that may
    hold the maximum.
    """
    from nncc import distribution, montecarlo

    calls, in_ks, n_statistics = [], [], []
    batch, ks = distribution.cdf_scale_free, montecarlo.ks_distance

    def counting(y_values, *args, **kwargs):
        if in_ks:
            calls.append(np.size(y_values))
        return batch(y_values, *args, **kwargs)

    def ks_marking(*args, **kwargs):
        in_ks.append(True)
        n_statistics.append(True)
        try:
            return ks(*args, **kwargs)
        finally:
            in_ks.pop()

    monkeypatch.setattr(distribution, "cdf_scale_free", counting)
    monkeypatch.setattr(montecarlo, "ks_distance", ks_marking)
    n_trials = 10_000
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                               seed=7, n_trials=n_trials, workers=2))
    assert not failed(checks)
    assert len(n_statistics) == 1 and len(calls) >= 2
    assert sum(calls) < n_trials / 4


def test_validate_report_refuses_small_budget(tmp_path):
    with pytest.raises(ValueError) as err:
        validate_report(ExperimentSpec(kind="validate",
                                       out=str(tmp_path / "v.txt"), n_trials=10))
    assert "10000" in str(err.value)


def test_validate_report_flags_tampered_eta(tmp_path, monkeypatch):
    """A quadratic built from doubled uplink coefficients fails the closure check."""
    from nncc.distribution import PowerQuadratic

    build = PowerQuadratic.from_coefficients.__func__

    def doubled_eta(cls, coeff, r1):
        return build(cls, coeff._replace(eta1=2.0 * coeff.eta1, eta2=2.0 * coeff.eta2), r1)

    monkeypatch.setattr(PowerQuadratic, "from_coefficients", classmethod(doubled_eta))
    path = str(tmp_path / "tampered.txt")
    _, checks = validate_report(ExperimentSpec(kind="validate", out=path, seed=7,
                                               n_trials=20_000))
    assert "total vs quadratic-form max relative residual" in failed(checks)


def test_closure_identity_reads_no_seed(tmp_path):
    """Section [a] checks its identities on fixed placements: seeds 0 and 7
    write the same [a] lines, those of 512 grid placements."""
    sections = []
    for seed in (0, 7):
        path = tmp_path / f"v{seed}.txt"
        validate_report(ExperimentSpec(kind="validate", out=str(path), seed=seed,
                                       n_trials=10_000))
        text = path.read_text(encoding="utf-8")
        sections.append(text[text.index("[a] "):text.index("[b] ")])
    assert sections[0] == sections[1]
    assert "(512 grid placements)" in sections[0]


def test_protocol_identities_read_neither_seed_nor_trials(tmp_path):
    """Section [d] enumerates the round law with no draw: seeds 0 and 7 and
    1e4 and 2e4 trials write the same [d] lines."""
    sections = []
    for seed, n_trials in ((0, 10_000), (7, 10_000), (7, 20_000)):
        path = tmp_path / f"v{seed}-{n_trials}.txt"
        validate_report(ExperimentSpec(kind="validate", out=str(path), seed=seed,
                                       n_trials=n_trials))
        text = path.read_text(encoding="utf-8")
        sections.append(text[text.index("[d] "):text.index("[e] ")])
    assert sections[0] == sections[1] == sections[2]
    assert sections[0].count("  PASS ") == 6


def test_closure_identity_sees_a_scaled_bearing_coefficient(tmp_path, monkeypatch):
    """b_coeff 1e-7 too small in ``PowerQuadratic.from_coefficients``: sections
    [b], [c] and [e] read that quadratic on both sides, so at 1e4 trials [a]'s
    identity against the link powers is the only failing check (a residual of
    5.3e-9 against 1e-9 on the grid)."""
    mutants.coeff_b_scale(monkeypatch, 1e-7)
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                               seed=7, n_trials=10_000))
    assert failed(checks) == ["total vs quadratic-form max relative residual"]


def test_validate_report_fails_every_mean_on_a_longer_neighbor_distance(tmp_path,
                                                                       monkeypatch):
    """A 3 % longer neighbour distance fails section [c]'s area moment, and every
    set's Monte Carlo mean, which the moments give, reads above its closed form."""
    mutants.distance_scale(monkeypatch, 0.03)
    path = tmp_path / "v.txt"
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(path), seed=7,
                                               n_trials=10_000))
    assert "Monte Carlo mean of pi*rho*r^2" in failed(checks)
    text = path.read_text(encoding="utf-8")
    means = re.findall(r"^  INFO Monte Carlo mean, .*: (\S+) vs closed form (\S+)$",
                       text, flags=re.MULTILINE)
    assert len(means) == 5
    assert all(float(mean) > float(closed) for mean, closed in means)


@pytest.mark.parametrize("fault,delta,moment", [
    ("distance_scale", 0.003, 0),  # z = +6.91 on pi*rho*r^2
    ("bearing_skew", 0.03, 1),     # z = +16.49 on cos(theta)*sqrt(pi*rho)*r
])
def test_section_c_moment_sees_its_fault(monkeypatch, fault, delta, moment):
    """Section [c] checks the moments of section [b]'s draw, 1e6 placements
    on stream 101 at seed 7: each fault moves its own moment past |z| = 3 and
    leaves the other within it."""
    n = 1_000_000
    params = validate(SystemParams())
    quad = cooperative_quadratic(params, 2000.0)

    def z_values():
        _, m_a, m_c = mc.draw_power_samples(n, params.rho, quad,
                                            mc.RandomStream(7, stream_id=101),
                                            workers=2)
        return abs(m_a - 1.0) * math.sqrt(n), abs(m_c) / math.sqrt(0.5 / n)

    assert max(z_values()) <= 3.0
    install, _ = mutants.FAULTS[fault]
    install(monkeypatch, delta)
    z = z_values()
    assert z[moment] > 3.0 and z[1 - moment] <= 3.0


def test_ks_alone_sees_an_area_exponent(tmp_path, monkeypatch):
    """The block kernel forming the area as r**1.8 in place of r*r: section [c]'s
    area moment is the sum of r*r, taken before that line, so at 1e4 trials
    [b]'s KS statistic is the only failing check.  At delta = 0 the fault is the
    kernel bit for bit."""
    params = validate(SystemParams())
    quad = cooperative_quadratic(params, 2000.0)

    def draw():
        return mc.draw_power_samples(10_000, params.rho, quad, mc.RandomStream(7, stream_id=101))

    exact = draw()
    with monkeypatch.context() as patch:
        mutants.area_exponent(patch, 0.0)
        assert draw().y.tobytes() == exact.y.tobytes()
    mutants.area_exponent(monkeypatch, 0.2)
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                               seed=7, n_trials=10_000))
    assert failed(checks) == ["KS distance, samples vs reference CDF"]


def test_round_energy_identity_sees_an_uncharged_slot_3(tmp_path, monkeypatch):
    """With eps_total = 1 the closed forms drop slot 3; of all the checks only
    section [d]'s energy identity sees it, at 1e4 trials."""
    mutants.slot3_uncharged(monkeypatch, 1.0)
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                               seed=7, n_trials=10_000))
    assert failed(checks) == ["mean round energy vs total, relative residual"]


def test_composite_outage_sees_dropped_relays(tmp_path, monkeypatch):
    """Section [d] sees slot 3: with each relayed copy's success probability
    1e-9 too small, the composite and per-message outage rates are the only
    failing checks."""
    mutants.relay_dropped(monkeypatch, 1e-9)
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                               seed=7, n_trials=10_000))
    assert failed(checks) == ["composite outage rate, relative residual",
                              "per-message outage rate, relative residual"]


def test_single_uplink_rate_sees_a_scaled_threshold(tmp_path, monkeypatch):
    """Every fading threshold 1e-9 too high: every enumerated rate of section
    [d] leaves its target, and no check outside [d] fails (the round's mean
    energy moves by less than its 1e-12 bound)."""
    mutants.threshold_scale(monkeypatch, 1e-9)
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                               seed=7, n_trials=10_000))
    assert failed(checks) == [
        "exchange success rate Pr(delta = 0), relative residual",
        "composite outage rate, relative residual",
        "conventional composite outage, relative residual",
        "per-message outage rate, relative residual",
        "single cellular uplink outage, relative residual"]


def test_exchange_rate_sees_one_direction_only(tmp_path, monkeypatch):
    """The simulator's exchange of mean (1 + 1e-9)*sigma2_short/2, the fault
    whose full size is one direction in place of the minimum of two: the
    exchange, composite and per-message rates of section [d] are the only
    failing checks."""
    mutants.one_direction(monkeypatch, 1e-9)
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                               seed=0, n_trials=10_000))
    assert failed(checks) == ["exchange success rate Pr(delta = 0), relative residual",
                              "composite outage rate, relative residual",
                              "per-message outage rate, relative residual"]


def test_composite_outage_sees_the_baseline_target(tmp_path, monkeypatch):
    """The cooperative per-link target moved 1e-9 of the way to the baseline's
    p_out_c, in the closed forms and the round law alike: the uplink and
    per-message rates follow the moved target, so the composite outage rate is
    the only failing check."""
    mutants.nc_target_swapped(monkeypatch, 1e-9)
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                               seed=7, n_trials=10_000))
    assert failed(checks) == ["composite outage rate, relative residual"]


def test_conventional_outage_sees_a_scaled_baseline_eta(tmp_path, monkeypatch):
    """The baseline's uplink coefficients 1e-9 too large move its thresholds:
    section [d]'s conventional composite outage is the only failing check."""
    mutants.baseline_eta_scale(monkeypatch, 1e-9)
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                               seed=7, n_trials=10_000))
    assert failed(checks) == ["conventional composite outage, relative residual"]


def test_density_cells_see_a_scaled_density(tmp_path, monkeypatch):
    """The density 1e-6 or 1e-8 too large and the CDF exact: at 1e4 trials
    section [e]'s two checks, its cells against H and its total mass, are the
    only failing ones.  At 1e-8 a cell's bound, its tanh-sinh stop test at rtol
    1e-12 plus twice H's 1e-10, is still below the fault's share of its mass."""
    for delta in (1e-6, 1e-8):
        with monkeypatch.context() as patch:
            mutants.density_scale(patch, delta)
            _, checks = validate_report(ExperimentSpec(
                kind="validate", out=str(tmp_path / "v.txt"), seed=7, n_trials=10_000))
        assert failed(checks) == ["density integral vs CDF difference, worst of three y cells",
                                  "|integral of branch-form PDF over support - 1|"], delta


def test_density_cells_see_a_shared_substitution_fault(tmp_path, monkeypatch):
    """sinh(v)^2 1e-6 too large in the CDF kernel and its phi = 0 limit alike,
    and the density exact: at 1e4 trials section [e]'s cell check is the only
    failing one (a residual of 2.8e-8 against a bound of 3e-10)."""
    mutants.shared_substitution(monkeypatch, 1e-6)
    _, checks = validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                               seed=7, n_trials=10_000))
    assert failed(checks) == ["density integral vs CDF difference, worst of three y cells"]


def test_baseline_eta_scale_reaches_every_reader_of_the_baseline(tmp_path, monkeypatch):
    """The baseline is one coefficient set, so a fault in it reaches the CSV's
    baseline mean and the simulator's conventional round, and nothing else."""
    spec = ExperimentSpec(kind="sweep", var="rho", v_min=1e-4, v_max=1e-3, count=2,
                          n_trials=10_000, out=str(tmp_path / "exact.csv"))
    geom = Geometry(r1=DEFAULT_R1, r=20.0, theta=0.5 * math.pi)

    def run(out):
        return (read_rows(sweep(replace(spec, out=str(tmp_path / out)))),
                mc.protocol_rates(geom, validate(SystemParams()))._asdict())

    exact, exact_rates = run("exact.csv")
    mutants.baseline_eta_scale(monkeypatch, 1.0)
    faulty, faulty_rates = run("faulty.csv")
    for row, bad in zip(exact, faulty):
        assert bad[2] == row[2] and bad[4] == row[4]  # e_nncc and its Monte Carlo mean
        assert bad[3] == pytest.approx(2.0 * row[3], rel=1e-11, abs=0)  # e_conv
    # twice the power: about half the conventional outages, the round's other
    # event rates unchanged
    conv = exact_rates.pop("conv_outage")
    assert faulty_rates.pop("conv_outage") == pytest.approx(0.5 * conv, rel=1e-3, abs=0)
    assert faulty_rates == pytest.approx(exact_rates, rel=1e-14, abs=0)


# --- CLI ------------------------------------------------------------------------

def test_cli_figure(tmp_path, capsys):
    out = str(tmp_path / "cli3.csv")
    assert main(["figure", "3", "--out", out, "--seed", "1",
                 "--trials", str(TRIALS)]) == 0
    assert read_rows(out)
    assert out in capsys.readouterr().out


def test_cli_sweep_with_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rate": 1e6}')
    out = str(tmp_path / "cli_sweep.csv")
    code = main(["sweep", "--var", "rho", "--min", "1e-5", "--max", "1e-4",
                 "--count", "3", "--spacing", "log", "--config", str(cfg),
                 "--out", out, "--trials", str(TRIALS), "--r1", "1000"])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 3


def test_cli_config_override_wins(tmp_path):
    """An explicit flag beats the config file's key; other keys keep defaults."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rate": 1e6}')
    argv = ["sweep", "--var", "rho", "--min", "1e-5", "--max", "1e-4", "--count", "2",
            "--trials", str(TRIALS), "--rate", "5e5"]
    with_cfg, plain = str(tmp_path / "cfg.csv"), str(tmp_path / "plain.csv")
    assert main(argv + ["--config", str(cfg), "--out", with_cfg]) == 0
    assert main(argv + ["--out", plain]) == 0
    assert filecmp.cmp(with_cfg, plain, shallow=False)


def test_cli_figure_flag_wins_with_config(tmp_path):
    """A flag beats the figure preset whether or not a config file is given."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    argv = ["figure", "5", "--seed", "1", "--trials", "10000", "--rate", "1e6"]
    with_cfg, plain = str(tmp_path / "cfg.csv"), str(tmp_path / "plain.csv")
    assert main(argv + ["--config", str(cfg), "--out", with_cfg]) == 0
    assert main(argv + ["--out", plain]) == 0
    assert filecmp.cmp(with_cfg, plain, shallow=False)
    preset = str(tmp_path / "preset.csv")
    assert main(argv[:-2] + ["--out", preset]) == 0
    assert not filecmp.cmp(plain, preset, shallow=False)


def test_cli_validate_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "v.txt")
    assert main(["validate", "--out", out, "--seed", "7",
                 "--trials", "20000"]) == 0
    # budget refusal is a usage error, exit code 2, message names the minimum
    assert main(["validate", "--out", out, "--trials", "10"]) == 2
    assert "10000" in capsys.readouterr().err


def test_cli_rejects_bad_parameter(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["figure", "3", "--out", out, "--trials", str(TRIALS),
                 "--rho", "-1"]) == 2
    assert "rho" in capsys.readouterr().err


def test_cli_validate_support_ending_near_c0(tmp_path):
    """With the law's 1e-6 tail within 1e-3 of c0 in p, section [e] reads the
    law in y, where the support is no narrower, and the report passes."""
    out = tmp_path / "v.txt"
    assert main(["validate", "--out", str(out), "--seed", "7", "--trials", "10000",
                 "--rho", "0.1", "--r1", "20000"]) == 0
    assert "summary: 20/20 bounded checks passed" in out.read_text(encoding="utf-8")


def test_cli_validate_dense_far_regime(tmp_path):
    """rho 1, r1 100 km: the density near c0 is narrow and the report still passes."""
    out = tmp_path / "v.txt"
    assert main(["validate", "--out", str(out), "--seed", "7", "--trials", "10000",
                 "--rho", "1", "--r1", "100000"]) == 0
    assert "summary: 20/20 bounded checks passed" in out.read_text(encoding="utf-8")


def test_cli_integration_error_exits_1(tmp_path, capsys, monkeypatch):
    """An IntegrationError is one error line and exit 1, with no report written."""
    from nncc import distribution

    monkeypatch.setattr(distribution, "_MAX_NODES", 8)
    out = tmp_path / "v.txt"
    assert main(["validate", "--out", str(out), "--seed", "7",
                 "--trials", "10000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: CDF at y = ")  # section [b]'s H(y; k)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()


def test_cli_density_integral_failure_exits_1(tmp_path, capsys, monkeypatch):
    """A density integral that does not converge is one error line and exit 1."""
    from nncc import distribution

    def diverging(y, k):  # not integrable at y = 0
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(y)

    monkeypatch.setattr(distribution, "pdf_scale_free", diverging)
    out = tmp_path / "v.txt"
    assert main(["validate", "--out", str(out), "--seed", "7",
                 "--trials", "10000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: quadrature on [")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, workers):
    out = str(tmp_path / "x.csv")
    assert main(["figure", "3", "--out", out, "--workers", workers]) == 2
    assert "workers" in capsys.readouterr().err


def test_cli_validate_unequal_handset_gains(tmp_path):
    """Closed forms and simulator charge handset 2 its own uplink gain."""
    out = tmp_path / "v.txt"
    assert main(["validate", "--out", str(out), "--g_u2_db", "-3",
                 "--trials", "200000", "--seed", "0"]) == 0
    assert "summary: 20/20 bounded checks passed" in out.read_text(encoding="utf-8")


def test_cli_rate_overflow_exits_2(tmp_path, capsys):
    out = tmp_path / "v.txt"
    assert main(["validate", "--out", str(out), "--rate", "1e10"]) == 2
    assert capsys.readouterr().err.startswith("error: rate: ")
    assert not out.exists()


def test_check_z_zero_stderr():
    """A statistic with no spread passes only when it equals its target."""
    from nncc.experiments import _Report

    rep = _Report()
    rep.check_z("same", 2.5, 2.5, 0.0)
    rep.check_z("differs", 2.5, 2.5000000001, 0.0)
    rep.check_z("above", 2.5000000001, 2.5, 0.0)
    assert [c.passed for c in rep.checks] == [True, False, False]
    assert "PASS same: 2.5 vs target 2.5 (z = +0.00" in rep.lines[0]
    # the infinite z carries the sign of observed - target
    assert "(z = -inf" in rep.lines[1]
    assert "(z = +inf" in rep.lines[2]


def test_cli_validate_energy_without_spread(tmp_path):
    """At 1e9 b/s the exchange swamps the uplinks: every round costs the same
    to within an ulp, so the mean energy is checked by an identity, not a z."""
    out = tmp_path / "v.txt"
    for run in (["--trials", "10000"],
                ["--trials", "1000000", "--seed", "7", "--workers", "1"],
                ["--trials", "1000000", "--seed", "7", "--workers", "2"]):
        assert main(["validate", "--out", str(out), "--rate", "1e9"] + run) == 0
        text = out.read_text(encoding="utf-8")
        assert "summary: 20/20 bounded checks passed" in text
        assert "PASS mean round energy vs total, relative residual: " in text


_SWEEP_R1 = ["sweep", "--var", "r1", "--min", "500", "--max", "1000", "--count", "2"]
_SWEEP_R = ["sweep", "--var", "r", "--min", "1", "--max", "10", "--count", "2"]


@pytest.mark.parametrize("argv,field", [
    (["validate", "--r", "0"], "r"),
    (["sweep", "--var", "r", "--min", "0", "--max", "10", "--count", "2"], "r"),
    (["validate", "--r", "nan"], "r"),
    (["validate", "--r", "inf"], "r"),
    (["validate", "--r1", "nan"], "r1"),
    (["validate", "--r1", "inf"], "r1"),
    (_SWEEP_R1 + ["--r", "nan"], "r"),
    (_SWEEP_R1 + ["--r", "inf"], "r"),
    (_SWEEP_R + ["--r1", "nan"], "r1"),
    (_SWEEP_R + ["--r1", "inf"], "r1"),
], ids=["validate", "sweep", "validate-r-nan", "validate-r-inf", "validate-r1-nan",
        "validate-r1-inf", "sweep-r-nan", "sweep-r-inf", "sweep-r1-nan", "sweep-r1-inf"])
def test_cli_zero_inter_user_distance_exits_2(tmp_path, capsys, monkeypatch, argv, field):
    """At r = 0, or at a distance that is not finite, the round's budgets are
    undefined: a bad parameter, named and refused before any placement sample
    is drawn."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a placement sample was drawn")

    monkeypatch.setattr(mc, "sample_power_distribution", no_draw)
    monkeypatch.setattr(mc, "draw_power_samples", no_draw)
    out = tmp_path / "o.txt"
    assert main(argv + ["--trials", "10000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: must be finite and ")
    assert not out.exists()


_SWEEP_P_OUT = ["sweep", "--var", "p_out_target", "--min", "0.1", "--max", "1",
                "--count", "25"]
_SWEEP_RHO_EDGE = ["sweep", "--var", "rho", "--min", "1e-5", "--max", "1e-3", "--count", "3"]


@pytest.mark.parametrize("argv,named", [
    (["sweep", "--var", "r1", "--min", "500", "--max", "inf", "--count", "2"],
     "swept range"),
    (["sweep", "--var", "r1", "--min", "500", "--max", "nan", "--count", "2"],
     "swept range"),
    (_SWEEP_R1 + ["--r1", "nan"], "r1: is swept"),
    (["figure", "3", "--r1", "1000"], "r1: is swept"),
    (["figure", "5", "--rho", "5"], "rho: is swept"),
    (["sweep", "--var", "rate", "--min", "5e4", "--max", "1e5", "--count", "2",
      "--rate", "-5"], "rate: is swept"),
    (_SWEEP_P_OUT, "p_out_target: "),
    (_SWEEP_R1 + ["--trials", "10"], "n_trials="),
    (["validate", "--seed", "-1"], "seed: must be >= 0"),
    (_SWEEP_R1 + ["--seed", "-3"], "seed: must be >= 0"),
    (["sweep", "--var", "rate", "--min", "-1", "--max", "1e5", "--count", "3",
      "--spacing", "log"], "log spacing needs min > 0"),
    # a coefficient of the round total whose square underflows
    (["validate", "--n0", "1e-300"], "rate: the round total's coefficient a is"),
    (["validate", "--n0", "1e-170"], "rate: the round total's coefficient a is"),
    (["validate", "--r1", "1e-200"], "rate: the round total's coefficient c0 is"),
    (["figure", "5", "--n0", "1e-300"], "rate: the round total's coefficient a is"),
    # only the last row's a, at p_out_target 0.5, underflows
    (["sweep", "--var", "p_out_target", "--min", "1e-4", "--max", "0.5", "--count", "3",
      "--n0", "1e-165"], "rate: the round total's coefficient a is 1.38e-155"),
    # the baseline's a = eta2(p_out_c) underflows; the cooperative a is 3.6e-154
    (_SWEEP_RHO_EDGE + ["--n0", "1e-166"],
     "rate: the round total's coefficient a is 5.42e-155"),
    # an exchange power zeta*r*r outside the normal floats
    (["validate", "--rate", "1e-300"], "r: 20.0 m gives the exchange power 2.8e-311 W"),
    (["validate", "--r", "1e-160"], "r: 1e-160 m gives the exchange power 0 W"),
    (["figure", "3", "--r", "1e-160"], "r: 1e-160 m gives the exchange power 0 W"),
    (["figure", "3", "--r", "1e200"], "r: 1e+200 m gives the exchange power inf W"),
    # -log1p(-p_out_target) underflows the exchange link's denominator
    (["validate", "--p_out_target", "5e-324"], "p_out_target: a per-link outage of 5e-324"),
    (["figure", "3", "--p_out_target", "5e-324"], "p_out_target: a per-link outage of 5e-324"),
    # the variance of r*r, 1/(pi*rho)^2, overflows at any rate
    (["sweep", "--var", "r1", "--min", "500", "--max", "1000", "--count", "2",
      "--rho", "1e-300"], "rho: 1e-300 handsets/m^2"),
    # a link factor that Link.coeff divides by is not a normal float
    (["validate", "--g_u2_db", "-4000"], "g_u2_db: gives the link factor 0"),
    (["validate", "--f_s", "1e300"], "f_s: gives the link factor 0"),
    (["validate", "--sigma2_short", "1e-320"], "sigma2_short: gives the link factor 1e-320"),
    (["validate", "--f_c", "1e300"], "f_c: gives the link factor 0"),
    (["validate", "--sigma2_cell", "1e-320"], "sigma2_cell: gives the link factor 1e-320"),
    (["figure", "3", "--sigma2_cell", "1e-320"], "sigma2_cell: gives the link factor 1e-320"),
    (["figure", "3", "--f_c", "1e300"], "f_c: gives the link factor 0"),
    # normal factors whose link product sigma2*gain*wavelength^2 is not normal
    (["validate", "--sigma2_short", "1e-200", "--g_u1_db", "-1100"],
     "sigma2_short: gives the link product 1.56e-312"),
    (["figure", "3", "--sigma2_short", "1e-200", "--g_u1_db", "-1100"],
     "sigma2_short: gives the link product 1.56e-312"),
    (["figure", "3", "--sigma2_short", "1e-200", "--g_u1_db", "-1100", "--n0", "1e-300"],
     "sigma2_short: gives the link product 1.56e-312"),
    (["validate", "--sigma2_cell", "1e-200", "--g_bs_db", "-1100"],
     "sigma2_cell: gives the link product 2.04e-312"),
    # section [b]'s law shape k = b_coeff*sqrt(pi*rho)/a, where 2*k^2 overflows
    (["validate", "--rho", "1e300", "--r1", "1e70"],
     "rho: 1e+300 handsets/m^2 give the law's shape k = 1.77e+218, too large for the CDF"),
], ids=["range-inf", "range-nan", "sweep-r1-fixed", "figure3-r1-fixed",
        "figure5-rho-fixed", "sweep-rate-fixed", "late-bad-row", "trials", "validate-seed",
        "sweep-seed", "log-spacing-min", "validate-n0-1e-300", "validate-n0-1e-170",
        "validate-r1-1e-200", "figure5-n0-1e-300", "late-row-n0", "baseline-a-n0-1e-166",
        "validate-rate-1e-300",
        "validate-r-1e-160", "figure3-r-1e-160", "figure3-r-1e200",
        "validate-p_out-5e-324", "figure3-p_out-5e-324", "sweep-r1-rho-1e-300",
        "validate-g_u2-underflow", "validate-f_s-1e300", "validate-sigma2_short-subnormal",
        "validate-f_c-1e300", "validate-sigma2_cell-subnormal",
        "figure3-sigma2_cell-subnormal", "figure3-f_c-1e300",
        "validate-short-link-product", "figure3-short-link-product",
        "figure3-short-link-product-n0-1e-300", "validate-cell-link-product",
        "validate-law-shape-overflow"])
def test_cli_refuses_bad_run_before_any_draw(tmp_path, capsys, monkeypatch, argv, named):
    """Every run of an invocation is resolved and checked before the first draw.

    ``sample_power_distribution`` refuses a density at its entry, before its
    one draw, so it runs here; its blocks, like every estimator's, come from
    ``RandomStream.block``, which must never be reached.
    """
    def no_draw(*args, **kwargs):
        raise AssertionError("a Monte Carlo sample was drawn")

    monkeypatch.setattr(mc.RandomStream, "block", no_draw)
    monkeypatch.setattr(mc, "draw_power_samples", no_draw)
    monkeypatch.setattr(mc, "exchange_counts", no_draw)
    out = tmp_path / "o.txt"
    if "--trials" not in argv:
        argv = argv + ["--trials", "10000"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("rho", [1e13, 1e100, 1e300])
def test_section_b_passes_at_high_density(rho):
    """Section [b] draws the scale-free totals y and takes its KS statistic
    against H(y; k), so its check passes where A = a/(pi*rho) is below an ulp
    of c0 (at rho = 1e100 every total c0 + A*y rounds to c0)."""
    params = validate(SystemParams(rho=rho))
    quad = cooperative_quadratic(params, DEFAULT_R1)
    rep = experiments._Report()
    k = quad.law(rho)[2]
    experiments._distribution_section(rep, params, quad, k, DEFAULT_R1, 10_000, 7, 1)
    (ks,) = rep.checks
    assert ks.name == "KS distance, samples vs reference CDF"
    assert ks.passed and ks.value <= ks.target


def test_validate_at_rho_1e300_passes_section_e(tmp_path, capsys):
    """At rho = 1e300 (k = 3.5e151) every total rounds to c0, but section [e]
    reads the density in y: its three cells meet H, the report is written,
    and no RuntimeWarning comes on the way (pytest makes one an error)."""
    out = tmp_path / "o.txt"
    assert main(["validate", "--rho", "1e300", "--trials", "10000", "--seed", "7",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    text = out.read_text(encoding="utf-8")
    assert "summary: 20/20 bounded checks passed" in text
    assert "  PASS density integral vs CDF difference, worst of three y cells: " in text


_VANISHING_K = ["--sigma2_short", "1e-150", "--g_u1_db", "-1100", "--n0", "1e-200"]


@pytest.mark.parametrize("flags", [["--rho", rho] for rho in
                                   ("1e-150", "1e-50", "1", "1e13", "1e100", "1e200",
                                    "1e300")] + [_VANISHING_K],
                         ids=lambda flags: "-".join(flags).lstrip("-"))
def test_validate_passes_across_the_law_shapes(tmp_path, flags):
    """From k = 3.5e-74 (rho = 1e-150) to 3.5e151 (rho = 1e300), and at k =
    3.5e-261, every check of the report passes: [b] and [e] read the law in y."""
    out = tmp_path / "v.txt"
    assert main(["validate", "--trials", "10000", "--seed", "7", "--out", str(out)]
                + flags) == 0
    assert "summary: 20/20 bounded checks passed" in out.read_text(encoding="utf-8")


def test_cli_sweep_passes_above_the_baseline_underflow(tmp_path):
    """Both schemes' quadratics are checked for every random-placement row; at
    n0 = 3e-166 the baseline's a (1.6e-154) still has a normal square."""
    out = tmp_path / "o.csv"
    assert main(_SWEEP_RHO_EDGE + ["--n0", "3e-166", "--trials", "10000",
                                   "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) and float(v) > 0
               for row in rows for v in row.split(",")[2:])


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n0=_log_uniform(1e-200, 1e-5), rate=_log_uniform(1e-3, 1e10),
       r1=_log_uniform(1e-5, 1e7), p_out_target=_log_uniform(1e-300, 0.999),
       g_u2_db=st.floats(-100.0, 100.0), rho=_log_uniform(1e-12, 1e3))
@example(n0=1e-166, rate=1e5, r1=DEFAULT_R1, p_out_target=1e-3, g_u2_db=0.0, rho=1e-4)
@example(n0=3e-166, rate=1e5, r1=DEFAULT_R1, p_out_target=1e-3, g_u2_db=0.0, rho=1e-4)
def test_resolved_random_placement_row_has_both_means(n0, rate, r1, p_out_target,
                                                      g_u2_db, rho):
    """A random-placement row is refused up front, or both schemes' means are
    finite and positive, with an energy efficiency, and no numpy warning."""
    overrides = dict(n0=n0, rate=rate, r1=r1, p_out_target=p_out_target,
                     g_u2_db=g_u2_db, rho=rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            params, r1, _ = _resolve_run({}, overrides)
        except ParameterError:
            return
        for coeff in (power_coefficients(params), conventional_coefficients(params)):
            mean = expected_power(PowerQuadratic.from_coefficients(coeff, r1), rho)
            assert math.isfinite(mean) and mean > 0
            assert energy_efficiency(mean, rate) > 0


@pytest.mark.parametrize("argv", [_SWEEP_RHO_EDGE, ["figure", "5"]],
                         ids=["sweep-rho", "figure5"])
def test_cli_refuses_config_fixing_the_swept_variable_at_its_default(tmp_path, capsys,
                                                                    argv):
    """The spec records the keys the config set, so a swept variable that the
    config sets to its default value is refused like any other value."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": SystemParams().rho}))
    out = tmp_path / "o.csv"
    assert main(argv + ["--config", str(cfg), "--trials", "10000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: rho: is swept, so no flag, override or "
                                       "config may also fix it\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--n0", "1e-150"], ["--r", "1e-140"],
    ["--sigma2_short", "1e-150", "--g_u1_db", "-1100", "--n0", "1e-200"]])
def test_cli_validate_passes_near_the_float_limits(tmp_path, flags):
    """Just inside the refused ranges every closed form and estimator still
    agrees: a's square and the exchange power zeta*r*r are normal floats.
    With the third, k = b_coeff*sqrt(pi*rho)/a = 3.5e-261 and k^2/(4y)
    underflows to 0, where the phi = 0 limits of the CDF were 0/0: the floor
    on sinh(V)^2 keeps them finite, with no numpy warning (pytest makes a
    RuntimeWarning an error)."""
    out = tmp_path / "v.txt"
    assert main(["validate", "--seed", "7", "--trials", "10000", "--out", str(out)]
                + flags) == 0
    assert "summary: 20/20 bounded checks passed" in out.read_text(encoding="utf-8")


def test_cli_quadratic_overflow_exits_2(tmp_path, capsys):
    out = tmp_path / "v.txt"
    assert main(["validate", "--out", str(out), "--rate", "2e9",
                 "--trials", "10000"]) == 2
    assert capsys.readouterr().err.startswith("error: rate: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # the spread of the round total over placements overflows at rho = 1e-4
    ["sweep", "--var", "r1", "--min", "500", "--max", "1000", "--count", "2",
     "--rate", "1.05e9"],
    # the variance of the round energy at a fixed placement overflows: the
    # uplinks' power, which alone varies, is ~9e159 W at r1 = 1e48 m
    ["sweep", "--var", "r", "--min", "1", "--max", "10", "--count", "2",
     "--rate", "1.2e9", "--r1", "1e48"],
], ids=["sweep-r1", "sweep-r"])
def test_cli_round_energy_overflow_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o.txt"
    assert main(argv + ["--trials", "10000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: rate: ")
    assert not out.exists()


def test_cli_sweep_below_the_spread_overflow_exits_0(tmp_path):
    """The spread over placements comes from sums of the placements alone, so
    it stays finite up to where a^2 times their variance overflows."""
    out = tmp_path / "o.csv"
    assert main(["sweep", "--var", "r1", "--min", "500", "--max", "1000", "--count", "2",
                 "--rate", "1.035e9", "--trials", "10000", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])


@pytest.mark.parametrize("config,field", [('{"g_bs_db": "5"}', "g_bs_db"),
                                          ('{"rho": true}', "rho")])
def test_cli_rejects_config_value_types(tmp_path, capsys, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    out = tmp_path / "v.txt"
    assert main(["validate", "--config", str(cfg), "--out", str(out),
                 "--trials", "10000"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: must be a real number")
    assert not out.exists()


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """The package needs numpy alone: validate runs with scipy unimportable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    loaded = ("print(sorted(m for m, mod in sys.modules.items() "
              "if mod is not None and m.split('.')[0] == 'scipy'))")
    out = tmp_path / "v.txt"
    argv = ["validate", "--trials", "10000", "--out", str(out)]
    for child in (f"import sys, nncc.cli; {loaded}",
                  "import sys; sys.modules['scipy'] = None; import nncc.cli; "
                  f"code = nncc.cli.main({argv!r}); {loaded}; sys.exit(code)"):
        done = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"
    assert "summary: 20/20 bounded checks passed" in out.read_text(encoding="utf-8")


def test_cli_verbs_in_one_process_match_separate_processes(tmp_path):
    """One parser serves every call: verbs run in turn in this process give
    the exit codes and bytes each gives in a process of its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    sweep_r1 = ["sweep", "--var", "r1", "--min", "500", "--max", "1000", "--count", "3"]
    runs = [["figure", "5", "--seed", "1"], sweep_r1 + ["--spacing", "log"], sweep_r1,
            ["validate", "--seed", "7"], ["validate", "--rho", "-1"]]
    for i, argv in enumerate(runs):
        argv = argv + ["--trials", "10000"]
        here, alone = tmp_path / f"here{i}", tmp_path / f"alone{i}"
        code = main(argv + ["--out", str(here)])
        done = subprocess.run([sys.executable, "-m", "nncc.cli", *argv, "--out", str(alone)],
                              env=env, capture_output=True, timeout=120)
        assert code == done.returncode, done.stderr
        assert here.exists() == alone.exists()
        assert not here.exists() or filecmp.cmp(here, alone, shallow=False)


def _traced_validate(tmp_path, *flags):
    """``bench/spans.py``'s tracer module and the spans of one traced 1e4-trial
    ``validate``."""
    found = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(found)
    found.loader.exec_module(spans)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        code = cli.main(["validate", "--seed", "7", "--trials", "10000",
                         "--out", str(tmp_path / "v.txt"), *flags])
    finally:
        restore()
    assert code == 0
    return spans, tracer.take()


def test_traced_validate_binds_the_benchmark_names(tmp_path):
    """``bench/spans.py`` reads estimator arguments by name; a rename breaks it."""
    spans, recorded = _traced_validate(tmp_path)
    metrics = spans.pass_metrics(recorded, pass_wall_s=1.0)
    assert metrics["montecarlo.ks_distance.points"] == 10_000
    assert metrics["montecarlo.estimate_link_outage.trials"] == 0


def test_traced_validate_beside_a_thread(tmp_path):
    """With 2 workers section [d] runs on ``cli.main``'s thread like every
    section: the work counts stay, and every parent is a span of the same
    run.  [d] draws no rounds, so the benchmark's protocol-estimator row
    counts none."""
    spans, recorded = _traced_validate(tmp_path, "--workers", "2")
    metrics = spans.pass_metrics(recorded, pass_wall_s=1.0)
    assert metrics["montecarlo.estimate_outage.trials"] == 0
    assert metrics["montecarlo.ks_distance.points"] == 10_000
    ids = {s.id for s in recorded}
    assert all(s.parent == 0 or s.parent in ids for s in recorded)
    thread = {s.name: s.thread for s in recorded}
    assert thread["montecarlo.protocol_rates"] == thread["cli.main"]
