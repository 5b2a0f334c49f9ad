import filecmp
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nncc.cli import main
from nncc.experiments import (
    CSV_HEADER,
    ExperimentSpec,
    run_figure,
    sweep,
    validate_report,
)

ROOT = Path(__file__).resolve().parent.parent
TRIALS = 20_000


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
    spec = ExperimentSpec(kind="sweep", var="r1", v_min=10.0, v_max=5.0,
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
        run_figure(ExperimentSpec(kind="figure3", out=path, seed=9,
                                  n_trials=TRIALS, workers=1))
    assert filecmp.cmp(p1, p2, shallow=False)
    p3 = str(tmp_path / "c.csv")
    run_figure(ExperimentSpec(kind="figure3", out=p3, seed=9,
                              n_trials=TRIALS, workers=4))
    assert filecmp.cmp(p1, p3, shallow=False)


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
    run_figure(ExperimentSpec(kind="figure3", out=path, seed=2, n_trials=TRIALS))
    rows = read_rows(path)
    assert len(rows) == 26
    assert rows[0][1] == 500.0 and rows[-1][1] == 3000.0
    for row in rows:
        assert row[2] < row[3]          # analytic energies ordered
        assert abs(row[4] - row[2]) < 6.0 * row[5] or abs(row[4] - row[2]) < 1e-6 * row[2]


def test_figure4_efficiency_ordering(tmp_path):
    path = str(tmp_path / "fig4.csv")
    run_figure(ExperimentSpec(kind="figure4", out=path, seed=2, n_trials=TRIALS))
    for row in read_rows(path):
        assert row[6] > row[7]          # cooperative bits/J above baseline
    # figure 4 is the efficiency view of the figure 3 sweep: the same dataset
    fig3 = str(tmp_path / "fig3.csv")
    run_figure(ExperimentSpec(kind="figure3", out=fig3, seed=2, n_trials=TRIALS))
    assert filecmp.cmp(path, fig3, shallow=False)


def test_figure5_energy_decreasing_in_density(tmp_path):
    path = str(tmp_path / "fig5.csv")
    run_figure(ExperimentSpec(kind="figure5", out=path, seed=2, n_trials=TRIALS))
    rows = read_rows(path)
    energies = [row[2] for row in rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_figure6_energy_decreasing_in_target(tmp_path):
    path = str(tmp_path / "fig6.csv")
    run_figure(ExperimentSpec(kind="figure6", out=path, seed=2, n_trials=TRIALS))
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
    run_figure(ExperimentSpec(kind="figure3", out=path, seed=2, n_trials=TRIALS,
                              overrides={"r": 40.0}))
    base = str(tmp_path / "fig3b.csv")
    run_figure(ExperimentSpec(kind="figure3", out=base, seed=2, n_trials=TRIALS))
    assert read_rows(path)[0][2] > read_rows(base)[0][2]  # larger exchange cost


# --- validation report ----------------------------------------------------------

def test_validate_report_passes_and_is_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "v1.txt"), str(tmp_path / "v2.txt")
    _, ok1 = validate_report(ExperimentSpec(kind="validate", out=p1, seed=7,
                                            n_trials=50_000, workers=1))
    _, ok2 = validate_report(ExperimentSpec(kind="validate", out=p2, seed=7,
                                            n_trials=50_000, workers=3))
    assert ok1 and ok2
    assert filecmp.cmp(p1, p2, shallow=False)
    text = open(p1, encoding="utf-8").read()
    for section in ("[a]", "[b]", "[c]", "[d]", "[e]", "summary:"):
        assert section in text


def test_validate_report_evaluates_batch_cdf_once(tmp_path, monkeypatch):
    """The KS sample goes through the CDF once, on the report's workers."""
    from nncc import distribution

    calls = []
    batch = distribution.cdf_reference_batch

    def counting(p_values, *args, **kwargs):
        if np.size(p_values) == 10_000:
            calls.append(kwargs.get("workers"))
        return batch(p_values, *args, **kwargs)

    monkeypatch.setattr(distribution, "cdf_reference_batch", counting)
    validate_report(ExperimentSpec(kind="validate", out=str(tmp_path / "v.txt"),
                                   seed=7, n_trials=10_000, workers=2))
    assert calls == [2]


def test_validate_report_refuses_small_budget(tmp_path):
    with pytest.raises(ValueError) as err:
        validate_report(ExperimentSpec(kind="validate",
                                       out=str(tmp_path / "v.txt"), n_trials=10))
    assert "10000" in str(err.value)


def test_validate_report_flags_tampered_eta(tmp_path):
    path = str(tmp_path / "tampered.txt")
    _, ok = validate_report(
        ExperimentSpec(kind="validate", out=path, seed=7, n_trials=20_000),
        eta_scale=2.0)
    assert not ok
    text = open(path, encoding="utf-8").read()
    assert "FAIL total vs quadratic-form" in text


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
    """With support_upper within 1e-3 of c0 the finite-difference row is n/a."""
    out = tmp_path / "v.txt"
    code = main(["validate", "--out", str(out), "--seed", "7", "--trials", "10000",
                 "--rho", "0.1", "--r1", "20000"])
    assert code in (0, 1)
    text = out.read_text(encoding="utf-8")
    assert re.search(r"^summary: \d+/\d+ bounded checks passed$", text, re.M)
    assert "(50 interior points): n/a" in text


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
    assert captured.err.startswith("error: CDF at p = ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()


def test_cli_density_integral_failure_exits_1(tmp_path, capsys, monkeypatch):
    """A density integral that does not converge is one error line and exit 1."""
    from nncc import distribution

    def diverging(p, quad, rho):  # not integrable across c0
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(p - quad.c0)

    monkeypatch.setattr(distribution, "pdf_branch_form", diverging)
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
    assert rep.failures == ["differs"]
    assert "PASS same: 2.5 vs target 2.5 (z = +0.00" in rep.lines[0]
    assert "(z = +inf" in rep.lines[1]


def test_cli_validate_energy_without_spread(tmp_path):
    """At 1e9 b/s the exchange swamps the uplinks: every round costs the same."""
    out = tmp_path / "v.txt"
    assert main(["validate", "--out", str(out), "--rate", "1e9",
                 "--trials", "10000"]) == 0
    text = out.read_text(encoding="utf-8")
    assert "summary: 20/20 bounded checks passed" in text
    assert re.search(r"PASS mean round energy: .* \(z = \+0\.00,", text)


def test_cli_quadratic_overflow_exits_2(tmp_path, capsys):
    out = tmp_path / "v.txt"
    assert main(["validate", "--out", str(out), "--rate", "2e9",
                 "--trials", "10000"]) == 2
    assert capsys.readouterr().err.startswith("error: rate: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # the spread of the round total over placements overflows at rho = 1e-4
    ["validate", "--rate", "1.05e9"],
    ["sweep", "--var", "r1", "--min", "500", "--max", "1000", "--count", "2",
     "--rate", "1.05e9"],
    # the variance of the round energy at a fixed placement overflows
    ["sweep", "--var", "r", "--min", "1", "--max", "10", "--count", "2",
     "--rate", "1.2e9"],
], ids=["validate", "sweep-r1", "sweep-r"])
def test_cli_round_energy_overflow_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o.txt"
    assert main(argv + ["--trials", "10000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: rate: ")
    assert not out.exists()


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


def test_cli_import_leaves_scipy_unloaded():
    """figure and sweep never integrate, so importing the CLI must not load scipy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    child = ("import sys, nncc.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
