"""Pinned output bytes: a manifest of what a fixed list of invocations writes.

Each invocation is a CLI run, whose output is the file it writes, or a demo,
whose output is its standard output.  ``tests/golden_outputs.json`` holds,
per invocation, the exit code and the sha256 of the output (None when a run
wrote no file), and the Python and numpy versions it was written with.  A
change that moves bytes on purpose regenerates it, so the JSON diff names
every output that moved.  The list:

- ``figure 3|4|5|6`` at seeds 0, 1 and 3, with 1 and 2 workers, at the
  default trials and at 1e4;
- the rho (1e-7..1, 30 log) and r1 (50..1e5, 20 log) sweeps, with 1 and 2
  workers;
- a fixed-placement p_out_target sweep (1e-4..0.1, 5 log, r = 20) at 1e4
  trials, with 1 and 2 workers: its rows count one exchange draw at five
  thresholds;
- ``validate --seed 7`` in the eight regimes of ``REGIMES``, at 1e4 and 1e6
  trials, with 1 and 2 workers;
- the standard output of every demo.

pytest does not collect this file; ``test_golden.py`` reruns the 1e4-trial
CLI runs (``TIER1``) against the manifest.  From the repository root, to
rewrite the manifest (about 10 s):

    PYTHONPATH=src python3 tests/golden.py

It prints each invocation whose exit code or digest differs from the manifest
it replaces, when that manifest was written with the same versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from nncc import cli

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "golden_outputs.json"

REGIMES = ((), ("--g_u2_db", "-3"), ("--rate", "1e9"), ("--rho", "0.1", "--r1", "20000"),
           ("--rho", "1", "--r1", "100000"), ("--rho", "1e-7", "--r1", "50"),
           ("--p_out_target", "0.1"), ("--p_out_target", "1e-5"))
SWEEPS = (("--var", "rho", "--min", "1e-7", "--max", "1", "--count", "30", "--spacing", "log"),
          ("--var", "r1", "--min", "50", "--max", "1e5", "--count", "20", "--spacing", "log"))
WORKERS = (("--workers", "1"), ("--workers", "2"))
EXCHANGE_SWEEP = ("sweep", "--var", "p_out_target", "--min", "1e-4", "--max", "0.1",
                  "--count", "5", "--spacing", "log", "--r", "20", "--trials", "10000")


def _figures(trials: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [("figure", str(n), "--seed", str(seed)) + trials + w
            for n in (3, 4, 5, 6) for seed in (0, 1, 3) for w in WORKERS]


def _validates(trials: str) -> list[tuple[str, ...]]:
    return [("validate", "--seed", "7", "--trials", trials) + regime + w
            for regime in REGIMES for w in WORKERS]


# the CLI runs at 1e4 trials: the subset a tier-1 test reruns
TIER1 = [" ".join(a) for a in _figures(("--trials", "10000")) + _validates("10000")
         + [EXCHANGE_SWEEP + w for w in WORKERS]]
CLI_RUNS = TIER1 + [" ".join(a) for a in _figures(())
                    + [("sweep",) + s + w for s in SWEEPS for w in WORKERS]
                    + _validates("1000000")]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(invocation: str, out: str) -> dict:
    """Exit code and output digest of one in-process CLI run."""
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(invocation.split() + ["--out", out])
    if not os.path.exists(out):
        return {"exit": code, "sha256": None}
    with open(out, "rb") as fh:
        return {"exit": code, "sha256": _digest(fh.read())}


def run_demo(name: str) -> dict:
    """Exit code and standard-output digest of one demo, in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    return {"exit": done.returncode, "sha256": _digest(done.stdout)}


def outputs(invocations, tmp: str) -> dict:
    """``run_cli``'s record of every invocation, by invocation."""
    out = os.path.join(tmp, "out")
    return {inv: run_cli(inv, out) for inv in invocations}


def moved(old: dict, records: dict) -> list[str]:
    """The invocations of ``records`` whose record differs from the manifest
    ``old``'s; none when ``old`` was written with other versions."""
    if old.get("versions") != versions():
        return []
    return [inv for inv, record in records.items() if old["outputs"].get(inv) != record]


def main() -> int:
    old = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        records = outputs(CLI_RUNS, tmp)
    records.update({f"demo {name}": run_demo(name) for name in DEMOS})
    for inv in moved(old, records):
        print(f"moved: {inv}")
    MANIFEST.write_text(json.dumps({"versions": versions(), "outputs": records},
                                   indent=1) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}: {len(records)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
