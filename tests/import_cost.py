"""Hand-run profile of what ``import nncc.cli`` costs on top of numpy.

Runs ``python -X importtime -c "import nncc.cli"`` in fresh interpreters and
prints, as medians over the runs:

- each nncc module's self time;
- each module that ``import nncc.cli`` loads and ``import numpy`` alone does
  not, its self time and its share of nncc's cost, which is the self time
  of the nncc modules and of those modules;
- the time of nncc's ``@dataclass`` decorations, timed around
  ``dataclasses._process_class`` in as many more interpreters, and their
  share of nncc's self time.

It measures twice.  "no .pyc" is the benchmark's setting: with
PYTHONDONTWRITEBYTECODE=1 and no ``src/nncc/__pycache__`` every process
compiles nncc's sources.  ".pyc" points PYTHONPYCACHEPREFIX at a temporary
directory for the child processes only, so after one warm-up run every
module's bytecode is read from there and nothing is written into the
repository.  pytest does not collect this file.  From the repository root:

    PYTHONPATH=src python3 tests/import_cost.py --runs 20
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \| *(\S+)$")
_TIME_DECORATIONS = """
import dataclasses, json, time
exact, spent = dataclasses._process_class, {}
def timed(cls, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        return exact(cls, *args, **kwargs)
    finally:
        spent[f"{cls.__module__}.{cls.__qualname__}"] = time.perf_counter() - t0
dataclasses._process_class = timed
import nncc.cli
print(json.dumps(spent))
"""


def _is_nncc(name: str) -> bool:
    return name == "nncc" or name.startswith("nncc.")


def _child(env: dict, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True)


def loaded(env: dict, module: str) -> frozenset:
    """The modules in ``sys.modules`` after a fresh ``import module``; a failed
    probe, which ``-X importtime`` also prints, is not among them."""
    return frozenset(_child(env, "-c", f"import sys, {module}; print(*sys.modules)").stdout.split())


def importtime_run(env: dict, extra: frozenset) -> dict:
    """Self times (us) of one fresh ``import nncc.cli``: of the nncc modules,
    and of the ``extra`` modules."""
    err = _child(env, "-X", "importtime", "-c", "import nncc.cli").stderr
    run = {"nncc": {}, "extra": {}}
    for self_us, name in (m.groups() for m in map(_LINE.match, err.splitlines()) if m):
        if _is_nncc(name):
            run["nncc"][name] = int(self_us)
        elif name in extra:
            run["extra"][name] = int(self_us)
    return run


def decoration_run(env: dict) -> dict:
    """Seconds that each of nncc's ``@dataclass`` decorations takes at import."""
    spent = json.loads(_child(env, "-c", _TIME_DECORATIONS).stdout)
    return {name: s for name, s in spent.items() if _is_nncc(name)}


def _median(runs: list[dict]) -> dict:
    values = defaultdict(list)
    for run in runs:
        for key, value in run.items():
            values[key].append(value)
    return {key: statistics.median(v + [0] * (len(runs) - len(v)))
            for key, v in values.items()}


def profile(env: dict, runs: int) -> str:
    """The three tables of one setting, as text."""
    extra = loaded(env, "nncc.cli") - loaded(env, "numpy")
    imports = [importtime_run(env, extra) for _ in range(runs)]
    decorations = _median([decoration_run(env) for _ in range(runs)])
    self_us = _median([r["nncc"] for r in imports])
    extra_us = _median([r["extra"] for r in imports])
    self_total = sum(self_us.values())
    cost_us = self_total + sum(extra_us.values())
    lines = [f"nncc's cost: {cost_us / 1e3:.1f} ms, of which nncc's self time "
             f"{self_total / 1e3:.1f} ms", "",
             "| nncc module | self, ms |", "| --- | --- |"]
    lines += [f"| {name} | {us / 1e3:.2f} |"
              for name, us in sorted(self_us.items(), key=lambda kv: -kv[1])]
    lines += ["", "| module numpy does not load | self, ms | share of nncc's cost |",
              "| --- | --- | --- |"]
    lines += [f"| {name} | {us / 1e3:.2f} | {100 * us / cost_us:.1f} % |"
              for name, us in sorted(extra_us.items(), key=lambda kv: -kv[1])]
    spent_us = 1e6 * sum(decorations.values())
    lines += ["", f"@dataclass decorations: {len(decorations)} classes, "
              f"{spent_us / 1e3:.2f} ms, {100 * spent_us / self_total:.1f} % of nncc's "
              "self time"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20,
                        help="fresh interpreters per table and setting")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("PYTHONPYCACHEPREFIX", None)
    if (ROOT / "src" / "nncc" / "__pycache__").exists():
        print("note: src/nncc/__pycache__ exists, so the \"no .pyc\" setting reads it",
              file=sys.stderr)
    print(f"## no .pyc (PYTHONDONTWRITEBYTECODE=1), {args.runs} runs\n")
    print(profile({**env, "PYTHONDONTWRITEBYTECODE": "1"}, args.runs))
    with tempfile.TemporaryDirectory() as cache:
        env = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPYCACHEPREFIX"] = cache
        _child(env, "-c", "import nncc.cli")  # writes every module's bytecode
        print(f"\n## .pyc (PYTHONPYCACHEPREFIX in a temporary directory), {args.runs} runs\n")
        print(profile(env, args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
