"""Hand-run profile of ``validate``'s wall time, section by section.

Runs ``validate_report`` in this process, once to warm up and then
``--runs`` times, and times each of sections [a] to [e] by wrapping the
function ``experiments`` calls for it.  "set-up" is the rest of a report:
the input checks, the coefficients, the law's shape k, the summary and
writing the report (to the null device).  It prints the best and the median
of each, in ms, and of the whole report, with the checks passed.

It starts no thread of its own: only [b]'s draw and sort take the
``--workers``, as in ``validate``.  pytest does not collect this file.  From
the repository root:

    PYTHONPATH=src python3 tests/section_times.py --trials 10000 --workers 1 --runs 40
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

from nncc import experiments
from nncc.experiments import ExperimentSpec, validate_report

SECTIONS = (("[a]", "_closure_section"), ("[b]", "_distribution_section"),
            ("[c]", "_expected_power_section"), ("[d]", "_protocol_section"),
            ("[e]", "_branch_form_section"))


def section_times(trials: int, workers: int, seed: int, runs: int) -> tuple[dict, str]:
    """Seconds per run of set-up, each section and the whole report, and the
    last report's verdict as 'passed/checks'."""
    spent = {}

    def timed(label, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[label] = time.perf_counter() - t0
        return wrapper

    originals = {name: getattr(experiments, name) for _, name in SECTIONS}
    times = {label: [] for label in ("set-up", *(label for label, _ in SECTIONS), "report")}
    spec = ExperimentSpec(kind="validate", out=os.devnull, seed=seed, n_trials=trials,
                          workers=workers)
    try:
        for label, name in SECTIONS:
            setattr(experiments, name, timed(label, originals[name]))
        for run in range(runs + 1):  # run 0 warms up
            gc.collect()
            spent.clear()
            t0 = time.perf_counter()
            _, checks = validate_report(spec)
            whole = time.perf_counter() - t0
            if run:
                for label, _ in SECTIONS:
                    times[label].append(spent[label])
                times["set-up"].append(whole - sum(spent.values()))
                times["report"].append(whole)
    finally:
        for name, fn in originals.items():
            setattr(experiments, name, fn)
    return times, f"{sum(c.passed for c in checks)}/{len(checks)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=40, help="timed runs after the warm-up")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    times, verdict = section_times(args.trials, args.workers, args.seed, args.runs)
    print(f"validate --seed {args.seed} --trials {args.trials} --workers {args.workers}: "
          f"{verdict} checks passed, {args.runs} runs")
    print("| stage | best, ms | median, ms |")
    print("| --- | --- | --- |")
    for label, values in times.items():
        print(f"| {label} | {1e3 * min(values):.3f} | {1e3 * statistics.median(values):.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
