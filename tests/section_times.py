"""Hand-run profile of ``validate``'s wall time, section by section.

Runs ``validate_report`` in this process, once to warm up and then
``--runs`` times, and times each of sections [a] to [e] by wrapping the
function ``experiments`` calls for it.  "set-up" is the rest of a report:
the input checks, the coefficients, the law's shape k, the summary and
writing the report (to the null device).  It prints the best and the median
of each, in ms, and of the whole report, with the checks passed.  It also
prints the work of each in the warm-up run, counted by wrapping: the calls of
the CDF kernel ``distribution._cdf_integrand``, of the quadrature rule
``distribution._tanh_sinh`` and of the integrands it is given, and of
``np.i0``.  The timed runs are not wrapped.

It starts no thread of its own: only [b]'s draw and sort take the
``--workers``, as in ``validate``.  pytest does not collect this file.  From
the repository root:

    PYTHONPATH=src python3 tests/section_times.py --trials 10000 --workers 1 --runs 40
"""

from __future__ import annotations

import argparse
import collections
import gc
import os
import statistics
import sys
import time

import numpy as np

from nncc import distribution, experiments
from nncc.experiments import ExperimentSpec, validate_report

SECTIONS = (("[a]", "_closure_section"), ("[b]", "_distribution_section"),
            ("[c]", "_expected_power_section"), ("[d]", "_protocol_section"),
            ("[e]", "_branch_form_section"))


WORK = ("_cdf_integrand", "_tanh_sinh", "integrand", "np.i0")


def section_times(trials: int, workers: int, seed: int,
                  runs: int) -> tuple[dict, dict, str]:
    """Seconds per run of set-up, each section and the whole report, the
    warm-up run's ``WORK`` counts of each, and the last report's verdict as
    'passed/checks'."""
    spent, current = {}, ["set-up"]

    def timed(label, fn):
        def wrapper(*args, **kwargs):
            current[0] = label
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[label] = time.perf_counter() - t0
                current[0] = "set-up"
        return wrapper

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            work[current[0]][key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_rule(fn):
        def wrapper(f, *args, **kwargs):
            work[current[0]]["_tanh_sinh"] += 1
            return fn(counted("integrand", f), *args, **kwargs)
        return wrapper

    originals = {name: getattr(experiments, name) for _, name in SECTIONS}
    times = {label: [] for label in ("set-up", *(label for label, _ in SECTIONS), "report")}
    work = {label: collections.Counter() for label in times}
    counting = ((distribution, "_cdf_integrand", counted("_cdf_integrand",
                                                         distribution._cdf_integrand)),
                (distribution, "_tanh_sinh", counted_rule(distribution._tanh_sinh)),
                (np, "i0", counted("np.i0", np.i0)))
    uncounted = [(module, name, getattr(module, name)) for module, name, _ in counting]
    spec = ExperimentSpec(kind="validate", out=os.devnull, seed=seed, n_trials=trials,
                          workers=workers)
    try:
        for label, name in SECTIONS:
            setattr(experiments, name, timed(label, originals[name]))
        for run in range(runs + 1):  # run 0 warms up, counting the work
            for module, name, fn in counting if run == 0 else uncounted:
                setattr(module, name, fn)
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
        for module, name, fn in uncounted:
            setattr(module, name, fn)
    work["report"] = sum(work.values(), collections.Counter())
    return times, work, f"{sum(c.passed for c in checks)}/{len(checks)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=40, help="timed runs after the warm-up")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    times, work, verdict = section_times(args.trials, args.workers, args.seed, args.runs)
    print(f"validate --seed {args.seed} --trials {args.trials} --workers {args.workers}: "
          f"{verdict} checks passed, {args.runs} runs")
    print("| stage | best, ms | median, ms | " + " | ".join(f"{key} calls" for key in WORK) + " |")
    print("| --- " * (3 + len(WORK)) + "|")
    for label, values in times.items():
        counts = " | ".join(str(work[label][key]) for key in WORK)
        print(f"| {label} | {1e3 * min(values):.3f} | {1e3 * statistics.median(values):.3f} "
              f"| {counts} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
