"""Count the runs and checks of ``validate`` that fail on a correct program.

Hand-run; pytest does not collect it.  From the repository root:

    PYTHONPATH=src python3 tests/false_alarm_count.py --seeds 0-999 --trials 10000

Every seed writes one in-process ``validate`` report (default parameters) to
a temporary directory.  A failure of a correct program is a false alarm: a
|z| <= 3 check that fires by chance, so the counts estimate ``validate``'s
false-alarm rate.  Runs with a section [c] failure (its two placement
moments, or a closed form against its quadrature) are also counted.  The
last line of standard output is one JSON object with the counts.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import tempfile
import time

from nncc.experiments import ExperimentSpec, validate_report


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def count(seeds: range, trials: int, workers: int) -> dict:
    """Failing runs, runs with a section [c] failure, and failures per check."""
    failed_runs = section_c_runs = 0
    by_check = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.txt")
        for seed in seeds:
            _, checks = validate_report(ExperimentSpec(
                kind="validate", out=out, seed=seed, n_trials=trials, workers=workers))
            failed = [c for c in checks if not c.passed]
            if not failed:
                continue
            failed_runs += 1
            section_c_runs += any(c.section == "c" for c in failed)
            by_check.update(c.name for c in failed)
    return {"seeds": f"{seeds.start}-{seeds.stop - 1}", "trials": trials,
            "runs": len(seeds), "failed_runs": failed_runs,
            "section_c_runs": section_c_runs,
            "failed_checks": sum(by_check.values()),
            "by_check": dict(sorted(by_check.items()))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-999"),
                        help="inclusive seed range, e.g. 0-999")
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    result = count(args.seeds, args.trials, args.workers)
    print(f"{result['failed_runs']} of {result['runs']} runs failed, "
          f"{result['section_c_runs']} with a section [c] failure, "
          f"{result['failed_checks']} failing checks "
          f"({time.perf_counter() - start:.0f} s)", file=sys.stderr)
    for name, n in result["by_check"].items():
        print(f"  {n:4d}  {name}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
