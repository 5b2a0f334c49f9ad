"""Command-line experiment runner.

Verbs:
  figure <3|4|5|6>   emit the dataset behind one of the bundled figures
  sweep              emit a dataset over an arbitrary parameter axis
  validate           run the analytic-vs-Monte-Carlo cross checks

Every verb accepts --config (flat JSON matching the SystemParams schema) and
per-parameter override flags.  Precedence, lowest first: defaults, the config
file, the figure preset, explicit flags.  Exit codes:
0 success, 1 a bounded validation check failed or an ``IntegrationError`` (one
``error: ...`` line, no output file), 2 bad invocation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .distribution import IntegrationError
from .experiments import SWEEPABLE, ExperimentSpec, run_figure, sweep, validate_report
from .params import ParameterError, SystemParams, load_config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON parameter file")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=200_000,
                        help="Monte Carlo trials per point / per section")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads; never changes the output bytes")
    group = parser.add_argument_group("parameter overrides (SI units; *_db in dB)")
    for f in fields(SystemParams):
        group.add_argument(f"--{f.name}", type=float, default=None)
    group.add_argument("--r1", type=float, default=None,
                       help="tagged handset to BS distance, m")
    group.add_argument("--r", type=float, default=None,
                       help="inter-user distance, m (fixes the placement)")


def _build_spec(args, kind: str) -> ExperimentSpec:
    # flags stay overrides, so they win over a figure preset as well as the file
    base = load_config(args.config) if args.config else SystemParams()
    overrides = {}
    for key in [f.name for f in fields(SystemParams)] + ["r1", "r"]:
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    return ExperimentSpec(
        kind=kind, out=args.out, seed=args.seed, n_trials=args.trials,
        workers=args.workers, overrides=overrides, base=base,
        var=getattr(args, "var", None), v_min=getattr(args, "min", None),
        v_max=getattr(args, "max", None), count=getattr(args, "count", None),
        spacing=getattr(args, "spacing", "linear"),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nncc", description="cooperative uplink energy experiments")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_fig = sub.add_parser("figure", help="reproduce a bundled figure dataset")
    p_fig.add_argument("number", type=int, choices=(3, 4, 5, 6))
    _add_common(p_fig)

    p_sweep = sub.add_parser("sweep", help="sweep one variable")
    p_sweep.add_argument("--var", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--min", type=float, required=True)
    p_sweep.add_argument("--max", type=float, required=True)
    p_sweep.add_argument("--count", type=int, required=True)
    p_sweep.add_argument("--spacing", choices=("linear", "log"), default="linear")
    _add_common(p_sweep)

    p_val = sub.add_parser("validate", help="cross-validate closed forms")
    _add_common(p_val)

    args = parser.parse_args(argv)
    try:
        if args.verb == "figure":
            path = run_figure(_build_spec(args, f"figure{args.number}"))
            print(f"wrote {path}")
        elif args.verb == "sweep":
            path = sweep(_build_spec(args, "sweep"))
            print(f"wrote {path}")
        else:
            path, ok = validate_report(_build_spec(args, "validate"))
            print(f"wrote {path}")
            if not ok:
                print("validation FAILED: see report", file=sys.stderr)
                return 1
    except (ParameterError, ValueError, OSError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, IntegrationError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
