"""Benchmark of the nncc command line, driven in-process through ``nncc.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload validate_small --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: ``setup_s``
(fresh interpreter until ``nncc.cli`` is imported, median of several
subprocesses spread over the run), ``wall_s`` (time of the fastest pass of
the workload's CLI invocations; see NOTES.md for why not the median) and
``peak_rss_mb`` (peak RSS of this process).  ``--trace 1`` runs untraced
passes and then traced passes and reports the per-layer metrics of
``spans.pass_metrics`` for the fastest traced pass, plus the tracing
overhead.

Every invocation is checked: exit status 0, an all-passed ``validate``
summary, the documented CSV header and row count, and the same bytes as the
first pass.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The spans of a
traced run and the machine context are written to ``.bench_out/``.  See
``bench/NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 2  # the byte-identity check needs a second pass
# Set-up probes are spread over the run, between passes, so that a slow
# spell of the host does not hit all of them; they take about this share of
# the pass time, and at least MIN_SETUP_PROBES are made.
SETUP_SHARE = 0.25
MIN_SETUP_PROBES = 5
IMPORTTIME_PROBES = 3

# The dataset schema documented in README.md ("CSV schema").
CSV_HEADER = ("swept_var,value,e_nncc_analytic,e_conv_analytic,"
              "e_nncc_mc,e_nncc_mc_stderr,ee_nncc,ee_conv")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Invocation:
    label: str        # output file name
    argv: list[str]   # CLI arguments without --out
    rows: int | None  # CSV data rows expected; None for a validate report


def workload(name: str, seed: int) -> list[Invocation]:
    # validate keeps its fixed --seed 7: its |z| <= 3 checks fail on some
    # seeds by chance (see NOTES.md), so the benchmark seed is not passed on.
    if name == "validate_large":
        return [Invocation("report.txt", ["validate", "--seed", "7", "--trials",
                                          "1000000", "--workers", "2"], None)]
    if name == "validate_small":
        return [Invocation("report.txt", ["validate", "--seed", "7", "--trials",
                                          "10000", "--workers", "1"], None)]
    if name == "figures":
        return [Invocation(f"figure{n}.csv", ["figure", str(n), "--seed", str(seed)], rows)
                for n, rows in ((3, 26), (5, 25), (6, 25))]
    raise ValueError(f"unknown workload {name!r}")


# figures runs on demand; BENCHMARK.json leaves it out (see NOTES.md)
WORKLOADS = ("validate_large", "figures", "validate_small")


def check_output(inv: Invocation, data: bytes) -> str | None:
    """Why the output file breaks its contract, or None."""
    text = data.decode("utf-8", errors="replace")
    if inv.rows is None:
        m = re.search(r"^summary: (\d+)/(\d+) bounded checks passed$", text, re.M)
        if m is None:
            return "no summary line"
        if m.group(1) != m.group(2) or "\nfailed: " in text:
            return f"validate summary not all passed: {m.group(0)}"
        return None
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != CSV_HEADER:
        return "CSV header or final newline differs from the documented schema"
    rows = lines[1:-1]
    if len(rows) != inv.rows:
        return f"CSV has {len(rows)} rows, expected {inv.rows}"
    if any(len(r.split(",")) != 8 for r in rows):
        return "CSV row without 8 fields"
    return None


class Runner:
    """Runs passes of one workload and checks every invocation."""

    def __init__(self, cli, invocations: list[Invocation], out_dir: Path):
        self.cli = cli
        self.invocations = invocations
        self.out_dir = out_dir
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self) -> float:
        codes = []
        sink = io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        for inv in self.invocations:
            argv = inv.argv + ["--out", str(self.out_dir / inv.label)]
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    codes.append(self.cli.main(argv))
                except SystemExit as exc:  # argparse rejects the invocation
                    codes.append(exc.code)
                except Exception as exc:  # the interpreter would exit 1 on it
                    codes.append(f"1 ({type(exc).__name__}: {exc})")
        elapsed = time.perf_counter() - t0
        for inv, code in zip(self.invocations, codes):
            self.attempted += 1
            problem = None if code == 0 else f"exit status {code}"
            path = self.out_dir / inv.label
            if problem is None:
                data = path.read_bytes()
                problem = check_output(inv, data)
                digest = hashlib.sha256(data).hexdigest()
                first = self.digests.setdefault(inv.label, digest)
                if problem is None and digest != first:
                    problem = "bytes differ from the first pass with the same seed"
            if problem:
                self.failures.append(f"{inv.label}: {problem}")
            path.unlink(missing_ok=True)
        return elapsed

    def passes(self, seconds: float, after=None) -> list[float]:
        """Pass times for ``seconds``; ``after(times)`` runs after each pass, untimed."""
        times = []
        start = time.perf_counter()
        while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
            times.append(self.one_pass())
            if after:
                after(times)
        return times


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_probe() -> float:
    """Seconds from starting a fresh interpreter until nncc.cli is imported."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import nncc.cli"], cwd=ROOT,
                   env=subprocess_env(), check=True)
    return time.perf_counter() - t0


def _is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")


def scipy_import_probe() -> float:
    """Seconds that scipy takes of `import nncc.cli`, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nncc.cli"],
                          cwd=ROOT, env=subprocess_env(), check=True,
                          capture_output=True, text=True)
    total_us = 0
    enclosing: list[tuple[int, str]] = []
    # importtime prints children before their parent; reversed, each entry
    # follows its ancestors, so the stack holds the enclosing imports.
    for line in reversed(proc.stderr.splitlines()):
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if m is None:
            continue
        cumulative, depth, module = int(m.group(1)), len(m.group(2)), m.group(3)
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        if _is_scipy(module) and not any(_is_scipy(name) for _, name in enclosing):
            total_us += cumulative
        enclosing.append((depth, module))
    return total_us / 1e6


def machine_context() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def import_cli():
    sys.path.insert(0, str(SRC))
    import nncc
    import nncc.cli
    if not Path(nncc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nncc imported from {nncc.__file__}, not from {SRC}")
    return nncc.cli


def summarize(label: str, times: list[float]) -> str:
    return (f"{label} fastest {min(times):.6f} s over {len(times)} passes "
            f"(median {statistics.median(times):.6f}, slowest {max(times):.6f})")


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_frac", "_per_wall")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nncc" / "cli.py").is_file():
        print(f"error: no nncc sources under {SRC}", file=sys.stderr)
        return 1
    invocations = workload(args.workload, args.seed)
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        cli = import_cli()
        context = machine_context()
        runner = Runner(cli, invocations, run_dir)

        if not args.trace:
            probes = []

            def probe_between(times):
                if sum(probes) <= SETUP_SHARE * sum(times):
                    probes.append(setup_probe())

            times = runner.passes(args.seconds, probe_between)
            while len(probes) < MIN_SETUP_PROBES:
                probes.append(setup_probe())
            setup_s = statistics.median(probes)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (min(times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            print(summarize("wall_s", times))
            print(f"setup_s median {setup_s:.6f} s over {len(probes)} fresh interpreters")
        else:
            scipy_s = statistics.median(scipy_import_probe() for _ in range(IMPORTTIME_PROBES))
            plain = runner.passes(args.seconds / 2)
            tracer = spans.Tracer()
            per_pass = []
            restore = spans.install(tracer)
            try:
                traced = runner.passes(args.seconds / 2,
                                       lambda times: per_pass.append((times[-1], tracer.take())))
            finally:
                restore()
            # per-layer figures come from the fastest traced pass, as wall_s does
            fastest, fastest_spans = min(per_pass, key=lambda p: p[0])
            layer = spans.pass_metrics(fastest_spans, fastest)
            layer["cli.import_scipy_s"] = scipy_s
            layer["trace.wall_s"] = fastest
            layer["trace.overhead_s"] = fastest - min(plain)
            metrics = {k: (v, unit_of(k)) for k, v in sorted(layer.items())}
            print(summarize("wall_s untraced", plain))
            print(summarize("wall_s traced", traced))
            all_spans = [s for _, batch in per_pass for s in batch]
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            span_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "context": context,
                "pass_s": [t for t, _ in per_pass],
                "fields": ["id", "parent", "name", "thread", "start_s", "end_s",
                           "cpu_start_s", "cpu_end_s", "work"],
                "spans": [s.as_list(all_spans[0].start) for s in all_spans],
            }))
            print(f"spans written to {span_file.relative_to(ROOT)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("context " + json.dumps(context, sort_keys=True))
    for label, digest in sorted(runner.digests.items()):
        print(f"sha256 {digest}  {label}")
    for problem in runner.failures:
        print(f"FAILED {problem}")
    failed = len(runner.failures)
    print(f"failed_frac {failed / runner.attempted:.6g} ({failed}/{runner.attempted} invocations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
