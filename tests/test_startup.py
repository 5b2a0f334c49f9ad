"""What a fresh ``import nncc.cli`` loads, which nncc classes are dataclasses,
and a 2-worker run in a fresh process."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFERRED = ("concurrent.futures", "logging", "json")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_loads_no_pool_logging_or_json():
    """Only a 2+-worker run needs the pool (which loads logging), and only
    --config reads JSON; numpy alone loads none of them."""
    probe = f"import sys; import {{}}; print(*[m for m in {DEFERRED!r} if m in sys.modules])"
    for module in ("numpy", "nncc.cli"):
        done = _python("-c", probe.format(module))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [], f"import {module} loaded {done.stdout.split()}"


def test_only_geometry_and_experiment_spec_are_dataclasses():
    """Each ``@dataclass`` decoration costs start-up time; the two kept have a
    reason (``Geometry`` refuses bad distances at construction,
    ``ExperimentSpec`` holds mutable dict defaults).  Records without one are
    NamedTuples."""
    import nncc
    import nncc.cli  # noqa: F401  (loads every nncc module)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nncc"]
    classes = {obj for m in modules for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__.split(".")[0] == "nncc"}
    assert {c for c in classes if dataclasses.is_dataclass(c)} == {nncc.Geometry,
                                                                  nncc.ExperimentSpec}


def test_fresh_two_worker_validate_has_the_bytes_of_one_worker(tmp_path):
    """The pool's module is imported on the first 2-worker call, here in a
    process that has not loaded it."""
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"report{workers}.txt"
        done = _python("-m", "nncc.cli", "validate", "--seed", "7", "--trials", "10000",
                       "--workers", workers, "--out", str(out))
        assert done.returncode == 0, done.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
