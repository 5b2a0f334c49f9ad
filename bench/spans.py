"""In-memory span tracing of the nncc layers, installed from outside the package.

``install`` replaces every public function (and public classmethod) of the
traced modules with a wrapper that records one span per call: name, start,
end, parent span, thread, process CPU time at both ends, and a work count
taken from the call's arguments.  The wrapper is bound under every name that
refers to the function in any ``nncc`` module, so a function imported by name
elsewhere (``montecarlo`` binds ``sample_nn_geometries``) is traced there
too.  Nothing under ``src/`` changes; ``restore`` undoes the patch.

Spans opened in a worker thread with nothing open in that thread take the
innermost open span of the main thread as parent: the CLI only starts worker
threads from inside a main-thread call that waits for them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "experiments", "montecarlo", "distribution", "geometry", "powermodel")


def _array_digest(a) -> str:
    return hashlib.blake2b(memoryview(np.ascontiguousarray(a, dtype=float)),
                           digest_size=16).hexdigest()


def _batch_work(args: dict) -> dict:
    p = np.asarray(args["p_values"])
    return {"points": p.size, "node_evals": p.size * args["n_nodes"],
            "input": f"{_array_digest(p)} {args['quad']!r} {args['rho']!r}"}


# Work counts recorded at the layer boundary, from the bound call arguments.
WORK = {
    "geometry.sample_nn_geometries": lambda a: {"draws": a["n"]},
    "montecarlo.estimate_outage": lambda a: {"trials": a["n"]},
    "montecarlo.estimate_link_outage": lambda a: {"trials": a["n"]},
    "montecarlo.sample_power_distribution": lambda a: {"trials": a["n"]},
    "montecarlo.ks_distance": lambda a: {"points": len(a["samples"])},
    "distribution.cdf_reference_batch": _batch_work,
}


ESTIMATORS = ("montecarlo.estimate_outage", "montecarlo.estimate_link_outage",
              "montecarlo.sample_power_distribution")


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end",
                 "cpu_start", "cpu_end", "work")

    def as_list(self, t0: float) -> list:
        return [self.id, self.parent, self.name, self.thread,
                self.start - t0, self.end - t0, self.cpu_start, self.cpu_end,
                self.work]


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def take(self) -> list[Span]:
        """The spans recorded since the last call; call with no span open."""
        spans, self.spans = self.spans, []
        return spans

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        count = WORK.get(name)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span()
            if count:  # measured before the span opens, so it is charged to the caller
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = count(bound.arguments)
            else:
                span.work = None
            stack = self._stack()
            opener = stack or self._main_stack
            span.id = next(self._ids)
            span.parent = opener[-1].id if opener else 0
            span.name = name
            span.thread = threading.get_ident()
            span.end = span.cpu_end = None
            stack.append(span)
            self.spans.append(span)
            span.cpu_start = time.process_time()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.process_time()
                stack.pop()

        return traced


def install(tracer: Tracer):
    """Patch the traced layers; returns a callable that restores them."""
    modules = {m: importlib.import_module(f"nncc.{m}") for m in LAYERS}
    wrappers = {}
    class_patches = []
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, raw in vars(obj).items():
                    if isinstance(raw, classmethod) and not meth.startswith("_"):
                        wrapped = tracer.wrap(f"{short}.{attr}.{meth}", raw.__func__)
                        class_patches.append((obj, meth, raw))
                        setattr(obj, meth, classmethod(wrapped))

    rebound = []
    for name, mod in list(sys.modules.items()):
        if name != "nncc" and not name.startswith("nncc."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                rebound.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def restore():
        for mod, attr, obj in rebound:
            setattr(mod, attr, obj)
        for cls, meth, raw in class_patches:
            setattr(cls, meth, raw)

    return restore


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def pass_metrics(spans: list[Span], pass_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all values per pass)."""
    self_s = _self_times(spans)
    by_id = {s.id: s for s in spans}
    module = {s.id: s.name.split(".", 1)[0] for s in spans}

    def entries(s: Span) -> bool:  # a call into the span's layer from outside it
        parent = by_id.get(s.parent)
        return parent is None or module[parent.id] != module[s.id]

    def named(name):
        return [s for s in spans if s.name == name]

    def dur(ss):
        return sum(s.end - s.start for s in ss)

    def work(ss, key):
        return sum(s.work[key] for s in ss)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_s[s.id] for s in spans if module[s.id] == layer)

    pm = [s for s in spans if module[s.id] == "powermodel" and entries(s)]
    m["powermodel.calls"] = len(pm)
    m["powermodel.s"] = dur(pm)

    geo = named("geometry.sample_nn_geometries")
    m["geometry.sample_nn_geometries.s"] = dur(geo)
    m["geometry.sample_nn_geometries.draws"] = work(geo, "draws")

    for fn in ("estimate_outage", "estimate_link_outage"):
        ss = named(f"montecarlo.{fn}")
        m[f"montecarlo.{fn}.s"] = dur(ss)
        m[f"montecarlo.{fn}.trials"] = work(ss, "trials")
    ss = named("montecarlo.sample_power_distribution")
    m["montecarlo.sample_power_distribution.self_s"] = sum(self_s[s.id] for s in ss)
    m["montecarlo.sample_power_distribution.trials"] = work(ss, "trials")
    ss = named("montecarlo.ks_distance")
    m["montecarlo.ks_distance.self_s"] = sum(self_s[s.id] for s in ss)
    m["montecarlo.ks_distance.points"] = work(ss, "points")
    # the estimators that take --workers; ks_distance is left out because the
    # batch CDF under it runs multi-threaded BLAS whatever --workers says
    mc = [s for s in spans if s.name in ESTIMATORS]
    mc_wall = dur(mc)
    mc_cpu = sum(s.cpu_end - s.cpu_start for s in mc)
    m["montecarlo.cpu_per_wall"] = mc_cpu / mc_wall if mc_wall > 0 else 0.0

    ss = named("distribution.cdf_reference_batch")
    m["distribution.cdf_reference_batch.s"] = dur(ss)
    m["distribution.cdf_reference_batch.calls"] = len(ss)
    m["distribution.cdf_reference_batch.points"] = work(ss, "points")
    m["distribution.cdf_reference_batch.node_evals"] = work(ss, "node_evals")
    distinct = len({s.work["input"] for s in ss})
    m["distribution.cdf_reference_batch.unique_frac"] = distinct / len(ss) if ss else 0.0
    for fn in ("cdf_reference", "pdf_branch_form", "support_upper"):
        ss = named(f"distribution.{fn}")
        m[f"distribution.{fn}.calls"] = len(ss)
        m[f"distribution.{fn}.s"] = dur(ss)
    m["distribution.expected_power_quadrature.s"] = dur(named("distribution.expected_power_quadrature"))

    m["trace.accounted_frac"] = sum(self_s.values()) / pass_wall_s
    return m
