"""Spans, timing wrappers and counting wrappers for the benchmark.

A :class:`Tracer` records one span per call: name, start, end, parent span
and op id.  Spans from the benchmark's own calls are recorded in every run
(a few per op).  In the traced run, :func:`install` additionally wraps every
public module-level function and public method of the workbench layers,
including the names other modules re-import, so each call into a layer opens
a span.  Self time is a span's duration minus the time covered by its child
spans; for synchronous code the children are disjoint, so that is the sum of
their durations.

Aggregates (count, total time, self time) cover every span.  Raw spans are
kept in memory up to a cap, so that a long traced run keeps a bounded
footprint, and are written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "core",
    "integration",
    "spectral",
    "reductions",
    "certificates",
    "degrees",
    "koopman",
    "catalog",
    "cli",
)

#: Spans under which descendant time and counts are also kept per name.
SCOPES = ("core.run_algorithm", "reductions.verify_reduction", "cli.main")

perf = time.perf_counter


class Tracer:
    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.dropped = 0
        self.stack: list[list] = []  # [id, name, start, child_time]
        self.next_id = 0
        self.op = -1
        self.last = 0.0  # duration of the span closed most recently
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.scope_depth: dict[str, int] = dict.fromkeys(SCOPES, 0)
        self.scoped_total: dict[tuple, float] = defaultdict(float)
        self.scoped_count: dict[tuple, int] = defaultdict(int)
        #: free-form accumulators: name -> [sum of values, sum of weights, samples]
        self.acc: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])

    def enter(self, name: str) -> None:
        self.next_id += 1
        if name in self.scope_depth:
            self.scope_depth[name] += 1
        self.stack.append([self.next_id, name, perf(), 0.0])

    def exit(self) -> float:
        end = perf()
        span_id, name, start, child = self.stack.pop()
        duration = self.last = end - start
        if self.stack:
            self.stack[-1][3] += duration
        self.count[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if name in self.scope_depth:
            self.scope_depth[name] -= 1
        for scope, depth in self.scope_depth.items():
            if depth:
                self.scoped_total[scope, name] += duration
                self.scoped_count[scope, name] += 1
        if len(self.spans) < self.keep:
            parent = self.stack[-1][0] if self.stack else 0
            self.spans.append((span_id, parent, self.op, name, start, end))
        else:
            self.dropped += 1
        return duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def add(self, name: str, value: float, weight: float = 1.0) -> None:
        cell = self.acc[name]
        cell[0] += value
        cell[1] += weight
        cell[2] += 1

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, op, name, start, end in self.spans:
                out.write(f'[{span_id},{parent},{op},"{name}",{start:.9f},{end:.9f}]\n')


def _timed(tracer: Tracer, name: str, fn, after=None):
    """Timing wrapper; ``after(tracer, args, result, duration)`` may replace the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
        if after is not None:
            result = after(tracer, args, result, duration)
        return result

    return wrapper


def _points(value):
    return value.points if hasattr(value, "points") else tuple(value)


def _pairs_bucket(pairs: int) -> str:
    for limit in (10**3, 10**4, 10**5, 10**6):
        if pairs <= limit:
            return f"le1e{len(str(limit)) - 1}"
    return "gt1e6"


def _after_hooks(package):
    core = importlib.import_module(f"{package}.core")

    def resolve(tracer, args, query, duration):
        # time the evaluation map the resolver hands back as well
        return core.Query(query.id, _timed(tracer, "core.Query.evaluate", query.evaluate))

    def run_algorithm(tracer, args, result, duration):
        tracer.add("core.trace_queries", len(result[1]))
        return result

    def hausdorff(tracer, args, result, duration):
        pairs = len(_points(args[0])) * len(_points(args[1]))
        tracer.add("koopman.hausdorff_pairs", pairs)
        tracer.add(f"koopman.hausdorff.ns_per_pair.{_pairs_bucket(pairs)}", duration * 1e9, pairs)
        return result

    return {
        "core.QueryFamily.resolve": resolve,
        "core.run_algorithm": run_algorithm,
        "koopman.hausdorff": hausdorff,
    }


def install(tracer: Tracer, package: str = "sci_workbench"):
    """Wrap the public functions and methods of every layer; return an undo callable."""
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    hooks = _after_hooks(package)
    undo: list[tuple] = []
    wrapped: dict = {}

    def patch(owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        undo.append((owner, attr, original))

    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrapped[obj] = _timed(tracer, name, obj, hooks.get(name))
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                for method, member in list(vars(obj).items()):
                    if method.startswith("_"):
                        continue
                    name = f"{layer}.{obj.__name__}.{method}"
                    if inspect.isfunction(member):
                        patch(obj, method, member, _timed(tracer, name, member, hooks.get(name)))
                    elif isinstance(member, (classmethod, staticmethod)):
                        inner = _timed(tracer, name, member.__func__, hooks.get(name))
                        patch(obj, method, member, type(member)(inner))

    # rebind every module-level name that refers to a wrapped function,
    # including re-imports such as cli's ``from .core import run_algorithm``
    namespaces = list(modules.values()) + [importlib.import_module(package)]
    for module in namespaces:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                patch(module, attr, obj, wrapped[obj])

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


class Counter:
    """Counts calls to the callables it wraps."""

    def __init__(self):
        self.calls = 0

    def wrap(self, fn):
        def counted(*args):
            self.calls += 1
            return fn(*args)

        return counted


def counted_tower(core, tower, counter: Counter):
    """The same tower, with every stage protocol counting its steps."""

    def stages(idx, _stage=tower.stage):
        alg = _stage(idx)
        return dataclasses.replace(alg, protocol=counter.wrap(alg.protocol))

    return core.Tower(tower.name, tower.height, stages)


def counted_plan(reductions, reduction, counter: Counter):
    """The same reduction, with its plan rule counting its calls."""
    plan = reduction.plan
    return dataclasses.replace(
        reduction, plan=reductions.QueryPlan(plan.name, counter.wrap(plan.rule))
    )
