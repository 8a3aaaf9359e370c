"""Spans around the public functions of magictrap's layers, from outside.

The program is not changed: ``Tracer.install`` replaces each public function
with a timing wrapper in every ``magictrap`` module that holds it (the
defining module, ``magictrap.cli`` after ``from .x import f``, and the
package namespace), and ``Tracer.restore`` puts the originals back. Spans
stay in memory; ``layer_metrics`` turns them into the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import threading
import time

LAYERS = ("atomdata", "angular", "polarizability", "fieldtrap", "clockspec", "cavityqed")
CLI_FUNCTIONS = ("run", "build_parser", "emit", "emit_magic_points")


class Span:
    __slots__ = ("name", "parent", "task", "start", "end", "tags")

    def __init__(self, name, parent, task):
        self.name, self.parent, self.task = name, parent, task
        self.start = self.end = 0.0
        self.tags = None


def _output_bytes(args):
    return {"bytes": os.path.getsize(args["path"])}


# Extra facts a span records from its arguments and result, after it ends.
TAGGERS = {
    "cli.run": lambda args, result: {"code": result},
    "cli.emit": lambda args, result: _output_bytes(args),
    "cli.emit_magic_points": lambda args, result: _output_bytes(args),
    "cavityqed.steady_state": lambda args, result: {"n_max": args["sys"].n_max},
    "polarizability.find_magic": lambda args, result: {
        "roots": len(result), "species": args["species"].name,
        "states": (args["state1"], args["state2"]), "search": tuple(args["search"]),
        "sublevel": args.get("m2") is not None},
    "polarizability.scan_delta_alpha": lambda args, result: {
        "points": len(result[0]), "requested": args.get("points", 200),
        "jobs": args.get("jobs", 1)},
}


def targets():
    """(span name, function) for every wrapped function."""
    for layer in LAYERS:
        mod = importlib.import_module(f"magictrap.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                yield f"{layer}.{attr}", obj
    cli = importlib.import_module("magictrap.cli")
    for attr in CLI_FUNCTIONS:
        yield f"cli.{attr}", getattr(cli, attr)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task = None                  # id of the task now running
        self._main = []                   # span stack of the thread running tasks
        self._local = threading.local()
        self._patched = []                # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tagger = TAGGERS.get(name)
        signature = inspect.signature(fn) if tagger else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's first span hangs under the task thread's open span
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else None)
            span = Span(name, parent, tracer.task)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if tagger:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.tags = tagger(bound.arguments, result)
            return result

        traced.__traced__ = fn
        return traced

    def root(self, name, task):
        """Open a span on the task thread that the task's calls hang under."""
        self.task = task
        span = Span(name, None, task)
        self._main.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._main.pop()
        self.spans.append(span)

    def install(self):
        self._local.stack = self._main
        wrappers = {fn: self._wrap(name, fn) for name, fn in targets()}
        for modname, mod in list(sys.modules.items()):
            if modname != "magictrap" and not modname.startswith("magictrap."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def restore(self):
        """Put every original back, and check that no wrapper is left behind."""
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        left = [f"{modname}.{attr}" for modname, mod in list(sys.modules.items())
                if modname == "magictrap" or modname.startswith("magictrap.")
                for attr, obj in vars(mod).items()
                if inspect.isfunction(obj) and hasattr(obj, "__traced__")]
        if left:
            raise RuntimeError(f"traced wrappers left installed: {left}")


def _union(intervals) -> float:
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans) -> tuple[dict, float]:
    """Self time of each span (duration minus the union of its children),
    and the time children of one parent spent running concurrently."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    own, overlap = {}, 0.0
    for s in spans:
        kids = children.get(id(s), [])
        covered = _union((max(k.start, s.start), min(k.end, s.end)) for k in kids)
        own[id(s)] = (s.end - s.start) - covered
        overlap += sum(k.end - k.start for k in kids) - covered
    return own, overlap


def _pct(values, q):
    """q-th percentile (0-100) by linear interpolation; 0.0 with no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, truncation_warnings: int) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit, samples)."""
    own, _ = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(*names):
        return sum(own[id(s)] for n in names for s in by_name.get(n, []))

    def module_self_s(prefix):
        return sum(own[id(s)] for s in spans if s.name.startswith(prefix + "."))

    def tag_sum(name, key):
        return sum(s.tags[key] for s in by_name.get(name, []))

    emits = ("cli.emit", "cli.emit_magic_points")
    emit_bytes = sum(tag_sum(n, "bytes") for n in emits)
    emit_s = self_s(*emits)
    scan_points = tag_sum("polarizability.scan_delta_alpha", "points")
    scan_s = self_s("polarizability.scan_delta_alpha")
    m = {
        "cli.run.calls": (calls("cli.run"), "count"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "cli.run.failures": (sum(s.tags["code"] != 0 for s in by_name.get("cli.run", [])),
                             "count"),
        "cli.build_parser.self_s": (self_s("cli.build_parser"), "s"),
        "cli.emit.self_s": (emit_s, "s"),
        "cli.emit.bytes": (emit_bytes, "bytes"),
        "cli.emit.mb_per_s": (emit_bytes / 1e6 / emit_s if emit_s else 0.0, "MB/s"),
        "atomdata.load_species.calls": (calls("atomdata.load_species"), "count"),
        "atomdata.load_species.self_s": (self_s("atomdata.load_species"), "s"),
        "polarizability.find_magic.calls": (calls("polarizability.find_magic"), "count"),
        "polarizability.find_magic.self_s": (self_s("polarizability.find_magic"), "s"),
        "polarizability.find_magic.roots": (tag_sum("polarizability.find_magic", "roots"),
                                            "count"),
        "polarizability.scan_delta_alpha.self_s": (scan_s, "s"),
        "polarizability.scan_delta_alpha.points": (scan_points, "count"),
        "polarizability.scan_delta_alpha.points_per_s": (
            scan_points / scan_s if scan_s else 0.0, "1/s"),
        "polarizability.alpha_scalar.self_s": (self_s("polarizability.alpha_scalar"), "s"),
        "angular.wigner_6j.calls": (calls("angular.wigner_6j"), "count"),
        "fieldtrap.self_s": (module_self_s("fieldtrap"), "s"),
        "clockspec.self_s": (module_self_s("clockspec"), "s"),
        "cavityqed.steady_state.calls": (calls("cavityqed.steady_state"), "count"),
        "cavityqed.steady_state.self_s": (self_s("cavityqed.steady_state"), "s"),
        "cavityqed.vacuum_rabi_spectrum.self_s": (
            self_s("cavityqed.vacuum_rabi_spectrum"), "s"),
        "cavityqed.truncation_warnings": (truncation_warnings, "count"),
    }
    samples = {k: None for k in m}
    # Tail percentile: the highest with ten samples beyond it in a cavity-spectra
    # pass (300 solves at n_max 5, 102 at 8); the 92 at n_max 20 allow none.
    for n_max, tail in ((5, 95), (8, 90), (20, None)):
        ms = [1e3 * (s.end - s.start) for s in by_name.get("cavityqed.steady_state", [])
              if s.tags["n_max"] == n_max]
        key = f"cavityqed.steady_state.n{n_max}"
        for q in (50, tail) if tail else (50,):
            m[f"{key}.p{q}_ms"] = (_pct(ms, q), "ms")
            samples[f"{key}.p{q}_ms"] = len(ms)
    return {k: (v, unit, samples[k]) for k, (v, unit) in m.items()}
