"""Spans around tritile's layers, recorded from outside the program.

The tracer replaces public functions at the module attributes through which
the layers call each other, records one span per call (name, start, end,
parent, operation) and keeps the spans in memory until the run ends.  A
target that a later change removed is reported as absent, never an error.
The hot inner predicate ``supports_triangle`` is deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import time
from math import comb

# (module, attribute, span name).  ``lattice`` and ``rainbow`` import
# ``perfect_tiling`` and ``enumerate_copies`` at call time, so wrapping them
# in ``exact`` and ``patterns`` catches those calls too.
TARGETS = (
    ("tritile.patterns", "supporting_sets", "patterns.supporting_sets"),
    ("tritile.exact", "supporting_sets", "patterns.supporting_sets"),
    ("tritile.fractional", "supporting_sets", "patterns.supporting_sets"),
    ("tritile.lattice", "supporting_sets", "patterns.supporting_sets"),
    ("tritile.patterns", "enumerate_copies", "patterns.enumerate_copies"),
    ("tritile.fractional", "perfect_fractional_tiling", "fractional.perfect_fractional_tiling"),
    ("tritile.exact", "perfect_fractional_tiling", "fractional.perfect_fractional_tiling"),
    ("tritile.fractional", "packing_lp_value", "fractional.packing_lp_value"),
    ("tritile.exact", "packing_lp_value", "fractional.packing_lp_value"),
    ("tritile.fractional", "min_max_pair_weight", "fractional.min_max_pair_weight"),
    ("tritile.exact", "perfect_tiling", "exact.perfect_tiling"),
    ("tritile.exact", "max_tiling", "exact.max_tiling"),
    ("tritile.core", "induced", "core.induced"),
    ("tritile.lattice", "induced", "core.induced"),
    ("tritile.lattice", "reachable", "lattice.reachable"),
    ("tritile.lattice", "has_transferral", "lattice.has_transferral"),
    ("tritile.lattice", "robust_vectors", "lattice.robust_vectors"),
    ("tritile.lattice", "find_absorber", "lattice.find_absorber"),
    ("tritile.lattice", "perfectly_tilable", "lattice.perfectly_tilable"),
    ("tritile.rainbow", "rainbow_perfect_tiling", "rainbow.rainbow_perfect_tiling"),
)

MODULES = ("patterns", "fractional", "exact", "core", "lattice", "rainbow")
# Layers reported with calls and self time; the rest with calls and
# inclusive time, because their spans have no layer spans inside them.
SELF_TIMED = (
    "fractional.perfect_fractional_tiling",
    "fractional.packing_lp_value",
    "fractional.min_max_pair_weight",
    "exact.perfect_tiling",
    "exact.max_tiling",
    "lattice.reachable",
    "lattice.has_transferral",
    "lattice.robust_vectors",
    "lattice.find_absorber",
    "rainbow.rainbow_perfect_tiling",
)
INCLUSIVE = ("patterns.supporting_sets", "patterns.enumerate_copies", "core.induced")
LP_LAYERS = (
    "fractional.perfect_fractional_tiling",
    "fractional.packing_lp_value",
    "fractional.min_max_pair_weight",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "error")

    def __init__(self, name, start, end=None, parent=None, op=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.info = None
        self.error = None

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "info": self.info,
                "error": self.error}


def _describe(name, args, kwargs, result):
    """Counts taken where the work happens, from arguments and results."""
    if name == "patterns.supporting_sets":
        H = args[0]
        restrict = kwargs.get("restrict", args[1] if len(args) > 1 else None)
        size = H.n if restrict is None else len(set(restrict))
        return {"sets": len(result), "candidates": comb(size, 2 * H.k - 1)}
    if name in ("fractional.perfect_fractional_tiling", "fractional.packing_lp_value"):
        sets = kwargs.get("sets")
        return {"columns": None if sets is None else len(sets),
                "certificate": type(result).__name__ == "FarkasCertificate"}
    if name == "lattice.perfectly_tilable":
        return {"yes": bool(result)}
    return None


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.budget_exceeded = {m: 0 for m in MODULES}
        self.op = None
        self._stack: list[int] = []
        self._saved = []

    def install(self):
        wrappers = {}
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            key = (id(fn), name)
            if key not in wrappers:
                wrappers[key] = self._wrap(name, fn)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrappers[key])

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else None, op=self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = clock()
                span.error = type(exc).__name__
                if span.error == "BudgetExceeded" and not getattr(exc, "_perfbench_charged", False):
                    # Charged once, to the innermost layer it escaped from.
                    exc._perfbench_charged = True
                    self.budget_exceeded[name.split(".")[0]] += 1
                raise
            finally:
                stack.pop()
            span.end = clock()
            try:
                span.info = _describe(name, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                span.info = None  # the signature changed; keep the timing
            return result

        return wrapper


def _children(spans):
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(idx)
    return children


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = _children(spans)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for c in sorted(children.get(idx, ()), key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def _outermost(spans, idx):
    """False when a span of the same name encloses this one (recursion)."""
    name = spans[idx].name
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def layer_metrics(tracer, hosts):
    """Per-layer metrics from the recorded spans; ``hosts`` is the base of
    the per-host ratio."""
    spans = tracer.spans
    selfs = self_times(spans)
    children = _children(spans)
    calls = {}
    inclusive = {}
    self_s = {}
    for idx, span in enumerate(spans):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + selfs[idx]
        if _outermost(spans, idx):
            inclusive[span.name] = inclusive.get(span.name, 0.0) + (span.end - span.start)

    def info_sum(name, field):
        return sum((s.info or {}).get(field) or 0 for s in spans if s.name == name)

    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in INCLUSIVE:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.s"] = (inclusive.get(name, 0.0), "s")

    ss = "patterns.supporting_sets"
    metrics[f"{ss}.sets"] = (info_sum(ss, "sets"), "count")
    metrics[f"{ss}.candidates"] = (info_sum(ss, "candidates"), "count")
    metrics[f"{ss}.calls_per_host"] = (calls.get(ss, 0) / hosts, "calls/host")

    # Set columns per LP: the ``sets`` handed in, or else the sets that the
    # LP enumerated itself (its direct supporting_sets children).
    columns = 0
    for idx, span in enumerate(spans):
        if span.name not in LP_LAYERS:
            continue
        given = (span.info or {}).get("columns")
        if given is None:
            given = sum((spans[c].info or {}).get("sets") or 0
                        for c in children.get(idx, ()) if spans[c].name == ss)
        columns += given
    metrics["fractional.columns"] = (columns, "count")
    metrics["fractional.certificates"] = (info_sum("fractional.perfect_fractional_tiling",
                                                   "certificate"), "count")

    pt = "lattice.perfectly_tilable"
    pt_calls = calls.get(pt, 0)
    metrics[f"{pt}.calls"] = (pt_calls, "count")
    metrics[f"{pt}.yes_frac"] = (info_sum(pt, "yes") / pt_calls if pt_calls else 0.0, "ratio")

    for module in MODULES:
        metrics[f"{module}.budget_exceeded"] = (tracer.budget_exceeded[module], "count")
    return metrics
