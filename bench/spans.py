"""Spans around calls into icrt_lab, recorded from outside the package.

`patched` rebinds every public function of the traced layers, in every
``icrt_lab`` module namespace that holds it, to a wrapper that records one
`Span` per call, and restores the originals on exit.  No program source is
touched.  `layer_table` turns one pass's spans into per-layer numbers:
inclusive busy time and call count per function, and self time per layer
(span time minus the union of its child spans, whatever their layer).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

PACKAGE = "icrt_lab"
LAYERS = ("paths", "reflect", "ptree", "icrt", "stats", "verify")


@dataclass(slots=True)
class Span:
    """One call into a traced function; times are `time.perf_counter` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int  # id of the enclosing span, -1 for a root span
    run: int
    exc: str | None = None  # type of an exception that escaped the call
    size: int = 0  # vertices, for the functions listed in SIZES

    def to_dict(self) -> dict:
        return asdict(self)


def _depth_tree_size(args, kwargs) -> int:
    p = args[0] if args else kwargs["p"]
    return int(p.n)


# Work measures recorded with the span, for per-unit metrics.
SIZES = {"ptree.depth_tree": _depth_tree_size}


class Recorder:
    """Keeps the spans of one run in memory; `wrap` makes traced callables."""

    def __init__(self, run: int = 0):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, run = self.spans, self._stack, self.run
        clock = time.perf_counter
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, clock(), 0.0,
                        stack[-1] if stack else -1, run,
                        size=size_of(args, kwargs) if size_of else 0)
            spans.append(span)
            stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                span.exc = type(e).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced


def public_functions(module) -> dict:
    """Functions defined in `module` itself whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextmanager
def patched(recorder: Recorder):
    """Trace every public function of LAYERS while the block runs."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, recorder.wrap(f"{layer}.{name}", fn))
    saved = []
    try:
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        yield recorder
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            parent = by_id[s.parent]
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    return {s.id: (s.end - s.start) - union_length(children[s.id]) for s in spans}


def layer_table(spans, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass that lasted `wall_s` seconds.

    For every traced function ``<layer>.<fn>``: ``.s`` (union of its span
    intervals, so recursion is not counted twice), ``.calls`` and
    ``.raised``.  For every layer: ``self_s``.  Plus the derived
    ``ptree.depth_tree.us_per_vertex``, ``icrt.spanning_subtree.accept_ratio``
    (calls that returned over calls made; 0 when there were none) and
    ``trace.coverage`` (root-span time over `wall_s`).
    """
    selfs = self_times(spans)
    intervals = defaultdict(list)
    table: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    raised = defaultdict(int)
    sizes = defaultdict(int)
    for s in spans:
        intervals[s.name].append((s.start, s.end))
        table[s.name.split(".", 1)[0] + ".self_s"] += selfs[s.id]
        sizes[s.name] += s.size
        if s.exc is not None:
            raised[s.name] += 1
    for name, ivs in intervals.items():
        table[f"{name}.s"] = union_length(ivs)
        table[f"{name}.calls"] = len(ivs)
        table[f"{name}.raised"] = raised[name]
    dt = "ptree.depth_tree"
    table[f"{dt}.us_per_vertex"] = (table[f"{dt}.s"] * 1e6 / sizes[dt]) if sizes[dt] else 0.0
    sp = "icrt.spanning_subtree"
    calls = table.get(f"{sp}.calls", 0)
    table[f"{sp}.accept_ratio"] = (calls - raised[sp]) / calls if calls else 0.0
    roots = [(s.start, s.end) for s in spans if s.parent == -1]
    table["trace.coverage"] = union_length(roots) / wall_s if wall_s > 0 else 0.0
    return table
