"""Span tracing around the public functions of each hyperee module.

The wrappers live here, not in the package: install() rebinds every public
function at each module attribute a caller looks it up through (for example
hyperee.estrada.trace_d and hyperee.traces.trace_d), and uninstall() puts
the originals back.  A function's layer is the module that defines it.
Spans are kept in memory and written out by the caller at the end.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field

LAYERS = {
    "hyperee.hypergraph": "hypergraph",
    "hyperee.tensor": "tensor",
    "hyperee.traces": "traces",
    "hyperee.spectrum": "spectrum",
    "hyperee._poly": "poly",
    "hyperee.estrada": "estrada",
    "hyperee.cli": "cli",
}


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    args: tuple = ()
    result: object = None
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(layer, fn.__name__, parent, args=args)
            idx = len(spans)
            spans.append(span)
            if parent is not None:
                spans[parent].children.append(idx)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.end - span.start

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in ("hyperee", *LAYERS)]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                layer = LAYERS.get(fn.__module__)
                if layer is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, layer)
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def records(self) -> list[dict]:
        return [
            {"id": i, "layer": s.layer, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, "self_s": s.self_s,
             "error": s.error}
            for i, s in enumerate(self.spans)
        ]


def cycle_cache():
    """The trace engine's Eulerian-count LRU cache, if the engine has one."""
    fn = getattr(importlib.import_module("hyperee.traces"), "_cycle_classes", None)
    return fn if hasattr(fn, "cache_info") else None


def layer_metrics(tr: Tracer, wall_s: float, cache_delta: tuple[int, int]) -> dict:
    """Per-layer metrics of one traced round (see bench/NOTES.md)."""
    ok = [s for s in tr.spans if s.error is None]
    out: dict[str, float] = {}
    for layer in LAYERS.values():
        out[f"{layer}.self_s"] = sum(s.self_s for s in tr.spans if s.layer == layer)

    def total(*names: str) -> float:
        # outermost spans only, so nested calls are not counted twice
        return sum(s.duration for s in tr.named(*names)
                   if s.parent is None or tr.spans[s.parent].name not in names)

    parse = tr.named("parse_hypergraph")
    out["hypergraph.parse_s"] = total("parse_hypergraph")
    edges = sum(s.result.q for s in parse if s.error is None)
    out["hypergraph.parse_us_per_edge"] = (
        out["hypergraph.parse_s"] / edges * 1e6 if edges else 0.0)

    radius = [s for s in ok if s.name == "spectral_radius"]
    out["tensor.spectral_radius_s"] = total("spectral_radius")
    out["tensor.power_iterations"] = sum(s.result.iterations for s in radius)
    out["tensor.degree_bound_fallbacks"] = sum(
        s.result.method == "degree-bound" for s in radius)

    traced_d = tr.named("trace_d")
    out["traces.trace_d_s"] = total("trace_d")
    out["traces.orders"] = len(traced_d)
    out["traces.max_order"] = max(
        (s.args[1] for s in traced_d if len(s.args) > 1), default=0)
    hits, misses = cache_delta
    out["traces.det_count"] = misses
    out["traces.cycle_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    out["spectrum.charpoly_s"] = total("charpoly_from_traces")
    out["spectrum.roots_s"] = total("roots")
    out["spectrum.residual_max"] = max(
        (s.result.residual for s in ok if s.name == "spectrum"), default=0.0)
    out["poly.squarefree_s"] = total("squarefree_decomposition")
    out["poly.aberth_s"] = total("aberth_roots")

    series = [s for s in ok if s.name == "ee_trace_series"]
    out["estrada.series_self_s"] = sum(s.self_s for s in tr.named("ee_trace_series"))
    out["estrada.series_orders"] = sum(s.result.terms_used for s in series)
    out["estrada.exp_sum_s"] = total("ee_from_spectrum", "ee_hyperstar", "ee_symmetric")
    out["estrada.bounds_s"] = total("bounds_refined", "bounds_basic")
    answers = [s for s in ok if s.name == "estrada_index"]
    for route, method in (("star", "hyperstar-closed-form"),
                          ("spectrum", "spectrum-sum"),
                          ("series", "trace-series")):
        out[f"estrada.route_{route}"] = sum(s.result.method == method for s in answers)
    out["estrada.spectrum_fallbacks"] = sum(
        any(tr.spans[c].name == "spectrum" and tr.spans[c].error == "FeasibilityError"
            for c in s.children)
        for s in answers)

    top = sum(s.duration for s in tr.spans if s.parent is None)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - top
    return out
