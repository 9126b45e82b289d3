"""In-memory spans around calls into pathsum's layers, for the traced run.

The tracer wraps the public functions of each pathsum module, the
constructors' validation of the core value objects and the ensemble class
constructors, by rebinding the names in every pathsum namespace that holds
them. Nothing in the package changes; the untraced run installs nothing.
A call from one wrapped function to another nests its span under the
caller's, so a layer's self time is its spans' time minus their children's.

Spans are only recorded inside an operation (``begin_op`` .. ``end_op``),
so checker work between operations never shows up as layer time.
"""

from __future__ import annotations

import gzip
import json
import types
from time import perf_counter_ns

import pathsum
from pathsum import cli, combinatorics, core, ensemble, kernel, stats

LAYER_MODULES = {
    "core": core,
    "combinatorics": combinatorics,
    "kernel": kernel,
    "stats": stats,
    "ensemble": ensemble,
    "cli": cli,
}

SMALL_B = 1e-3  # the direct series needs more than ~80 terms below this b


def _b_route(args, kwargs, result):
    b = args[0] if args else kwargs.get("b")
    return "small_b" if b < SMALL_B else "large_b"


def _count_route(args, kwargs, result):
    return None if result is None else ("exact" if result.exact is not None else "lgamma")


def _const(route):
    return lambda args, kwargs, result: route


# function name -> (route of the call, work it did)
ROUTES = {
    "kernel_sum_1d": _b_route,
    "kernel_sum_2d": _b_route,
    "threshold_scan": _const("scan"),
    "propagator_closed": _const("continuum"),
    "propagator_normalization": _const("continuum"),
    "heat_residual": _const("continuum"),
    "action_1d": _const("continuum"),
    "probability_1d": _const("table_1d"),
    "probability_2d": _const("table_2d"),
    "multiplicity_1d": _count_route,
    "multiplicity_2d_full": _count_route,
    "multiplicity_2d_rotated": _count_route,
    "multiplicity_3d": _count_route,
    "minimum_distance_count": _count_route,
    "count_paths_by_flips": _const("oracle"),
    "enumerate_paths": _const("oracle"),
    "build_parser": _const("parser"),
    "cmd_validate": _const("validate"),
}
WORK = {
    "kernel_sum_1d": lambda r: r.terms_used,
    "kernel_sum_2d": lambda r: r.terms_used,
    "probability_1d": lambda r: len(r.entries),
    "probability_2d": lambda r: len(r.entries),
    "enumerate_paths": len,
}

# span fields
NAME, LAYER, START, END, PARENT, OP, ERROR, ROUTE, WORK_DONE = range(9)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = None
        self._undo: list = []

    # ------------------------------------------------------------ recording

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self.stack.append(len(self.spans))
        self.spans.append(["op", "bench", perf_counter_ns(), None, -1, op_id, None, None, 0])

    def end_op(self) -> None:
        span = self.spans[self.stack.pop()]
        span[END] = perf_counter_ns()
        self.op_id = None

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self.stack
        route_of = ROUTES.get(name.rsplit(".", 1)[-1])
        work_of = WORK.get(name)

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, layer, 0, 0, stack[-1], self.op_id, None, None, 0]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter_ns()
                stack.pop()
                span[ERROR] = type(exc).__name__
                if route_of is not None:
                    span[ROUTE] = route_of(args, kwargs, None)
                raise
            span[END] = perf_counter_ns()
            stack.pop()
            if route_of is not None:
                span[ROUTE] = route_of(args, kwargs, result)
            if work_of is not None:
                span[WORK_DONE] = work_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        namespaces = [pathsum, *LAYER_MODULES.values()]
        wrapped = {}
        for layer, module in LAYER_MODULES.items():
            if layer == "core":
                continue  # core counts only constructor validation, below
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[id(obj)] = (obj, self._wrap(layer, attr, obj))
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((namespace, attr, obj))
                    setattr(namespace, attr, hit[1])
        for cls in (core.PathClass1D, core.PathClassND, core.PhysicalParams):
            original = cls.__dict__["__post_init__"]
            self._undo.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap("core", cls.__name__, original)
        for cls in (ensemble.SpinEnsemble1D, ensemble.SpinEnsemble2D):
            original = cls.__dict__["from_path_class"]
            self._undo.append((cls, "from_path_class", original))
            cls.from_path_class = classmethod(self._wrap("ensemble", f"{cls.__name__}.from_path_class", original.__func__))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------ output

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def write(path: str, spans: list) -> None:
        """One JSON object per span; parent is the index of the parent's line."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            for s in spans:
                record = {"name": s[NAME], "layer": s[LAYER], "start_ns": s[START], "end_ns": s[END],
                          "parent": s[PARENT], "op": s[OP]}
                if s[ERROR]:
                    record["error"] = s[ERROR]
                if s[ROUTE]:
                    record["route"] = s[ROUTE]
                if s[WORK_DONE]:
                    record["work"] = s[WORK_DONE]
                handle.write(json.dumps(record) + "\n")


def layer_totals(spans: list) -> dict:
    """Per-layer self time, entries, routes and work counters of one pass.

    Self time is a span's duration minus its children's. ``calls`` counts
    entries into a layer (spans whose parent is in another layer). A route's
    time is inclusive, taken from its outermost span only.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for idx, s in enumerate(spans):
        layer = s[LAYER]
        if layer == "bench":
            continue
        duration = s[END] - s[START]
        add(f"{layer}.self_ns", duration - child[idx])
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if parent is None or parent[LAYER] != layer:
            add(f"{layer}.calls", 1)
        route = s[ROUTE]
        if route:
            outer, up = True, s[PARENT]
            while up >= 0:
                if spans[up][ROUTE] == route:
                    outer = False
                    break
                up = spans[up][PARENT]
            if outer:
                add(f"{layer}.{route}.ns", duration)
            if route == "small_b":
                add("kernel.small_b.terms", s[WORK_DONE])
        if s[NAME] in ("kernel_sum_1d", "kernel_sum_2d"):
            add("kernel.terms", s[WORK_DONE])
            if s[ERROR] == "SeriesCapError":
                add("kernel.cap_hits", 1)
        elif s[NAME] in ("probability_1d", "probability_2d"):
            add("stats.classes", s[WORK_DONE])
        elif s[NAME] == "enumerate_paths":
            add("combinatorics.walks", s[WORK_DONE])
    return out
