"""Per-layer spans, recorded from outside the program.

``Tracer.install`` wraps the public functions that make up each layer and
rebinds every name that refers to one of them in any ``torodef`` module, so
calls that stay inside one module (SNCC calling ``edge_signatures``) are
recorded too.  Public helpers outside the layers stay unwrapped, and their
time counts as their caller's self time.  A span is recorded only while an op
is running; spans stay in memory until ``write_jsonl``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("graph", "embedding", "generators", "solver", "iso", "constructions",
           "fileio", "cli")
# Every public function of these modules is in the layer named after the module.
WHOLE_MODULE_LAYERS = ("solver", "constructions")
LAYER_OF = {
    "embedding.trace_faces": "embedding.faces",
    "embedding.edge_signatures": "embedding.signatures",
    "embedding.shortest_noncontractible_cycle": "embedding.sncc",
    "embedding.cut_and_contract": "embedding.cut",
    "embedding.planarity_check": "embedding.planarity",
    "iso.are_isomorphic": "iso",
    "generators.classify_6regular": "generators.classify",
    "graph.verify_coloring": "graph.verify",
    "fileio.read_graph": "fileio.read",
    "fileio.read_rotation": "fileio.read",
    "fileio.read_certificate": "fileio.read",
    "fileio.write_graph": "fileio.write",
    "fileio.write_rotation": "fileio.write",
    "fileio.write_certificate": "fileio.write",
    "cli.main": "cli",
}
TIMED_LAYERS = ("embedding.sncc", "embedding.signatures", "embedding.faces", "embedding.cut",
                "embedding.planarity", "solver", "iso", "generators.classify",
                "constructions", "graph.verify", "fileio.read", "fileio.write", "cli")
COUNTED_LAYERS = ("embedding.sncc", "embedding.planarity", "solver", "iso",
                  "generators.classify", "graph.verify")

# Span fields, kept as lists while recording.
LAYER, NAME, START, END, PARENT, OP, RESULT = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None  # set by the caller around each op
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [layer, fn.__name__, time.perf_counter(), None,
                    stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                span[RESULT] = _summary(layer, args, out)
                return out
            finally:
                span[END] = time.perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        mods = [importlib.import_module("torodef")]
        mods += [importlib.import_module(f"torodef.{m}") for m in MODULES]
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                layer = LAYER_OF.get(f"{short}.{name}",
                                     short if short in WHOLE_MODULE_LAYERS else None)
                if layer is None:
                    continue
                wrapped = self._wrap(layer, fn)
                for target in mods:
                    for bound, obj in list(vars(target).items()):
                        if obj is fn:
                            self._saved.append((target, bound, fn))
                            setattr(target, bound, wrapped)

    def uninstall(self) -> None:
        for target, bound, fn in reversed(self._saved):
            setattr(target, bound, fn)
        self._saved.clear()

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME], "layer": s[LAYER],
                                    "start": s[START] - t0, "end": s[END] - t0,
                                    "parent": s[PARENT], "op": s[OP]},
                                   separators=(",", ":")) + "\n")


def _summary(layer: str, args, out):
    """The part of a call's result that the layer metrics count."""
    if layer == "solver":
        return (out.status, out.nodes)
    if layer == "iso":
        return out[0]
    if layer == "embedding.sncc":
        return hash(args[0].rot)
    return None


def layer_metrics(spans: list[list], timed_out: set[int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times cover every span.  Counts skip ops that hit their deadline, whose
    partial work depends on the machine's speed, so that they repeat exactly.
    A call is a span whose caller is in another layer.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    self_s: dict[str, float] = defaultdict(float)
    counted_self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, list[list]] = defaultdict(list)
    max_solver_call = 0.0
    for i, s in enumerate(spans):
        own = s[END] - s[START] - child_time[i]
        self_s[s[LAYER]] += own
        outer = s[PARENT] is None or spans[s[PARENT]][LAYER] != s[LAYER]
        if s[LAYER] == "solver" and outer:
            max_solver_call = max(max_solver_call, s[END] - s[START])
        if s[OP] in timed_out:
            continue
        counted_self_s[s[LAYER]] += own
        if outer:
            calls[s[LAYER]].append(s)

    out = {f"{layer}.self_s": self_s[layer] for layer in TIMED_LAYERS}
    out.update({f"{layer}.calls": len(calls[layer]) for layer in COUNTED_LAYERS})
    sncc = calls["embedding.sncc"]
    out["embedding.sncc.embeddings_per_call"] = (
        len({s[RESULT] for s in sncc}) / len(sncc) if sncc else 0.0)
    solver = [s[RESULT] for s in calls["solver"] if s[RESULT] is not None]
    nodes = sum(n for _, n in solver)
    out["solver.nodes"] = nodes
    out["solver.nodes_per_s"] = (nodes / counted_self_s["solver"]
                                 if counted_self_s["solver"] else 0.0)
    out["solver.max_call_s"] = max_solver_call
    for status in ("SAT", "UNSAT", "INDETERMINATE"):
        out[f"solver.{status.lower()}"] = sum(1 for st, _ in solver if st == status)
    iso = calls["iso"]
    out["iso.hit_ratio"] = (sum(1 for s in iso if s[RESULT]) / len(iso)) if iso else 0.0
    return out
