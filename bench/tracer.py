"""Span recording for the traced benchmark run.

A span is (id, parent id, name, start, end, result count).  Spans are kept in
memory and written out when the run ends.  They come from two places, both in
the benchmark's own files:

* ``Tracer.span(name)`` around the benchmark's own operations;
* wrappers that ``Tracer.install`` binds, for the duration of a traced pass, in
  place of each layer module's public functions (and of the ``_<prop>_set`` /
  ``_<prop>_span`` oracle halves of each public ``is_<prop>`` check), in every
  ``gradeforge`` module that refers to them.  ``Tracer.uninstall`` restores the
  original bindings.  No source file is touched, and untraced passes run the
  unwrapped functions.
"""

from __future__ import annotations

import gzip
import json
import re
import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("magma", "category", "algebra", "counting", "io")
_ORACLE_HALF = re.compile(r"^_([a-z]+)_(set|span)$")

ID, PARENT, NAME, START, END, RESULTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.wrapped: set = set()

    @contextmanager
    def span(self, name: str):
        stack = self._stack
        rec = [len(self.spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
        self.spans.append(rec)
        stack.append(rec[ID])
        rec[START] = perf_counter()
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            stack.pop()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if type(result) is list:
                rec[RESULTS] = len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package: str = "gradeforge") -> None:
        """Bind a span-recording wrapper in place of each traced function."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            public = {n for n in vars(module) if not n.startswith("_")}
            for name, obj in vars(module).items():
                if not isinstance(obj, types.FunctionType) or obj.__module__ != module.__name__:
                    continue
                half = _ORACLE_HALF.match(name)
                if name in public or (half and f"is_{half.group(1)}" in public):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                    self.wrapped.add(f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec, separators=(",", ":")) + "\n")


def summarize(spans: list, first: int = 0, last: int | None = None) -> dict:
    """Aggregate the spans in ``spans[first:last]`` (one traced pass or set-up).

    ``by_name`` gives, per span name: ``s`` the inclusive time of its outermost
    spans (a span nested in one of the same name is not counted twice),
    ``calls``, ``results`` (summed list lengths) and ``self_s`` (duration minus
    the time its direct child spans cover).  ``layer_self_s`` sums self times
    per layer, the name's prefix before the first dot.  ``parents`` gives the
    inclusive time per (parent name, name) pair.
    """
    window = spans[first:last]
    child_time = defaultdict(float)
    for rec in window:
        if rec[PARENT] >= first:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    by_name = {}
    layer_self = defaultdict(float)
    parents = defaultdict(float)
    for rec in window:
        name = rec[NAME]
        dur = rec[END] - rec[START]
        own = dur - child_time.get(rec[ID], 0.0)
        entry = by_name.setdefault(name, {"s": 0.0, "calls": 0, "results": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        if rec[RESULTS] is not None:
            entry["results"] += rec[RESULTS]
        if not _has_ancestor_named(spans, rec, name, first):
            entry["s"] += dur
        layer_self[name.split(".", 1)[0]] += own
        parent = rec[PARENT]
        parents[(spans[parent][NAME] if parent >= first else "", name)] += dur
    return {"by_name": by_name, "layer_self_s": dict(layer_self), "parents": dict(parents)}


def merge(a: dict, b: dict) -> dict:
    """Sum two summaries, e.g. set-up and one pass."""
    by_name = {}
    for summary in (a, b):
        for name, entry in summary["by_name"].items():
            into = by_name.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
    out = {"by_name": by_name}
    for key in ("layer_self_s", "parents"):
        total = defaultdict(float)
        for summary in (a, b):
            for k, v in summary[key].items():
                total[k] += v
        out[key] = dict(total)
    return out


def _has_ancestor_named(spans, rec, name, first):
    parent = rec[PARENT]
    while parent >= first:
        up = spans[parent]
        if up[NAME] == name:
            return True
        parent = up[PARENT]
    return False
