"""Span tracing of confscreen's layers, applied from outside the package.

``Tracer.installed()`` replaces every public function of each layer module
(and the two private solver helpers of ``nuisance``) with a wrapper that
records a span, in every confscreen module namespace that binds it, and
restores the originals on exit.  A span is ``(command, span_id, parent_id,
name, start, end)``; all spans of one command share ``command``.  Spans stay
in memory until ``write`` is called at the end of a run.

A layer's self time is the total duration of its spans minus the part of
each span covered by its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("data", "nuisance", "estimators", "influence", "ranking", "simulation", "cli")

# Private helpers traced as their own spans: the propensity IRLS solver and the
# least-squares solver, so that fit time can be split by nuisance part.
PRIVATE_SPANS = {"nuisance": ("_fit_logistic", "_solve_lstsq")}


def _summarize_estimate(est) -> dict:
    warnings = est.diagnostics.get("warnings", [])
    return {
        "kind": est.estimator_kind,
        "constant": bool(est.diagnostics.get("constant")),
        "iterations": int(est.diagnostics.get("iterations", 0)),
        "nonconverged": any(w.startswith("tmle did not converge") for w in warnings),
        "ridge_fallbacks": sum("ridge fallback" in w for w in warnings),
    }


def _summarize_dataset(ds) -> dict:
    # Outcome and exposure columns are parsed too.
    return {"cells": ds.n * (ds.p + 2)}


# Results kept (as small summaries) for the counts the per-layer metrics need.
SUMMARIES = {
    "estimators.score_covariate": _summarize_estimate,
    "data.load_csv": _summarize_dataset,
}


class Tracer:
    """In-memory span recorder for the confscreen package."""

    def __init__(self, package_name: str = "confscreen"):
        self.spans: list[tuple] = []
        self.summaries: dict[int, dict] = {}
        self.command = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches = self._plan(package_name)

    def _wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        summarize = SUMMARIES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((tracer.command, span_id, parent, name, start, end))
            if summarize is not None:
                tracer.summaries[span_id] = summarize(result)
            return result

        return wrapper

    def _plan(self, package_name: str) -> list[tuple]:
        package = importlib.import_module(package_name)
        modules = {layer: importlib.import_module(f"{package_name}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = [
                n for n in mod.__all__
                if inspect.isfunction(getattr(mod, n)) and getattr(mod, n).__module__ == mod.__name__
            ]
            names += PRIVATE_SPANS.get(layer, ())
            for n in names:
                fn = getattr(mod, n)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn))
        patches = []
        for mod in (package, *modules.values()):
            for attr, value in vars(mod).items():
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((mod, attr, value, entry[1]))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class CommandSpans:
    """Span totals of one command: inclusive time per span name, self time per layer."""

    def __init__(self, tracer: Tracer, command):
        spans = [s for s in tracer.spans if s[0] == command]
        self.count = len(spans)
        self.name_of = {s[1]: s[3] for s in spans}
        self.parent_of = {s[1]: s[2] for s in spans}
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.by_name = defaultdict(list)  # name -> [(span_id, duration)]
        self.self_time = defaultdict(float)  # layer -> seconds
        for _, span_id, _, name, start, end in spans:
            self.by_name[name].append((span_id, end - start))
            self.self_time[name.split(".", 1)[0]] += end - start - child_time[span_id]
        self.summaries = [tracer.summaries[s[1]] for s in spans if s[1] in tracer.summaries]

    def total(self, *names: str, exclude_parent: str | None = None) -> float:
        """Inclusive seconds in spans named ``names``, optionally skipping those under ``exclude_parent``."""
        out = 0.0
        for name in names:
            for span_id, duration in self.by_name.get(name, ()):
                parent = self.parent_of[span_id]
                if exclude_parent is not None and parent is not None and self.name_of[parent] == exclude_parent:
                    continue
                out += duration
        return out

    def durations(self, name: str) -> list[float]:
        return [d for _, d in self.by_name.get(name, ())]
