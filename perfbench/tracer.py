"""Layer spans and counters recorded from outside the semfl pipeline.

Each layer's public entry point is replaced, in every semfl module that
binds it, by a wrapper that records a span and reads the layer's work
counts off its arguments and result. The pipeline code itself runs
unchanged; `restore` undoes every replacement when a traced case ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent case")

# span name -> (defining module, function)
LAYERS = {
    "lang.parse": ("semfl.lang.parser", "parse"),
    "pipeline.localize": ("semfl.pipeline", "localize"),
    "tracing.profile": ("semfl.tracing", "profile"),
    "tracing.trace": ("semfl.tracing", "trace"),
    "reduction.compress": ("semfl.reduction", "compress_loops"),
    "reduction.fold": ("semfl.reduction", "adaptive_fold"),
    "reduction.budget": ("semfl.reduction", "budget_traces"),
    "ddg.build": ("semfl.ddg", "build_ddg"),
    "model.build": ("semfl.model", "build_net"),
    "inference.lbp": ("semfl.inference", "run_lbp"),
    "ranking.rank": ("semfl.ranking", "rank"),
    "ranking.sbfl": ("semfl.ranking", "sbfl_report"),
}

# Time the tracer spends reading counts; a child of the span that called
# the layer, so the caller's self time does not include it.
COUNT_SPAN = "bench.count"


def rebind(original, replacement) -> list:
    """Point every name bound to `original` in a semfl module at
    `replacement`. Returns (module, name, original) triples for `restore`."""
    undo = []
    for mod in list(sys.modules.values()):
        if mod is None or not mod.__name__.startswith("semfl"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))
    return undo


def restore(undo):
    for mod, key, original in reversed(undo):
        setattr(mod, key, original)


def _add(counts, name, n):
    counts[name] = counts.get(name, 0) + n


def _count_trace(args, out, counts):
    _add(counts, "tracing.events_raw", out.size())


def _count_compress(args, out, counts):
    _add(counts, "reduction.events_after_compress", out.size())


def _count_fold(args, out, counts):
    # adaptive_fold hands back its input when the trace already fits
    _add(counts, "reduction.folded_traces", int(out is not args[0]))


def _count_budget(args, out, counts):
    _add(counts, "reduction.events_modelled", sum(t.size() for t in out))


def _count_ddg(args, out, counts):
    _add(counts, "ddg.value_nodes", len(out.value_nodes))
    _add(counts, "ddg.edges", out.edge_count())


def _count_net(args, out, counts):
    _add(counts, "model.factors", len(out.factors))
    counts["model.max_factor_degree"] = max(
        counts.get("model.max_factor_degree", 0), out.max_factor_degree())


def _count_lbp(args, out, counts):
    degree_sum = sum(len(f.parents) + 1 for f in args[0].factors)
    _add(counts, "inference.iterations", out.iterations)
    # each iteration sends one message each way along every factor edge
    _add(counts, "inference.messages", out.iterations * 2 * degree_sum)
    _add(counts, "inference.unconverged", int(not out.converged))


COUNTERS = {
    "tracing.trace": _count_trace,
    "reduction.compress": _count_compress,
    "reduction.fold": _count_fold,
    "reduction.budget": _count_budget,
    "ddg.build": _count_ddg,
    "model.build": _count_net,
    "inference.lbp": _count_lbp,
}


class Tracer:
    """Spans kept in memory, plus per-case counts of work done."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # case -> {counter: value}
        self.case = None
        self._stack = []
        self._undo = []

    def __enter__(self):
        for name, (module, attr) in LAYERS.items():
            fn = getattr(importlib.import_module(module), attr)
            self._undo += rebind(fn, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        restore(self._undo)
        self._undo = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start, end):
        self._stack.pop()
        self.spans[idx] = Span(name, start, end, parent, self.case)

    def case_span(self, case, fn, *args):
        """Run one case under a root span."""
        self.case = case
        self.counts[case] = {}
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, parent, "bench.case", start, time.perf_counter())

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def layer(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(idx, parent, name, start, end)
            if counter is not None:
                counter(args, out, self.counts[self.case])
                self.spans.append(Span(COUNT_SPAN, end, time.perf_counter(),
                                       parent, self.case))
            return out

        return layer

    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own
