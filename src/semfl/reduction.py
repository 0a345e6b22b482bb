"""Scalability reducers: test selection, loop compression, adaptive folding,
and the model-size budget deciding which traces enter the dependency graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING

from .errors import NoFailingTests
from .tracing import (
    ASSERT_OUTCOME,
    BRANCH,
    CALL_ENTER,
    CALL_EXIT,
    CALL_SUMMARY,
    EXEC,
    Trace,
    TraceEvent,
)

if TYPE_CHECKING:
    from .pipeline import RunConfig


def select_tests(profile, cfg: RunConfig) -> list:
    """Failing tests first, then passing tests by coverage overlap with them.

    Passing tests that share no covered function with any failing test carry
    no information and are dropped; at most `max_passing_tests` survive.
    """
    failing = sorted(t.test for t in profile.failing)
    if not failing:
        raise NoFailingTests("fault localization needs at least one failing test")
    fail_funcs = set()
    for t in profile.failing:
        fail_funcs |= t.functions
    scored = []
    for t in profile.passing:
        overlap = len(t.functions & fail_funcs)
        if overlap > 0:
            scored.append((-overlap, t.test))
    scored.sort()
    limit = cfg.max_passing_tests if cfg.test_reduction else len(scored)
    return failing + [name for _, name in scored[:limit]]


# --- loop compression ---

def _shape(events):
    # An assert's outcome is part of the shape, so an iteration whose assert
    # fails is never removed as a repeat of one whose assert passed.
    return [(e.kind, e.stmt, e.aux["outcome"]) if e.kind == ASSERT_OUTCOME
            else (e.kind, e.stmt, len(e.reads), len(e.writes))
            for e in events]


def _lag(shapes, shape, period):
    """The least p in 2..`period` for which an iteration of `shape`, with
    the p - 1 iterations before it, repeats the p iterations before those;
    0 when there is none. `shapes` ends with the shapes of the run's
    iterations so far, the latest last."""
    n = len(shapes)
    for p in range(2, period + 1):
        if n < 2 * p - 1:
            break
        if shape == shapes[-p] and all(shapes[-i] == shapes[-i - p]
                                       for i in range(1, p)):
            return p
    return 0


def _writes(events):
    return [w for e in events for w in e.writes]


def compress_loops(tr: Trace, program, log=None, *, period) -> Trace:
    """Remove loop iterations that repeat the iterations before them.

    Within one run of a loop, an iteration is removed when, for the least
    p <= `period`, it and the p - 1 iterations before it have the same
    shapes as the p iterations before those. Each value it writes is then
    an alias of the value written in its place by the iteration p before
    it, or by the kept iteration that one stands for. At period 1 this is
    the paper's rule: an iteration shaped like the one before it.

    One pass over the events keeps a stack of open calls; every call in the
    trace returns, as the interpreter closes each call it opens. A call's
    items are compressed when it returns, and its caller then sees it as one
    flat block whose statement is the call's. The kept events are the
    interpreter's own; the aliases go into the trace's `aliases`, and the
    dependency graph resolves them there.
    """
    loops = {name: fn.loop_bodies() for name, fn in program.functions.items()}
    stmt_fn = {sid: info.function
               for sid, info in program.statement_table.items()}
    aliases = dict(tr.aliases)
    removed = [0] * period  # iterations removed at each lag

    def flat(items):
        out = []
        for it in items:
            if isinstance(it, list):
                out.extend(it)
            else:
                out.append(it)
        return out

    def compress(items, fn_name):
        """The events of one call's items (events and closed call blocks),
        innermost loops compressed first."""
        fn_loops = loops.get(fn_name, {})
        out = []
        n = len(items)
        i = 0
        while i < n:
            item = items[i]
            i += 1
            if isinstance(item, list):
                out.extend(item)
                continue
            body = fn_loops.get(item.stmt) if item.kind == BRANCH else None
            if body is None:
                out.append(item)
                continue
            # The loop runs while items carry its condition's or body's
            # statements; each branch event of its condition starts an
            # iteration. Items with foreign statement ids (virtual call
            # blocks, caught exceptions from callees) stay in their iteration.
            cond = item.stmt
            # Only a loop with a nested loop of its own needs its
            # iterations compressed; any other iteration is just flattened.
            nested = not body.isdisjoint(fn_loops)
            starts = [i - 1]
            while i < n:
                nxt = items[i]
                if isinstance(nxt, list):
                    sid = nxt[0].stmt
                else:
                    sid = nxt.stmt
                    if sid == cond and nxt.kind == BRANCH:
                        starts.append(i)
                if (sid != cond and sid not in body
                        and stmt_fn.get(sid) == fn_name):
                    break
                i += 1
            starts.append(i)
            # Per iteration of the run, removed ones included: its shape,
            # and the writes of the kept iteration that stands for it
            # (itself if kept).
            shapes = deque(maxlen=2 * period - 1)
            kept_writes = deque(maxlen=period)
            for a, b in zip(starts, starts[1:]):
                if nested:
                    iteration = [items[a]] + compress(items[a + 1:b], fn_name)
                else:
                    iteration = flat(items[a:b])
                shape = _shape(iteration)
                if shapes and shape == shapes[-1]:
                    p = 1
                else:
                    p = _lag(shapes, shape, period)
                if p:
                    # the iteration p back has this shape, and so has the
                    # kept iteration standing for it
                    rep = kept_writes[-p]
                    aliases.update(zip(_writes(iteration), rep))
                    removed[p - 1] += 1
                else:
                    out.extend(iteration)
                    rep = _writes(iteration)
                shapes.append(shape)
                kept_writes.append(rep)
        return out

    stack = [(None, [])]  # per open call: its enter event and its items
    for ev in tr.events:
        if ev.kind == CALL_ENTER:
            stack.append((ev, []))
        elif ev.kind == CALL_EXIT:
            enter, items = stack.pop()
            stack[-1][1].append([enter] + compress(items, enter.aux["callee"])
                                + [ev])
        else:
            stack[-1][1].append(ev)

    events = compress(stack[0][1], tr.test)
    # A value an inner loop kept may go with an outer iteration removed
    # later, so aliases chain: flatten those.
    for vid, target in aliases.items():
        if target in aliases:
            while target in aliases:
                target = aliases[target]
            aliases[vid] = target
    if log is not None and sum(removed):
        longer = ", ".join(f"period {p}: {k}"
                           for p, k in enumerate(removed, 1) if p > 1 and k)
        log.append(f"loop compression: {tr.test}: removed {sum(removed)} "
                   f"iterations ({len(tr.events)} -> {len(events)} events)"
                   + (f" ({longer})" if longer else ""))
    return replace(tr, events=events, aliases=aliases)


# --- adaptive folding ---

def _exec_counts(events, test):
    """The EXEC and BRANCH events per function, the test's own included."""
    counts = {}
    callees = [test]
    for ev in events:
        if ev.kind == CALL_ENTER:
            callees.append(ev.aux["callee"])
        elif ev.kind == CALL_EXIT:
            callees.pop()
        elif ev.kind == EXEC or ev.kind == BRANCH:
            counts[callees[-1]] = counts.get(callees[-1], 0) + 1
    return counts


def _make_summary(enter, exit_event) -> TraceEvent:
    reads = tuple(enter.aux["params"])
    writes = []
    aux = {"callee": enter.aux["callee"], "ret": None, "threw": False}
    if not exit_event.aux.get("aborted"):
        ret = exit_event.aux.get("ret")
        if ret is not None:
            writes.append(ret)
            aux["ret"] = ret
        writes.extend(v for _, v in exit_event.aux.get("array_versions", []))
    else:
        aux["threw"] = True
        thrown = exit_event.aux.get("thrown")
        if thrown is not None:
            writes.append(thrown)
    return TraceEvent(CALL_SUMMARY, enter.stmt,
                      reads=reads, writes=tuple(writes), aux=aux)


def _fold_calls(events, target):
    """Each call of `target` becomes the traced calls nested in it, followed
    by its summary unless its caller is folded too."""
    out = []
    stack = [(None, False)]  # per open call, root first: enter, folded
    for ev in events:
        if ev.kind == CALL_ENTER:
            folded = ev.aux["callee"] == target
            stack.append((ev, folded))
            if not folded:
                out.append(ev)
        elif ev.kind == CALL_EXIT:
            enter, folded = stack.pop()
            if not folded:
                out.append(ev)
            elif not stack[-1][1]:
                out.append(_make_summary(enter, ev))
        elif not stack[-1][1]:
            out.append(ev)
    return out


def adaptive_fold(tr: Trace, cfg: RunConfig, log=None) -> Trace:
    """Fold the largest methods of an oversized failing trace into call
    summaries until it fits the per-trace event limit."""
    if tr.size() <= cfg.trace_limit:
        return tr
    counts = _exec_counts(tr.events, tr.test)
    order = sorted((name for name in counts if name != tr.test),
                   key=lambda n: (-counts[n], n))
    events = tr.events
    folded = []
    for name in order:
        if len(events) <= cfg.trace_limit:
            break
        events = _fold_calls(events, name)
        folded.append(name)
    warning = ""
    if len(events) > cfg.trace_limit:
        events = events[:cfg.trace_limit]
        warning = "cannot reach trace limit by folding; truncated"
    if log is not None and (folded or warning):
        log.append(f"adaptive folding: {tr.test}: folded {folded or 'nothing'}"
                   f" -> {len(events)} events{'; ' + warning if warning else ''}")
    return replace(tr, events=events, oversized=False,
                   truncated=tr.truncated or bool(warning),
                   warning=warning or tr.warning)


def budget_traces(traces: list, cfg: RunConfig, log=None) -> list:
    """All failing traces always enter the model; passing traces are added
    smallest-first while the total stays within the model budget."""
    failing = [t for t in traces if t.failing]
    passing = sorted((t for t in traces if not t.failing),
                     key=lambda t: (t.size(), t.test))
    total = sum(t.size() for t in failing)
    selected = list(failing)
    if total <= cfg.model_limit:
        for t in passing:
            if total + t.size() > cfg.model_limit:
                if log is not None:
                    log.append(f"budget: stopped before {t.test} "
                               f"({total} + {t.size()} > {cfg.model_limit})")
                break
            selected.append(t)
            total += t.size()
    elif log is not None and passing:
        log.append("budget: failing traces alone exceed the model limit; "
                   "no passing traces considered")
    return selected
