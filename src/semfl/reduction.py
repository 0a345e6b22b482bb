"""Scalability reducers: test selection, loop compression, adaptive folding,
and the model-size budget deciding which traces enter the dependency graph.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from .errors import NoFailingTests
from .tracing import (
    ASSERT_OUTCOME,
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


_AUX_VID_KEYS = ("value", "ret", "thrown")
_AUX_VID_LIST_KEYS = ("params",)
_AUX_VID_PAIR_KEYS = ("arrays", "array_versions")
_AUX_REMAPPED = frozenset(_AUX_VID_KEYS + _AUX_VID_LIST_KEYS
                          + _AUX_VID_PAIR_KEYS)


def _aux_vids(aux):
    for key in _AUX_VID_KEYS:
        yield aux.get(key)
    for key in _AUX_VID_LIST_KEYS:
        yield from aux.get(key, ())
    for key in _AUX_VID_PAIR_KEYS:
        for _, v in aux.get(key, ()):
            yield v


def _remap_event(ev, remapped, resolve):
    """`ev` with its reads and aux value ids resolved; `ev` itself when
    none of them is in `remapped`."""
    reads = ev.reads
    if not remapped.isdisjoint(reads):
        reads = tuple(resolve(r) for r in reads)
    aux = ev.aux
    # An aux is copied only when one of its value ids changes: events share
    # it otherwise, as it is never mutated.
    if (not _AUX_REMAPPED.isdisjoint(aux)
            and not remapped.isdisjoint(_aux_vids(aux))):
        aux = dict(aux)
        for key in _AUX_VID_KEYS:
            if aux.get(key) is not None:
                aux[key] = resolve(aux[key])
        for key in _AUX_VID_LIST_KEYS:
            if key in aux:
                aux[key] = [resolve(v) for v in aux[key]]
        for key in _AUX_VID_PAIR_KEYS:
            if key in aux:
                aux[key] = [[addr, resolve(v)] for addr, v in aux[key]]
    if reads is ev.reads and aux is ev.aux:
        return ev
    return TraceEvent(kind=ev.kind, stmt=ev.stmt, reads=reads,
                      writes=ev.writes, aux=aux)


def compress_loops(tr: Trace, program, log=None) -> Trace:
    """Remove adjacent loop iterations with identical statement shape.

    One pass over the events keeps a stack of open calls; every call in the
    trace returns, as the interpreter closes each call it opens. A call's
    items are compressed when it returns, and its caller then sees it as one
    flat block whose statement is the call's. Reads of surviving events are
    re-bound to the corresponding values of the retained iteration; value
    ids are not renumbered, and an event with nothing to re-bind is kept
    as it is.
    """
    loops = {name: fn.loop_bodies() for name, fn in program.functions.items()}
    stmt_fn = {sid: info.function
               for sid, info in program.statement_table.items()}
    remap = {}
    removed = 0

    def compress(items, fn_name):
        """The events of one call's items (events and closed call blocks),
        innermost loops compressed first."""
        nonlocal removed
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
            body = fn_loops.get(item.stmt) if item.kind == EXEC else None
            if body is None:
                out.append(item)
                continue
            # The loop runs while items carry its condition's or body's
            # statements; an iteration starts at each condition event. Items
            # carrying foreign statement ids (virtual call blocks, caught
            # exceptions from callees) stay in whatever region they occur in.
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
                    if sid == cond and nxt.kind == EXEC:
                        starts.append(i)
                if (sid != cond and sid not in body
                        and stmt_fn.get(sid) == fn_name):
                    break
                i += 1
            starts.append(i)
            kept = kept_shape = None
            for a, b in zip(starts, starts[1:]):
                if nested:
                    iteration = [items[a]] + compress(items[a + 1:b], fn_name)
                else:
                    iteration = [items[a]]
                    for it in items[a + 1:b]:
                        if isinstance(it, list):
                            iteration.extend(it)
                        else:
                            iteration.append(it)
                shape = _shape(iteration)
                if shape == kept_shape:
                    for ek, er in zip(kept, iteration):
                        for wk, wr in zip(ek.writes, er.writes):
                            remap[wr] = wk
                    removed += 1
                else:
                    out.extend(iteration)
                    kept, kept_shape = iteration, shape
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

    def resolve(vid):
        seen = []
        while vid in remap:
            seen.append(vid)
            vid = remap[vid]
        for s in seen:  # path compression
            remap[s] = vid
        return vid

    events = compress(stack[0][1], tr.test)
    if removed:
        remapped = remap.keys()
        events = [_remap_event(e, remapped, resolve) for e in events]
        if log is not None:
            log.append(f"loop compression: {tr.test}: removed {removed} "
                       f"iterations ({len(tr.events)} -> {len(events)} "
                       "events)")
    return replace(tr, events=events)


# --- adaptive folding ---

def _exec_counts(events, test):
    """The EXEC events per function, the test's own included."""
    counts = {}
    callees = [test]
    for ev in events:
        if ev.kind == CALL_ENTER:
            callees.append(ev.aux["callee"])
        elif ev.kind == CALL_EXIT:
            callees.pop()
        elif ev.kind == EXEC:
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
