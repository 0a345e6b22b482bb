"""Scalability reducers: test selection, loop compression, adaptive folding,
and the model-size budget deciding which traces enter the dependency graph.

The pipeline's loops are compressed by the interpreter while each test runs
(`tracing.LoopRun` holds the rule). `compress_loops` replays the same rule
offline over a raw trace. No pipeline stage calls it: it is the reference
the tests and acceptance criterion 06 hold the interpreter to, and the
function perfbench's `reduction.compress` layer wraps.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from .errors import NoFailingTests
from .tracing import (
    ASSERT_FAIL,
    BRANCH,
    CALL_ENTER,
    CALL_EXIT,
    CALL_SUMMARY,
    EXCEPTION_CATCH,
    EXEC,
    LoopRun,
    Trace,
    TraceEvent,
    flatten_aliases,
)

if TYPE_CHECKING:
    from .pipeline import RunConfig


def select_tests(profile, cfg: RunConfig) -> list:
    """Failing tests first, then passing tests by coverage overlap with them.

    Passing tests that share no covered function with any failing test carry
    no information and are dropped; at most `max_passing_tests` survive,
    every one when it is None.
    """
    failing = sorted(t.test for t in profile.failing)
    if not failing:
        raise NoFailingTests("fault localization needs at least one failing test")
    fail_funcs = set()
    for t in profile.failing:
        fail_funcs |= t.functions
    scored = []
    for t in profile.tests.values():
        overlap = len(t.functions & fail_funcs)
        if t.status == "pass" and overlap > 0:
            scored.append((-overlap, t.test))
    scored.sort()
    return failing + [name for _, name in scored[:cfg.max_passing_tests]]


# --- loop compression ---

def compress_loops(tr: Trace, program, *, period) -> Trace:
    """Remove loop iterations that repeat the iterations before them, by
    `tracing.LoopRun`'s rule: the offline replay, over a raw trace, of what
    `tracing.trace` does while a test runs when given the same `period`.

    One pass over the events keeps a stack of open calls; every call in the
    trace returns, as the interpreter closes each call it opens. A call's
    items are compressed when it returns, and its caller then sees it as one
    flat block whose statement is the call's. An iteration's items after
    its condition's branch event are compressed the same way before the
    iteration goes through the rule, so inner loops go first. The kept
    events are the interpreter's own; the aliases go into the trace's
    `aliases`, and the dependency graph resolves them there.
    """
    loops = {name: fn.loop_bodies() for name, fn in program.functions.items()}
    stmt_fn = {sid: info.function
               for sid, info in program.statement_table.items()}
    aliases = dict(tr.aliases)
    removed = {}  # lag -> iterations removed at it

    def compress(items, fn_name):
        """The events of one call's or iteration's items (events and closed
        call blocks), innermost loops compressed first."""
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
            # blocks) stay in their iteration, and so do a caught exception
            # and a test's failing evidence, from whatever frame they came:
            # they were recorded in the iteration or right after an
            # exception or a timeout cut it short.
            cond = item.stmt
            starts = [i - 1]
            while i < n:
                nxt = items[i]
                if isinstance(nxt, list):
                    sid = nxt[0].stmt
                elif nxt.kind == EXCEPTION_CATCH or nxt.kind == ASSERT_FAIL:
                    i += 1
                    continue
                else:
                    sid = nxt.stmt
                    if sid == cond and nxt.kind == BRANCH:
                        starts.append(i)
                if (sid != cond and sid not in body
                        and stmt_fn.get(sid) == fn_name):
                    break
                i += 1
            starts.append(i)
            run = LoopRun(period, aliases, removed)
            for a, b in zip(starts, starts[1:]):
                iteration = [items[a]] + compress(items[a + 1:b], fn_name)
                if not run.repeats(iteration):
                    out.extend(iteration)
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

    return replace(tr, events=compress(stack[0][1], tr.test),
                   aliases=flatten_aliases(aliases),
                   raw_events=len(tr.events), removed=removed)


def log_compression(tr: Trace, log):
    """The `log.txt` line of a trace loop compression removed iterations
    from."""
    if tr.removed:
        longer = ", ".join(f"period {p}: {k}"
                           for p, k in sorted(tr.removed.items()) if p > 1)
        log.append(f"loop compression: {tr.test}: removed "
                   f"{sum(tr.removed.values())} "
                   f"iterations ({tr.raw_events} -> {tr.size()} events)"
                   + (f" ({longer})" if longer else ""))


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


def _make_summary(enter, exit_event, escaped) -> TraceEvent:
    """One call as a summary: it reads the call's arguments and writes what
    the call hands back, its return value and array versions or the value
    it threw, and then the `escaped` values folded away with it."""
    aux = exit_event.aux
    writes = [aux[k] for k in ("ret", "thrown") if aux.get(k) is not None]
    writes += aux.get("array_versions", ())
    return TraceEvent(CALL_SUMMARY, enter.stmt, enter.reads,
                      tuple(writes + escaped), {"callee": enter.aux["callee"]})


def _fold_calls(events, target, evidence):
    """Each call of `target` becomes the traced calls nested in it, followed
    by its summary unless its caller is folded too. A value of `evidence`
    written by a folded event is written by the summary standing for it,
    and a failed assert folded away comes right after that summary: the
    evidence of a failing test reads a value of the call's own, the last
    one written by a call that ran out of steps or the one a failed assert
    read, which the call never hands back."""
    out = []
    # per open call, root first: enter, folded, evidence values and failed
    # asserts folded in it
    stack = [(None, False, [], [])]
    for ev in events:
        if ev.kind == CALL_ENTER:
            folded = ev.aux["callee"] == target
            stack.append((ev, folded, [], []))
            if not folded:
                out.append(ev)
        elif ev.kind == CALL_EXIT:
            enter, folded, escaped, failed = stack.pop()
            if not folded:
                out.append(ev)
            elif stack[-1][1]:
                stack[-1][2].extend(escaped)
                stack[-1][3].extend(failed)
            else:
                out.append(_make_summary(enter, ev, escaped))
                out.extend(failed)
        elif not stack[-1][1]:
            out.append(ev)
        else:
            if ev.kind == ASSERT_FAIL:
                stack[-1][3].append(ev)
            if not evidence.isdisjoint(ev.writes):
                stack[-1][2].extend(w for w in ev.writes if w in evidence)
    return out


def adaptive_fold(tr: Trace, cfg: RunConfig, log=None) -> Trace:
    """Fold the largest methods of a failing trace into call summaries
    until it fits the per-trace event limit."""
    if tr.size() <= cfg.trace_limit:
        return tr
    counts = _exec_counts(tr.events, tr.test)
    order = sorted((name for name in counts if name != tr.test),
                   key=lambda n: (-counts[n], n))
    events = tr.events
    # A timeout's evidence is the trace's last event, unless the test wrote
    # nothing, and a failed assert is followed only by the exits of the
    # calls it ended; the value it reads may stand for one loop compression
    # kept.
    evidence = frozenset()
    if tr.reason in ("timeout", "assert"):
        last = next((e for e in reversed(events) if e.kind != CALL_EXIT), None)
        if last is not None and last.kind == ASSERT_FAIL:
            evidence = frozenset(tr.aliases.get(v, v) for v in last.reads)
    folded = []
    for name in order:
        if len(events) <= cfg.trace_limit:
            break
        events = _fold_calls(events, name, evidence)
        folded.append(name)
    warning = ""
    if len(events) > cfg.trace_limit:
        events = events[:cfg.trace_limit]
        warning = "cannot reach trace limit by folding; truncated"
    if log is not None and (folded or warning):
        log.append(f"adaptive folding: {tr.test}: folded {folded or 'nothing'}"
                   f" -> {len(events)} events{'; ' + warning if warning else ''}")
    return replace(tr, events=events, warning=warning or tr.warning)


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
