"""Reference loop compression for the equivalence tests.

This is the `compress_loops` semfl shipped before iterations of loops
without nested loops were built by flattening and before value ids of
removed iterations became trace aliases. It compresses every iteration
through a recursive call on a slice and rebuilds every surviving event
with its value ids re-bound. It keeps the old iteration boundary: every
event of the condition's statement that computes a value starts an
iteration, whether it is the condition's branch event or an EXEC, such as
an argument of a call the condition makes or a value it throws. No corpus
loop condition calls a function, so there `semfl.reduction.compress_loops`
must keep the same events (by kind, statement and writes), log the same
lines, and give the same dependency graph.
"""

from __future__ import annotations

from dataclasses import replace

from semfl.tracing import (
    BRANCH,
    CALL_ENTER,
    CALL_EXIT,
    EXEC,
    Trace,
    TraceEvent,
)


def _shape(events):
    # The kind tells a failed assert from a passed one, so an iteration whose
    # assert fails is never removed as a repeat of one whose assert passed.
    return [(e.kind, e.stmt, len(e.reads), len(e.writes)) for e in events]


def _remap_event(ev, resolve):
    aux = ev.aux
    # Only a call exit names values outside its reads and writes. An aux
    # without value ids is shared, not copied: it is never mutated.
    if "ret" in aux or "thrown" in aux:
        aux = dict(aux)
        for key in ("ret", "thrown"):
            if aux.get(key) is not None:
                aux[key] = resolve(aux[key])
        if "array_versions" in aux:
            aux["array_versions"] = [resolve(v) for v in aux["array_versions"]]
    return TraceEvent(kind=ev.kind, stmt=ev.stmt,
                      reads=tuple(resolve(r) for r in ev.reads),
                      writes=ev.writes, aux=aux)


def compress_loops(tr: Trace, program, log=None) -> Trace:
    """Remove adjacent loop iterations with identical statement shape.

    One pass over the events keeps a stack of open calls; every call in the
    trace returns, as the interpreter closes each call it opens. A call's
    items are compressed when it returns, and its caller then sees it as one
    flat block whose statement is the call's. Reads of surviving events are
    re-bound to the corresponding values of the retained iteration; value
    ids are not renumbered.
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
            body = (fn_loops.get(item.stmt) if item.kind in (EXEC, BRANCH)
                    else None)
            if body is None:
                out.append(item)
                continue
            # The loop runs while items carry its condition's or body's
            # statements; an iteration starts at each condition event. Items
            # carrying foreign statement ids (virtual call blocks, caught
            # exceptions from callees) stay in whatever region they occur in.
            cond = item.stmt
            starts = [i - 1]
            while i < n:
                nxt = items[i]
                if isinstance(nxt, list):
                    sid = nxt[0].stmt
                else:
                    sid = nxt.stmt
                    if sid == cond and nxt.kind in (EXEC, BRANCH):
                        starts.append(i)
                if (sid != cond and sid not in body
                        and stmt_fn.get(sid) == fn_name):
                    break
                i += 1
            starts.append(i)
            kept = kept_shape = None
            for a, b in zip(starts, starts[1:]):
                iteration = [items[a]] + compress(items[a + 1:b], fn_name)
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

    events = [_remap_event(e, resolve) for e in compress(stack[0][1], tr.test)]
    if log is not None and removed:
        log.append(f"loop compression: {tr.test}: removed {removed} "
                   f"iterations ({len(tr.events)} -> {len(events)} events)")
    return replace(tr, events=events)
