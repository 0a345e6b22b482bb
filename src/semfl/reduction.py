"""Scalability reducers: test selection, loop compression, adaptive folding,
and the model-size budget deciding which traces enter the dependency graph.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from .errors import NoFailingTests
from .tracing import (
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


# --- event tree ---

class CallNode:
    """One traced invocation: its enter/exit boundary events and the items
    (events or nested CallNodes) in between."""

    __slots__ = ("enter", "children", "exit")

    def __init__(self, enter, children=None, exit=None):
        self.enter = enter
        self.children = children if children is not None else []
        self.exit = exit

    @property
    def callee(self):
        return self.enter.aux["callee"]


def build_tree(events) -> list:
    root = []
    stack = [root]
    open_nodes = []
    for ev in events:
        if ev.kind == CALL_ENTER:
            node = CallNode(ev)
            stack[-1].append(node)
            stack.append(node.children)
            open_nodes.append(node)
        elif ev.kind == CALL_EXIT:
            if len(stack) == 1:
                continue  # tolerate truncated traces
            stack.pop()
            open_nodes.pop().exit = ev
        else:
            stack[-1].append(ev)
    return root


def flatten_tree(items) -> list:
    """The events of a tree in trace order. Iterative, so any call depth
    flattens."""
    out = []
    # per open call: the rest of its items and its exit event
    stack = [(iter(items), None)]
    while stack:
        rest, exit_event = stack[-1]
        for item in rest:
            if isinstance(item, CallNode):
                out.append(item.enter)
                stack.append((iter(item.children), item.exit))
                break
            out.append(item)
        else:
            stack.pop()
            if exit_event is not None:
                out.append(exit_event)
    return out


def _item_sid(item):
    return item.enter.stmt if isinstance(item, CallNode) else item.stmt


def _signature(items):
    return tuple((e.kind, e.stmt, len(e.reads), len(e.writes))
                 for e in flatten_tree(items))


class _LoopCompressor:
    def __init__(self, program):
        self.program = program
        self.remap = {}
        self.removed_iterations = 0
        self._loops = {name: fn.loop_bodies()
                       for name, fn in program.functions.items()}
        self._stmt_fn = {sid: info.function
                         for sid, info in program.statement_table.items()}

    def resolve(self, vid):
        seen = []
        while vid in self.remap:
            seen.append(vid)
            vid = self.remap[vid]
        for s in seen:  # path compression
            self.remap[s] = vid
        return vid

    def compress_frame(self, items, fn_name, ignore=frozenset()):
        loops = self._loops.get(fn_name, {})
        out = []
        i = 0
        while i < len(items):
            item = items[i]
            sid = _item_sid(item)
            if (not isinstance(item, CallNode) and item.kind == EXEC
                    and sid in loops and sid not in ignore):
                i = self._compress_activation(items, i, sid, loops[sid],
                                              fn_name, ignore, out)
                continue
            if isinstance(item, CallNode):
                item.children = self.compress_frame(item.children, item.callee)
            out.append(item)
            i += 1
        return out

    def _in_activation(self, item, cond_sid, body, fn_name):
        sid = _item_sid(item)
        if sid == cond_sid or sid in body:
            return True
        # Items carrying foreign statement ids (virtual call blocks, caught
        # exceptions from callees) stay in whatever region they occur in.
        return self._stmt_fn.get(sid) != fn_name

    def _compress_activation(self, items, start, cond_sid, body, fn_name,
                             ignore, out):
        end = start
        boundaries = []
        while end < len(items):
            item = items[end]
            if not self._in_activation(item, cond_sid, body, fn_name):
                break
            if (not isinstance(item, CallNode) and item.kind == EXEC
                    and item.stmt == cond_sid):
                boundaries.append(end)
            end += 1
        iterations = []
        for k, b in enumerate(boundaries):
            stop = boundaries[k + 1] if k + 1 < len(boundaries) else end
            iterations.append(items[b:stop])

        inner_ignore = ignore | {cond_sid}
        compressed = [self.compress_frame(it, fn_name, inner_ignore)
                      for it in iterations]

        kept = []
        for it in compressed:
            if kept and _signature(it) == _signature(kept[-1]):
                self._record_remap(kept[-1], it)
                self.removed_iterations += 1
            else:
                kept.append(it)
        for it in kept:
            out.extend(it)
        return end

    def _record_remap(self, kept_items, removed_items):
        for ek, er in zip(flatten_tree(kept_items),
                          flatten_tree(removed_items)):
            for wk, wr in zip(ek.writes, er.writes):
                self.remap[wr] = wk


_AUX_VID_KEYS = ("value", "ret", "thrown")
_AUX_VID_LIST_KEYS = ("params",)
_AUX_VID_PAIR_KEYS = ("arrays", "array_versions")
_AUX_REMAPPED = frozenset(_AUX_VID_KEYS + _AUX_VID_LIST_KEYS
                          + _AUX_VID_PAIR_KEYS)


def _remap_event(ev, resolve):
    aux = ev.aux
    # An aux without value ids is shared, not copied: it is never mutated.
    if not _AUX_REMAPPED.isdisjoint(aux):
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
    return TraceEvent(kind=ev.kind, stmt=ev.stmt,
                      reads=tuple(resolve(r) for r in ev.reads),
                      writes=ev.writes, aux=aux)


def compress_loops(tr: Trace, program, log=None) -> Trace:
    """Remove adjacent loop iterations with identical statement shape.

    Reads of surviving events are re-bound to the corresponding values of the
    retained iteration; value ids are not renumbered.
    """
    comp = _LoopCompressor(program)
    tree = build_tree(tr.events)
    tree = comp.compress_frame(tree, tr.test)
    events = [_remap_event(e, comp.resolve) for e in flatten_tree(tree)]
    if log is not None and comp.removed_iterations:
        log.append(f"loop compression: {tr.test}: removed "
                   f"{comp.removed_iterations} iterations "
                   f"({len(tr.events)} -> {len(events)} events)")
    return replace(tr, events=events)


# --- adaptive folding ---

def _count_exec_per_function(items, fn_name, counts):
    for item in items:
        if isinstance(item, CallNode):
            _count_exec_per_function(item.children, item.callee, counts)
        elif item.kind == EXEC:
            counts[fn_name] = counts.get(fn_name, 0) + 1


def _make_summary(node: CallNode) -> TraceEvent:
    reads = tuple(node.enter.aux["params"])
    writes = []
    aux = {"callee": node.callee, "ret": None, "threw": False}
    if node.exit is not None:
        if not node.exit.aux.get("aborted"):
            ret = node.exit.aux.get("ret")
            if ret is not None:
                writes.append(ret)
                aux["ret"] = ret
            writes.extend(v for _, v in node.exit.aux.get("array_versions", []))
        else:
            aux["threw"] = True
            thrown = node.exit.aux.get("thrown")
            if thrown is not None:
                writes.append(thrown)
    return TraceEvent(CALL_SUMMARY, node.enter.stmt,
                      reads=reads, writes=tuple(writes), aux=aux)


def _fold_function(items, target):
    out = []
    for item in items:
        if isinstance(item, CallNode):
            item.children = _fold_function(item.children, target)
            if item.callee == target:
                out.extend(c for c in item.children if isinstance(c, CallNode))
                out.append(_make_summary(item))
            else:
                out.append(item)
        else:
            out.append(item)
    return out


def adaptive_fold(tr: Trace, cfg: RunConfig, log=None) -> Trace:
    """Fold the largest methods of an oversized failing trace into call
    summaries until it fits the per-trace event limit."""
    if tr.size() <= cfg.trace_limit:
        return tr
    tree = build_tree(tr.events)
    counts = {}
    _count_exec_per_function(tree, tr.test, counts)
    order = sorted((name for name in counts if name != tr.test),
                   key=lambda n: (-counts[n], n))
    folded = []
    for name in order:
        if len(flatten_tree(tree)) <= cfg.trace_limit:
            break
        tree = _fold_function(tree, name)
        folded.append(name)
    events = flatten_tree(tree)
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
