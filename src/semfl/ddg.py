"""Dynamic dependency graph construction by replaying budgeted traces.

Replay maintains a call stack whose frames carry predicate stacks of branch
events; data edges come from event reads/writes, control edges from the
predicate on top of the executing frame's stack, and virtual call edges tie
traced invocations nested inside untraced ones to the enclosing call summary.

Values are numbered densely in the order replay first sees them, whether
read or written, trace after trace. The graph is a few flat arrays over
those numbers: the trace-local id of each value, its producing statement
and its parents in CSR form (one offsets array plus one flat index array).

Each trace replays from a fresh value numbering and no edge crosses two
traces, so the graph is one segment per trace, laid end to end: a
segment's arrays are local to its trace, and joining them only offsets
its value indices. Only a trace the benchmark shares keeps its segment per
pair of edge switches, replaying once per pair; `semfl localize` keeps none.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import MalformedTrace
from .lang.cfg import EXIT
from .tracing import (
    ASSERT_FAIL,
    ASSERT_PASS,
    BRANCH,
    CALL_ENTER,
    CALL_EXIT,
    CALL_SUMMARY,
    EXCEPTION_CATCH,
    EXEC,
)


@dataclass
class DepGraph:
    """Value i is value id `value_nodes[i]` of the trace it was seen in
    (`value_key`). Its parents are `parents[parent_start[i]:parent_start[i
    + 1]]`: the values it read, deduplicated in read order, then its
    control parent when `ctrl[i]` is set. An input value has no producer
    and no parents.
    """

    statement_nodes: list  # sorted sids of the producing statements
    value_nodes: np.ndarray  # int64 trace-local vid per value, in value order
    trace_starts: list  # (test, index of its first value) per trace replayed
    producer: np.ndarray  # int64 sid per value, -1 for an input value
    parent_start: np.ndarray  # int64, len(value_nodes) + 1 offsets
    parents: np.ndarray  # int64 value indices
    ctrl: np.ndarray  # bool per value: its last parent is a control parent
    evidence_anchors: list  # (value index, expected bool)

    def edge_count(self):
        """One statement edge per produced value plus one per parent."""
        return int(np.count_nonzero(self.producer >= 0)) + len(self.parents)

    def value_key(self, i):
        """(test, vid) of value i."""
        row = bisect_right(self.trace_starts, i, key=lambda t: t[1]) - 1
        return self.trace_starts[row][0], int(self.value_nodes[i])


class _Frame:
    __slots__ = ("fn", "pred_stack", "pending_virtual", "virtual_parent", "params")

    def __init__(self, fn, virtual_parent=None, params=()):
        self.fn = fn
        self.pred_stack = []  # (branch sid or None, value index, pop_at sid or None)
        self.pending_virtual = []  # (param indices, return index or None)
        self.virtual_parent = virtual_parent
        self.params = params


class _Segment(NamedTuple):
    """One trace's part of the graph, before joining: value indices count
    from 0 at the trace's first value, and the parent lists are in the
    order replay produced their values. Built once, never changed."""

    value_nodes: array  # "q": trace-local vid per value
    producer: array  # "q": sid per value, -1 for an input value
    produced: array  # "q": index of each produced value
    n_parents: array  # "q": parent count of each produced value
    ctrl: array  # "b": per produced value
    parents: array  # "q": every produced value's parents in turn
    statements: frozenset  # sids of the producing statements
    anchors: tuple  # (value index, expected bool)


class _Builder:
    """Replays one trace into its segment."""

    def __init__(self, program, virtual_call_edges=True, exception_control=True):
        self.program = program
        self.virtual_call_edges = virtual_call_edges
        self.exception_control = exception_control
        self.value_nodes = array("q")
        self.producer = array("q")  # sid per value, -1 until produced
        self.anchors = []
        self._stmt_nodes = set()
        # one entry per produced value, in production order
        self._produced = array("q")
        self._n_parents = array("q")
        self._ctrl = array("b")
        self._flat_parents = array("q")

    def value(self, vid):
        """The index of value `vid` of the trace being replayed; an alias
        left by loop compression is the value it stands for."""
        idx = self._ids.get(vid)
        if idx is None:
            kept = self._aliases.get(vid)
            if kept is not None:
                idx = self._ids[vid] = self.value(kept)
            else:
                idx = self._ids[vid] = len(self.value_nodes)
                self.value_nodes.append(vid)
                self.producer.append(-1)
        return idx

    def add_produced(self, idx, sid, reads, ctrl):
        if self.producer[idx] >= 0:
            # A folded summary may re-claim a value produced by a surviving
            # nested event; the first producer wins.
            return
        self.producer[idx] = sid
        self._stmt_nodes.add(sid)
        parents = list(dict.fromkeys(reads))
        has_ctrl = ctrl is not None and ctrl not in parents
        if has_ctrl:
            parents.append(ctrl)
        self._produced.append(idx)
        self._n_parents.append(len(parents))
        self._ctrl.append(has_ctrl)
        self._flat_parents.extend(parents)

    def replay(self, tr) -> _Segment:
        test = tr.test
        self._ids = {}  # vid -> value index
        self._aliases = tr.aliases
        value = self.value
        statements = self.program.statement_table
        frames = [_Frame(test)]
        for ev in tr.events:
            if not frames:
                raise MalformedTrace(f"{test}: event after root frame closed")
            fs = frames[-1]
            info = statements.get(ev.stmt)
            if info is None:
                raise MalformedTrace(f"{test}: unknown statement {ev.stmt}")
            same_frame = info.function == fs.fn

            # An exception_catch event carries the throw's statement,
            # which may be another frame's, so it closes no region.
            if same_frame and ev.kind in (EXEC, BRANCH, CALL_ENTER,
                                          CALL_SUMMARY, ASSERT_PASS,
                                          ASSERT_FAIL):
                self._pop_reached(fs, ev.stmt)

            if ev.kind == EXEC or ev.kind == BRANCH:
                ctrl = fs.pred_stack[-1][1] if fs.pred_stack else None
                reads = [value(r) for r in ev.reads]
                for w in ev.writes:
                    widx = value(w)
                    self.add_produced(widx, ev.stmt, reads, ctrl)
                if ev.kind == BRANCH and same_frame and ev.writes:
                    self._push_branch(fs, ev.stmt, widx)
            elif ev.kind == CALL_ENTER:
                virtual = not same_frame
                params = tuple(value(p) for p in ev.reads)
                frames.append(_Frame(ev.aux["callee"],
                                     virtual_parent=fs if virtual else None,
                                     params=params))
            elif ev.kind == CALL_EXIT:
                if len(frames) == 1:
                    raise MalformedTrace(f"{test}: call exit without matching enter")
                done = frames.pop()
                if done.virtual_parent is not None:
                    ret = ev.aux.get("ret")
                    if ret is None:
                        ret = ev.aux.get("thrown")
                    ret_idx = value(ret) if ret is not None else None
                    done.virtual_parent.pending_virtual.append((done.params, ret_idx))
            elif ev.kind == CALL_SUMMARY:
                self._replay_summary(ev, fs)
            elif ev.kind == EXCEPTION_CATCH:
                idx = value(ev.reads[0])
                if self.exception_control:
                    # Caught exceptions control everything until the frame ends.
                    fs.pred_stack.append((None, idx, None))
            elif ev.kind == ASSERT_PASS or ev.kind == ASSERT_FAIL:
                # Duplicate anchors are fine when consistent; the model
                # layer rejects contradictions.
                self.anchors.append((value(ev.reads[0]), ev.kind == ASSERT_PASS))
            else:
                raise MalformedTrace(f"{test}: unknown event kind {ev.kind!r}")
        return _Segment(self.value_nodes, self.producer, self._produced,
                        self._n_parents, self._ctrl, self._flat_parents,
                        frozenset(self._stmt_nodes), tuple(self.anchors))

    def _replay_summary(self, ev, fs):
        ctrl = fs.pred_stack[-1][1] if fs.pred_stack else None
        reads = [self.value(r) for r in ev.reads]
        extra = []
        if self.virtual_call_edges:
            for _, ret_idx in fs.pending_virtual:
                if ret_idx is not None and ret_idx not in extra:
                    extra.append(ret_idx)
        for w in ev.writes:
            self.add_produced(self.value(w), ev.stmt, reads + extra, ctrl)
        if self.virtual_call_edges:
            for params, _ in fs.pending_virtual:
                for p in params:
                    self.add_produced(p, ev.stmt, reads, None)
        fs.pending_virtual.clear()

    def _pop_reached(self, fs, sid):
        while fs.pred_stack and fs.pred_stack[-1][2] == sid:
            fs.pred_stack.pop()

    def _push_branch(self, fs, sid, value_idx):
        ipd = self.program.functions[fs.fn].ipostdom.get(sid, EXIT)
        pop_at = None if ipd == EXIT else ipd
        entry = (sid, value_idx, pop_at)
        if fs.pred_stack and fs.pred_stack[-1][0] == sid:
            fs.pred_stack[-1] = entry
        else:
            fs.pred_stack.append(entry)


def _cat(arrays, dtype):
    """A new numpy array of `arrays` (of `array`s) end to end."""
    return np.frombuffer(bytearray().join(arrays), dtype)


def _join(traces, segments) -> DepGraph:
    """The graph of `segments`, one per trace, laid end to end. The parent
    lists are reordered from production order into value order: a folded
    summary can produce a value seen earlier."""
    starts = list(accumulate((len(s.value_nodes) for s in segments),
                             initial=0))
    n = starts.pop()
    offsets = np.array(starts, np.int64)
    produced = _cat([s.produced for s in segments], np.int64)
    produced += np.repeat(offsets, [len(s.produced) for s in segments])
    flat_parents = _cat([s.parents for s in segments], np.int64)
    flat_parents += np.repeat(offsets, [len(s.parents) for s in segments])
    n_parents = _cat([s.n_parents for s in segments], np.int64)
    counts = np.zeros(n, np.int64)
    counts[produced] = n_parents
    parent_start = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=parent_start[1:])
    src_start = np.cumsum(n_parents) - n_parents
    order = np.argsort(produced, kind="stable")
    gather = np.repeat(src_start[order] - parent_start[produced[order]],
                       n_parents[order])
    gather += np.arange(len(gather))
    ctrl = np.zeros(n, bool)
    ctrl[produced] = _cat([s.ctrl for s in segments], bool)
    return DepGraph(
        statement_nodes=sorted(set().union(
            *(s.statements for s in segments))),
        value_nodes=_cat([s.value_nodes for s in segments], np.int64),
        trace_starts=[(tr.test, start)
                      for tr, start in zip(traces, starts)],
        producer=_cat([s.producer for s in segments], np.int64),
        parent_start=parent_start,
        parents=flat_parents[gather],
        ctrl=ctrl,
        evidence_anchors=[(idx + start, ok)
                          for s, start in zip(segments, starts)
                          for idx, ok in s.anchors])


def build_ddg(program, traces, virtual_call_edges=True,
              exception_control=True) -> DepGraph:
    """The graph of `traces`, replayed on `program`, the program that
    recorded them. A trace whose `segments` is a dict keeps them there,
    one per pair of switches; every other trace keeps none."""
    flags = (virtual_call_edges, exception_control)
    segments = []
    for tr in traces:
        kept = {} if tr.segments is None else tr.segments
        seg = kept.get(flags)
        if seg is None:
            seg = kept[flags] = _Builder(program, *flags).replay(tr)
        segments.append(seg)
    return _join(traces, segments)
