"""Dynamic dependency graph construction by replaying budgeted traces.

Replay maintains a call stack whose frames carry predicate stacks; data
edges come from event reads/writes, control edges from the predicate on top
of the executing frame's stack, and virtual call edges tie traced
invocations nested inside untraced ones to the enclosing call summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedTrace
from .lang.ast import BRANCH_KINDS
from .lang.cfg import EXIT
from .tracing import (
    ASSERT_OUTCOME,
    CALL_ENTER,
    CALL_EXIT,
    CALL_SUMMARY,
    EXCEPTION_CATCH,
    EXEC,
)

# Value nodes are trace-local: keyed by (test name, value id).


@dataclass
class DepGraph:
    statement_nodes: list = field(default_factory=list)  # sorted sids
    value_nodes: list = field(default_factory=list)  # (test, vid) in production order
    producer: dict = field(default_factory=dict)  # vkey -> sid (absent: input value)
    value_parents: dict = field(default_factory=dict)  # vkey -> ordered parent vkeys
    edges: list = field(default_factory=list)  # (kind, src, dst)
    evidence_anchors: list = field(default_factory=list)  # (vkey, expected bool)

    def input_values(self):
        return [v for v in self.value_nodes if v not in self.producer]

    def node_count(self):
        return len(self.statement_nodes) + len(self.value_nodes)

    def edge_count(self):
        return len(self.edges)

    def statement_level_edges(self, test=None):
        """Project edges onto (producer statement, consumer statement, kind)."""
        out = set()
        for kind, src, dst in self.edges:
            if test is not None and dst[0] != test:
                continue
            dst_stmt = self.producer.get(dst)
            if dst_stmt is None:
                continue
            if kind == "stmt":
                out.add(("stmt", src, dst_stmt))
            else:
                src_stmt = self.producer.get(src)
                out.add((kind, src_stmt, dst_stmt))
        return out

    def check_acyclic(self):
        """Topological check: every edge points to a later value node.

        Value ids are assigned in execution order, so within a test they
        give a topological witness even when a folded summary claims values
        out of replay order.
        """
        for kind, src, dst in self.edges:
            if kind == "stmt":
                continue
            if src[0] != dst[0] or src[1] >= dst[1]:
                return False
        return True


class _Frame:
    __slots__ = ("fn", "pred_stack", "pending_virtual", "virtual_parent", "params")

    def __init__(self, fn, virtual_parent=None, params=()):
        self.fn = fn
        self.pred_stack = []  # (branch sid or None, value vkey, pop_at sid or None)
        self.pending_virtual = []  # (param vkeys, return vkey or None)
        self.virtual_parent = virtual_parent
        self.params = params


class _Builder:
    def __init__(self, program, virtual_call_edges=True, exception_control=True):
        self.program = program
        self.virtual_call_edges = virtual_call_edges
        self.exception_control = exception_control
        self.g = DepGraph()
        self._stmt_nodes = set()
        self._seen_values = set()

    def value(self, test, vid):
        key = (test, vid)
        if key not in self._seen_values:
            self._seen_values.add(key)
            self.g.value_nodes.append(key)
        return key

    def add_produced(self, test, vid, sid, read_keys, ctrl_key):
        key = self.value(test, vid)
        if key in self.g.producer:
            # A folded summary may re-claim a value produced by a surviving
            # nested event; the first producer wins.
            return key
        self.g.producer[key] = sid
        self._stmt_nodes.add(sid)
        parents = []
        self.g.edges.append(("stmt", sid, key))
        for r in read_keys:
            if r not in parents:
                parents.append(r)
                self.g.edges.append(("data", r, key))
        if ctrl_key is not None and ctrl_key not in parents:
            parents.append(ctrl_key)
            self.g.edges.append(("ctrl", ctrl_key, key))
        self.g.value_parents[key] = parents
        return key

    def stmt_info(self, sid):
        info = self.program.statement_table.get(sid)
        if info is None:
            raise MalformedTrace(f"trace references unknown statement {sid}")
        return info

    def replay(self, tr):
        test = tr.test
        frames = [_Frame(test)]
        for ev in tr.events:
            if not frames:
                raise MalformedTrace(f"{test}: event after root frame closed")
            fs = frames[-1]
            info = self.stmt_info(ev.stmt)
            same_frame = info.function == fs.fn

            if same_frame and ev.kind in (EXEC, CALL_ENTER, CALL_SUMMARY):
                self._pop_reached(fs, ev.stmt)

            if ev.kind == EXEC:
                ctrl = fs.pred_stack[-1][1] if fs.pred_stack else None
                read_keys = [self.value(test, r) for r in ev.reads]
                for w in ev.writes:
                    wkey = self.add_produced(test, w, ev.stmt, read_keys, ctrl)
                if same_frame and info.kind in BRANCH_KINDS and ev.writes:
                    self._push_branch(fs, ev.stmt, wkey)
            elif ev.kind == CALL_ENTER:
                virtual = not same_frame
                params = tuple(self.value(test, p) for p in ev.aux.get("params", ()))
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
                    ret_key = self.value(test, ret) if ret is not None else None
                    done.virtual_parent.pending_virtual.append((done.params, ret_key))
            elif ev.kind == CALL_SUMMARY:
                self._replay_summary(test, ev, fs)
            elif ev.kind == EXCEPTION_CATCH:
                key = self.value(test, ev.aux["value"])
                if self.exception_control:
                    # Caught exceptions control everything until the frame ends.
                    fs.pred_stack.append((None, key, None))
            elif ev.kind == ASSERT_OUTCOME:
                key = self.value(test, ev.aux["value"])
                self._anchor(key, bool(ev.aux["outcome"]))
            else:
                raise MalformedTrace(f"{test}: unknown event kind {ev.kind!r}")

    def _anchor(self, key, outcome):
        # Duplicate anchors are fine when consistent; the model layer
        # rejects contradictions.
        self.g.evidence_anchors.append((key, outcome))

    def _replay_summary(self, test, ev, fs):
        ctrl = fs.pred_stack[-1][1] if fs.pred_stack else None
        read_keys = [self.value(test, r) for r in ev.reads]
        extra = []
        if self.virtual_call_edges:
            for _, ret_key in fs.pending_virtual:
                if ret_key is not None and ret_key not in extra:
                    extra.append(ret_key)
        for w in ev.writes:
            self.add_produced(test, w, ev.stmt, read_keys + extra, ctrl)
        if self.virtual_call_edges:
            for params, _ in fs.pending_virtual:
                for pk in params:
                    if pk not in self.g.producer:
                        self.add_produced(test, pk[1], ev.stmt, read_keys, None)
        fs.pending_virtual.clear()

    def _pop_reached(self, fs, sid):
        while fs.pred_stack and fs.pred_stack[-1][2] == sid:
            fs.pred_stack.pop()

    def _push_branch(self, fs, sid, value_key):
        fn = self.stmt_info(sid).function
        ipd = self.program.functions[fn].cfg.ipostdom.get(sid, EXIT)
        pop_at = None if ipd == EXIT else ipd
        entry = (sid, value_key, pop_at)
        if fs.pred_stack and fs.pred_stack[-1][0] == sid:
            fs.pred_stack[-1] = entry
        else:
            fs.pred_stack.append(entry)

    def finish(self):
        self.g.statement_nodes = sorted(self._stmt_nodes)
        return self.g


def build_ddg(program, traces, virtual_call_edges=True,
              exception_control=True) -> DepGraph:
    builder = _Builder(program, virtual_call_edges=virtual_call_edges,
                       exception_control=exception_control)
    for tr in traces:
        builder.replay(tr)
    return builder.finish()


def dump_ddg(g: DepGraph) -> str:
    lines = []
    for sid in g.statement_nodes:
        lines.append(f"stmt {sid}")
    for key in g.value_nodes:
        producer = g.producer.get(key)
        tag = f"by {producer}" if producer is not None else "input"
        lines.append(f"value {key[0]}:{key[1]} {tag}")
    for kind, src, dst in g.edges:
        s = src if kind == "stmt" else f"{src[0]}:{src[1]}"
        lines.append(f"edge {kind} {s} -> {dst[0]}:{dst[1]}")
    for key, outcome in g.evidence_anchors:
        lines.append(f"evidence {key[0]}:{key[1]} {outcome}")
    return "\n".join(lines) + "\n"
