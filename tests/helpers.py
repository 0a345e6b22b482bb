"""Views of the dependency graph and a network builder for the tests.

`semfl.ddg.DepGraph` and `semfl.model.FaultNet` hold flat arrays. The
functions here read a graph back as (test, vid) keys and (kind, source,
target) edges, and `NetBuilder` assembles a hand-made network one variable
and one factor at a time, and `factor_messages` runs the engine's closed
form on hand-made edge arrays. `statement_ids` lists a function's
statements, and `p_faulty` reads a statement's fault probability off a
marginal.
`assert_compressed_as_compress_loops` checks a trace the interpreter
compressed while the test ran against the offline replay, and
`apply_mutation` prints a mutant's source text.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np

from semfl.bench import mutated
from semfl.inference import _factor_messages, _Factors
from semfl.lang import format_program
from semfl.lang.ast import walk_statements
from semfl.model import FaultNet
from semfl.reduction import compress_loops, log_compression


def statement_ids(fn):
    """The sids of a function's statements, in source order."""
    return [s.sid for s in walk_statements(fn.body)]


def value_keys(g):
    """The (test, vid) key of every value, in value order."""
    return [g.value_key(i) for i in range(len(g.value_nodes))]


def producers(g):
    """{(test, vid): producing sid} over the produced values."""
    return {key: sid for key, sid in zip(value_keys(g), g.producer.tolist())
            if sid >= 0}


def value_parents(g):
    """{(test, vid): ordered parent keys} over the produced values."""
    keys = value_keys(g)
    start = g.parent_start.tolist()
    parents = g.parents.tolist()
    return {key: [keys[p] for p in parents[start[i]:start[i + 1]]]
            for i, key in enumerate(keys) if g.producer[i] >= 0}


def edges(g):
    """Per produced value, in value order: a statement edge from its
    producer, then one data edge per read parent and a ctrl edge from its
    control parent, as (kind, source, target)."""
    out = []
    keys = value_keys(g)
    start = g.parent_start.tolist()
    parents = g.parents.tolist()
    for i, (key, sid) in enumerate(zip(keys, g.producer.tolist())):
        if sid < 0:
            continue
        out.append(("stmt", sid, key))
        last = start[i + 1] - 1
        for e in range(start[i], start[i + 1]):
            kind = "ctrl" if g.ctrl[i] and e == last else "data"
            out.append((kind, keys[parents[e]], key))
    return out


def input_values(g):
    """Indices of the values no statement produced."""
    return np.flatnonzero(g.producer < 0).tolist()


def node_count(g):
    return len(g.statement_nodes) + len(g.value_nodes)


def statement_level_edges(g, test=None):
    """Project edges onto (producer statement, consumer statement, kind)."""
    producer = producers(g)
    out = set()
    for kind, src, dst in edges(g):
        if test is not None and dst[0] != test:
            continue
        dst_stmt = producer[dst]
        if kind == "stmt":
            out.add(("stmt", src, dst_stmt))
        else:
            out.add((kind, producer.get(src), dst_stmt))
    return out


def check_acyclic(g):
    """Topological check: every edge points to a later value node.

    Value ids are assigned in execution order, so within a test they
    give a topological witness even when a folded summary claims values
    out of replay order.
    """
    for kind, src, dst in edges(g):
        if kind == "stmt":
            continue
        if src[0] != dst[0] or src[1] >= dst[1]:
            return False
    return True


def trace_copy(tr):
    """A deep copy of trace `tr`, with no dependency-graph segment."""
    return replace(tr, events=[replace(e, aux=dict(e.aux)) for e in tr.events],
                   aliases=dict(tr.aliases), removed=dict(tr.removed))


def assert_same_graph(a, b):
    """Every field of two graphs is equal, arrays element by element."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def p_faulty(res, idx):
    """P(faulty) of variable `idx` in an inference result."""
    return 1.0 - float(res.marginals[idx])


def dump_ddg(g):
    lines = [f"stmt {sid}" for sid in g.statement_nodes]
    producer = producers(g)
    for key in value_keys(g):
        tag = f"by {producer[key]}" if key in producer else "input"
        lines.append(f"value {key[0]}:{key[1]} {tag}")
    for kind, src, dst in edges(g):
        s = src if kind == "stmt" else f"{src[0]}:{src[1]}"
        lines.append(f"edge {kind} {s} -> {dst[0]}:{dst[1]}")
    for idx, outcome in g.evidence_anchors:
        test, vid = g.value_key(idx)
        lines.append(f"evidence {test}:{vid} {outcome}")
    return "\n".join(lines) + "\n"


class NetBuilder:
    """Adds variables and factors one at a time; `build` returns the
    FaultNet. Variables are numbered in the order they are added."""

    def __init__(self):
        self.prior = []
        self.evidence = []
        self.factors = []  # (child, parents, p0)

    def add_variable(self, prior=0.5) -> int:
        self.prior.append(prior)
        self.evidence.append(-1)
        return len(self.prior) - 1

    def add_factor(self, child, parents, p0):
        self.factors.append((child, list(parents), p0))

    def set_evidence(self, idx, value: bool):
        self.evidence[idx] = int(value)

    def build(self) -> FaultNet:
        arity = [len(parents) + 1 for _, parents, _ in self.factors]
        offsets = np.zeros(len(arity) + 1, np.int64)
        np.cumsum(arity, out=offsets[1:])
        edge_var = [v for child, parents, _ in self.factors
                    for v in (child, *parents)]
        return FaultNet(np.array(self.prior, np.float64),
                        np.array(self.evidence, np.int8), offsets,
                        np.array(edge_var, np.int64),
                        np.array([p0 for _, _, p0 in self.factors], np.float64))


def factor_messages(p0, offsets, v2f_t, v2f_f):
    """The engine's unnormalised closed-form messages of noisy-conjunction
    factors: factor a, with leak p0[a], has the edges offsets[a]:offsets[a
    + 1], its child first, whose variables send v2f_t and v2f_f."""
    return _factor_messages(_Factors(offsets, p0),
                            np.array(v2f_t, np.float64), v2f_f)


def assert_compressed_as_compress_loops(online, raw, program, period):
    """`online`, recorded with loop period `period`, is one pass of
    `compress_loops` over `raw`, the raw trace of the same run: the same
    events, aliases and log line, and the raw run's size and outcome."""
    log, online_log = [], []
    offline = compress_loops(raw, program, period=period)
    log_compression(offline, log)
    log_compression(online, online_log)
    assert [e.to_record() for e in online.events] == \
           [e.to_record() for e in offline.events], (raw.test, period)
    assert online.aliases == offline.aliases, (raw.test, period)
    assert online_log == log
    assert (online.status, online.reason, online.raw_events) == \
           (raw.status, raw.reason, raw.size())


def apply_mutation(program, point):
    """The source text of the mutant at `point`, as `program` prints it."""
    with mutated(program, point):
        return format_program(program)
