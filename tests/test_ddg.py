"""Dependency-graph tests: data and control edges, virtual call edges,
exception control, acyclicity, and malformed-trace rejection."""

from dataclasses import replace

import pytest

from semfl.ddg import build_ddg
from semfl.errors import MalformedTrace
from semfl.lang import parse
from semfl.pipeline import localize
from semfl.tracing import (
    BRANCH,
    CALL_EXIT,
    CALL_SUMMARY,
    EXEC,
    Trace,
    TraceEvent,
    trace,
)

from helpers import (
    assert_same_graph,
    check_acyclic,
    dump_ddg,
    edges,
    producers,
    statement_ids,
    trace_copy,
    value_keys,
    value_parents,
)

COND_TEST = """
fn foo(a) {
    if (a <= 2) {
        a = a + 1;
    }
    return a <= 2;
}

fn test_pass() {
    assert(foo(1));
}

fn test_fail() {
    assert(foo(2));
}
"""


def _cond_graph():
    prog = parse(COND_TEST)
    traces = [trace(prog, t, {"foo"}) for t in ("test_pass", "test_fail")]
    return prog, traces, build_ddg(prog, traces)


def _shared_traces():
    """`_cond_graph`'s program and traces, opted into keeping their graph
    segments as a trace the benchmark shares is."""
    prog, traces, _ = _cond_graph()
    for tr in traces:
        tr.segments = {}
    return prog, traces


def test_cond_example_statement_nodes():
    prog, _, g = _cond_graph()
    assert g.statement_nodes == list(statement_ids(prog.functions["foo"]))


def test_cond_example_value_chain_per_test():
    prog, traces, g = _cond_graph()
    cond_sid, assign_sid, ret_sid = statement_ids(prog.functions["foo"])
    producer, parents, all_edges = producers(g), value_parents(g), edges(g)
    for tr in traces:
        enter, cond, assign, ret = tr.events[:4]
        a_in = (tr.test, enter.reads[0])
        v_cond = (tr.test, cond.writes[0])
        v_assign = (tr.test, assign.writes[0])
        v_ret = (tr.test, ret.writes[0])
        # the argument is an input: no producer, prior-1 value
        assert a_in in value_keys(g) and a_in not in producer
        assert producer[v_cond] == cond_sid
        assert producer[v_assign] == assign_sid
        assert producer[v_ret] == ret_sid
        # condition reads a; assignment reads a under the condition's
        # control; return reads only the assigned value (the branch
        # predicate is popped at its immediate post-dominator)
        assert parents[v_cond] == [a_in]
        assert parents[v_assign] == [a_in, v_cond]
        assert parents[v_ret] == [v_assign]
        assert ("ctrl", v_cond, v_assign) in all_edges
        assert ("ctrl", v_cond, v_ret) not in all_edges


def test_cond_example_evidence_anchors():
    _, traces, g = _cond_graph()
    anchors = {g.value_key(i): outcome for i, outcome in g.evidence_anchors}
    expected = {(tr.test, tr.events[3].writes[0]): tr.test == "test_pass"
                for tr in traces}
    assert anchors == expected


def test_straight_line_has_no_ctrl_edges():
    prog = parse("""
fn f(a) {
    let x = a + 1;
    let y = x * 2;
    return y;
}

fn test_f() {
    assert(f(1) == 4);
}
""")
    g = build_ddg(prog, [trace(prog, "test_f", {"f"})])
    assert all(kind != "ctrl" for kind, _, _ in edges(g))
    assert check_acyclic(g)


def test_branch_region_closes_at_an_assert_on_a_variable():
    # `assert(ok)` records only an assert event; as the if's immediate
    # post-dominator it ends the branch's control over later statements.
    prog = parse("""
fn f(a) {
    let ok = true;
    if (a > 0) {
        ok = a < 100;
    }
    assert(ok);
    let y = a + 1;
    return y;
}

fn test_small() {
    assert(f(5) == 6);
}
""")
    _, cond, inner, _, let_y, ret = statement_ids(prog.functions["f"])
    g = build_ddg(prog, [trace(prog, "test_small", {"f"})])
    producer = producers(g)
    controlled = {producer[dst] for kind, _, dst in edges(g) if kind == "ctrl"}
    assert controlled == {inner}
    assert {let_y, ret} <= set(producer.values())


def test_while_predicate_is_replaced_on_top():
    prog = parse("""
fn count(n) {
    let i = 0;
    while (i < n) {
        i = i + 1;
    }
    return i;
}

fn test_count() {
    assert(count(2) == 2);
}
""")
    tr = trace(prog, "test_count", {"count"})
    g = build_ddg(prog, [tr])
    fn = prog.functions["count"]
    _, cond_sid, body_sid, ret_sid = statement_ids(fn)
    conds = [e for e in tr.events
             if e.kind in (EXEC, BRANCH) and e.stmt == cond_sid]
    bodies = [e for e in tr.events if e.kind == EXEC and e.stmt == body_sid]
    assert len(conds) == 3 and len(bodies) == 2
    t = tr.test
    parents, all_edges = value_parents(g), edges(g)
    # each body execution is controlled by the latest condition value only
    for cond_ev, body_ev in zip(conds, bodies):
        key = (t, body_ev.writes[0])
        ctrl = [p for p in parents[key] if ("ctrl", p, key) in all_edges]
        assert ctrl == [(t, cond_ev.writes[0])]
    # the predicate is popped at the loop's post-dominator: the return
    # reads the final counter but is not controlled by the condition
    ret_ev = next(e for e in tr.events if e.kind == EXEC and e.stmt == ret_sid)
    ret_key = (t, ret_ev.writes[0])
    assert parents[ret_key] == [(t, bodies[-1].writes[0])]


def _ctrl_parent(g, key):
    """The control parent of value `key`, or None."""
    return next((src for kind, src, dst in edges(g)
                 if kind == "ctrl" and dst == key), None)


CALL_IN_NESTED_IF = """
fn g(x) {
    return x * 2;
}

fn h(n) {
    let r = 0;
    if (n > 0) {
        if (g(n + 1) > 4) {
            r = 1;
        }
    }
    return r;
}

fn test_h() {
    assert(h(2) == 1);
}
"""


@pytest.mark.parametrize("traced", [{"h", "g"}, {"h"}])
def test_condition_calling_a_function_is_controlled_by_the_enclosing_branch(
        traced):
    prog = parse(CALL_IN_NESTED_IF)
    _, outer_sid, inner_sid, body_sid, _ = statement_ids(prog.functions["h"])
    tr = trace(prog, "test_h", traced)
    g = build_ddg(prog, [tr])
    t = tr.test
    outer, inner = (next(e for e in tr.events
                         if e.kind == BRANCH and e.stmt == sid)
                    for sid in (outer_sid, inner_sid))
    arg = next(e for e in tr.events if e.kind == EXEC and e.stmt == inner_sid)
    outer_key, inner_key = (t, outer.writes[0]), (t, inner.writes[0])
    arg_key = (t, arg.writes[0])
    # the argument and the condition's own value are both controlled by
    # the enclosing condition, never by the argument
    assert _ctrl_parent(g, arg_key) == outer_key
    assert _ctrl_parent(g, inner_key) == outer_key
    body = next(e for e in tr.events if e.stmt == body_sid)
    assert _ctrl_parent(g, (t, body.writes[0])) == inner_key
    summaries = [e for e in tr.events if e.kind == CALL_SUMMARY]
    if "g" in traced:
        assert not summaries
    else:
        # an untraced call's summary keeps its control parent
        (summary,) = summaries
        assert summary.stmt == inner_sid and summary.reads == arg.writes
        assert _ctrl_parent(g, (t, summary.writes[0])) == outer_key


CALL_IN_LOOP_CONDITION = """
fn g(x) {
    return x;
}

fn count(n) {
    let i = 0;
    while (g(i + 1) - 1 < n) {
        i = i + 1;
    }
    return i;
}

fn test_count() {
    assert(count(3) == 3);
}
"""


@pytest.mark.parametrize("traced", [{"count", "g"}, {"count"}])
def test_loop_condition_calling_a_function_is_controlled_by_the_last_one(
        traced):
    prog = parse(CALL_IN_LOOP_CONDITION)
    _, cond_sid, _, _ = statement_ids(prog.functions["count"])
    tr = trace(prog, "test_count", traced)
    g = build_ddg(prog, [tr])
    t = tr.test
    at_cond = [e for e in tr.events if e.stmt == cond_sid]
    conds = [(t, e.writes[0]) for e in at_cond if e.kind == BRANCH]
    args = [(t, e.writes[0]) for e in at_cond if e.kind == EXEC]
    summaries = [(t, e.writes[0]) for e in at_cond if e.kind == CALL_SUMMARY]
    assert len(conds) == len(args) == 4
    assert len(summaries) == (0 if "g" in traced else 4)
    # each evaluation of the condition, its argument and its call's summary
    # included, is controlled by the previous evaluation's value
    previous = [None] + conds[:-1]
    assert [_ctrl_parent(g, c) for c in conds] == previous
    assert [_ctrl_parent(g, a) for a in args] == previous
    if summaries:
        assert [_ctrl_parent(g, s) for s in summaries] == previous
    assert check_acyclic(g)


NESTED = """
fn callback(x) {
    return x * 2;
}

fn driver(x) {
    let y = callback(x + 1);
    return y + 3;
}

fn test_nested() {
    assert(driver(1) == 7);
}
"""


def test_virtual_call_edges_bridge_untraced_driver():
    prog = parse(NESTED)
    tr = trace(prog, "test_nested", {"callback"})
    g = build_ddg(prog, [tr])
    t = tr.test
    enter, ret, _, summary = tr.events[:4]
    param = (t, enter.reads[0])
    cb_ret = (t, ret.writes[0])
    drv_ret = (t, summary.writes[0])  # a summary writes its return first
    # the summary's output reads the nested traced call's return value
    parents = value_parents(g)
    assert cb_ret in parents[drv_ret]
    # and the nested call's argument is produced by the summary statement,
    # from the summary's reads, though replay met it before the values
    # produced ahead of it
    assert producers(g)[param] == summary.stmt
    assert parents[param] == [(t, r) for r in summary.reads]
    keys = value_keys(g)
    assert keys.index(param) < keys.index(cb_ret)
    assert check_acyclic(g)


def test_virtual_call_edges_can_be_disabled():
    prog = parse(NESTED)
    tr = trace(prog, "test_nested", {"callback"})
    g_on = build_ddg(prog, [tr], virtual_call_edges=True)
    g_off = build_ddg(prog, [tr], virtual_call_edges=False)
    assert g_off.edge_count() < g_on.edge_count()
    t = tr.test
    param = (t, tr.events[0].reads[0])
    assert param not in producers(g_off)  # argument degrades to an input


EXCEPTIONAL = """
fn risky(x) {
    if (x < 0) {
        throw 7;
    }
    return x;
}

fn test_catch() {
    let z = 0;
    try {
        z = risky(0 - 1);
    } catch (e) {
        z = 5;
    }
    assert(z == 5);
}
"""


def test_caught_exception_controls_handler():
    prog = parse(EXCEPTIONAL)
    tr = trace(prog, "test_catch", {"risky"})
    g = build_ddg(prog, [tr])
    t = tr.test
    catch = next(e for e in tr.events if e.kind == "exception_catch")
    exc = (t, catch.reads[0])
    handler_writes = [e for e in tr.events
                      if e.kind == EXEC and e.reads == () and e.writes
                      and tr.events.index(e) > tr.events.index(catch)]
    key = (t, handler_writes[0].writes[0])
    assert ("ctrl", exc, key) in edges(g)
    g_off = build_ddg(prog, [tr], exception_control=False)
    assert ("ctrl", exc, key) not in edges(g_off)


def test_multi_test_graphs_are_acyclic_and_disjoint():
    prog, traces, g = _cond_graph()
    assert check_acyclic(g)
    # no edge crosses tests
    for kind, src, dst in edges(g):
        if kind != "stmt":
            assert src[0] == dst[0]


def test_a_graph_is_its_traces_graphs_end_to_end():
    prog, traces, g = _cond_graph()
    parts = [build_ddg(prog, [trace_copy(tr)]) for tr in traces]
    assert value_keys(g) == value_keys(parts[0]) + value_keys(parts[1])
    assert sorted(edges(g)) == sorted(edges(parts[0]) + edges(parts[1]))
    n = len(parts[0].value_nodes)
    assert g.evidence_anchors == parts[0].evidence_anchors + [
        (i + n, ok) for i, ok in parts[1].evidence_anchors]


@pytest.mark.parametrize("flags", [(True, True), (False, True),
                                   (True, False), (False, False)])
def test_a_trace_replays_once_per_switch_pair(flags):
    prog, traces = _shared_traces()
    kept = []
    for tr in traces:
        first = build_ddg(prog, [tr], *flags)
        kept.append(tr.segments[flags])
        # a graph shares no array with the segments it was joined from
        for name in ("value_nodes", "producer", "parent_start", "parents",
                     "ctrl"):
            getattr(first, name)[:] = 0
    again = build_ddg(prog, traces[::-1] + traces, *flags)
    assert all(tr.segments[flags] is seg for tr, seg in zip(traces, kept))
    assert_same_graph(again, build_ddg(
        prog, [trace_copy(tr) for tr in traces[::-1] + traces], *flags))


def test_a_trace_made_by_replace_replays_its_own_events():
    prog, traces = _shared_traces()
    tr = traces[1]
    build_ddg(prog, [tr])
    cut = replace(tr, events=tr.events[:len(tr.events) // 2])
    assert tr.segments and not cut.segments
    assert_same_graph(build_ddg(prog, [cut]),
                      build_ddg(prog, [trace_copy(cut)]))


def test_only_a_shared_trace_keeps_its_segments():
    res = localize(parse(COND_TEST))
    assert res.traces and not any(tr.segments for tr in res.traces)
    prog, traces, _ = _cond_graph()
    for flags in [(True, True), (False, False)]:
        build_ddg(prog, res.traces + traces, *flags)
    assert not any(tr.segments for tr in res.traces + traces)


def test_unknown_statement_rejected():
    prog = parse(COND_TEST)
    bad = Trace(test="test_x", status="fail",
                events=[TraceEvent(EXEC, 999, (), (1,))])
    with pytest.raises(MalformedTrace):
        build_ddg(prog, [bad])


def test_unmatched_call_exit_rejected():
    prog = parse(COND_TEST)
    bad = Trace(test="test_x", status="fail",
                events=[TraceEvent(CALL_EXIT, 0,
                                   aux={"callee": "foo", "ret": None,
                                        "array_versions": []})])
    with pytest.raises(MalformedTrace):
        build_ddg(prog, [bad])


def test_dump_ddg_lists_everything():
    _, _, g = _cond_graph()
    text = dump_ddg(g)
    assert text.count("stmt ") >= 3
    assert text.count("evidence ") == len(g.evidence_anchors)
    assert text.count("edge ") == g.edge_count()
