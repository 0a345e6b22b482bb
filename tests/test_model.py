"""Model-construction tests: leak-probability classification, network
structure, evidence handling, and serialization."""

import pytest

from semfl.ddg import build_ddg
from semfl.errors import ConflictingEvidence
from semfl.lang import parse
from semfl.model import (
    FaultNet,
    build_net,
    classify_p0,
    dump_net,
    load_net,
)
from semfl.pipeline import RunConfig
from semfl.tracing import trace

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


def _net(src=COND_TEST, traced=("foo",), cfg=None):
    prog = parse(src)
    traces = [trace(prog, t, set(traced)) for t in prog.test_names]
    ddg = build_ddg(prog, traces)
    return prog, ddg, build_net(ddg, prog, cfg)


def test_classify_boolean_vs_wide_range():
    prog = parse("""
fn f(a) {
    let c = a <= 2;
    let s = a + 1;
    let m = a % 3;
    let b = true;
    let w = f(a);
    if (a > 0) {
        s = 0 - s;
    }
    while (a < 0) {
        a = a + 1;
    }
    return s;
}
""")
    cfg = RunConfig()
    by_kind = {}
    for sid, info in prog.statement_table.items():
        by_kind.setdefault((info.kind, info.root_op), sid)
    expect = {
        ("let", "<="): cfg.p0_moderate,
        ("let", "+"): cfg.p0_low,
        ("let", "%"): cfg.p0_moderate,
        ("let", "boollit"): cfg.p0_moderate,
        ("let", "call"): cfg.p0_low,
        ("if_cond", ">"): cfg.p0_moderate,
        ("while_cond", "<"): cfg.p0_moderate,
        ("assign", "-"): cfg.p0_low,
        ("assign", "+"): cfg.p0_low,
        ("return", "var"): cfg.p0_low,
    }
    for key, p0 in expect.items():
        assert classify_p0(by_kind[key], prog, cfg) == p0, key


def test_net_mirrors_graph_structure():
    prog, ddg, net = _net()
    assert len(net.variables) == ddg.node_count()
    assert len(net.factors) == len(ddg.producer)
    assert set(net.stmt_vars) == set(ddg.statement_nodes)
    for f in net.factors:
        # the statement variable always leads the parent list
        assert net.variables[f.parents[0]].kind == "stmt"
        assert net.variables[f.child].kind == "value"


def test_cond_example_factor_leaks():
    prog, ddg, net = _net()
    cond_sid, assign_sid, ret_sid = prog.functions["foo"].statement_ids()
    leak_by_stmt = {}
    for f in net.factors:
        sid = next(s for s, i in net.stmt_vars.items() if i == f.parents[0])
        leak_by_stmt.setdefault(sid, set()).add(f.p0)
    assert leak_by_stmt[cond_sid] == {0.5}
    assert leak_by_stmt[assign_sid] == {0.01}
    assert leak_by_stmt[ret_sid] == {0.5}  # boolean-shaped comparison


def test_priors_inputs_one_stmts_half():
    prog, ddg, net = _net()
    for key in ddg.input_values():
        assert net.variables[net.value_vars[key]].prior == 1.0
    for idx in net.stmt_vars.values():
        assert net.variables[idx].prior == 0.5


def test_evidence_pass_true_fail_false():
    prog, ddg, net = _net()
    observed = {net.variables[i].name: net.variables[i].evidence
                for i in net.value_vars.values()
                if net.variables[i].evidence is not None}
    assert len(observed) == 2
    assert set(observed.values()) == {True, False}


def test_conflicting_evidence_rejected():
    net = FaultNet()
    i = net.add_variable("V1@t", "value")
    net.set_evidence(i, True)
    net.set_evidence(i, True)  # consistent repeat is fine
    with pytest.raises(ConflictingEvidence):
        net.set_evidence(i, False)


def test_custom_params_propagate():
    cfg = RunConfig(statement_prior=0.3, p0_moderate=0.4, p0_low=0.02)
    prog, ddg, net = _net(cfg=cfg)
    assert all(net.variables[i].prior == 0.3 for i in net.stmt_vars.values())
    assert {f.p0 for f in net.factors} == {0.4, 0.02}


def test_equal_leaks_collapse_distinction():
    cfg = RunConfig(p0_moderate=0.2, p0_low=0.2)
    prog, ddg, net = _net(cfg=cfg)
    assert {f.p0 for f in net.factors} == {0.2}


def test_dump_load_roundtrip():
    prog, ddg, net = _net()
    back = load_net(dump_net(net))
    assert dump_net(back) == dump_net(net)
    assert back.stmt_vars == net.stmt_vars  # keyed by sid, as build_net does
    assert len(back.variables) == len(net.variables)
    assert [f.p0 for f in back.factors] == [f.p0 for f in net.factors]
