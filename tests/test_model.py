"""Model-construction tests: leak-probability classification, network
structure, priors, and evidence handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semfl.bench import load_corpus_program, seed_faults
from semfl.ddg import build_ddg
from semfl.errors import ConflictingEvidence, SemflError
from semfl.lang import parse
from semfl.lang.printer import format_expr
from semfl.model import build_net, classify_p0
from semfl.inference import run_lbp
from semfl.pipeline import RunConfig, localize
from semfl.ranking import rank
from semfl.tracing import ASSERT_FAIL, ASSERT_PASS, BRANCH, EXEC, trace

from helpers import input_values, node_count, producers, statement_ids
from test_lang import expressions

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
    assert len(net.prior) == node_count(ddg)
    assert len(net.factors) == len(producers(ddg))
    assert set(net.stmt_vars) == set(ddg.statement_nodes)
    stmt_vars = set(net.stmt_vars.values())
    for f in net.factors:
        # the statement variable always leads the parent list
        assert f.parents[0] in stmt_vars
        assert f.child not in stmt_vars


def test_cond_example_factor_leaks():
    prog, ddg, net = _net()
    cond_sid, assign_sid, ret_sid = statement_ids(prog.functions["foo"])
    leak_by_stmt = {}
    for f in net.factors:
        sid = next(s for s, i in net.stmt_vars.items() if i == f.parents[0])
        leak_by_stmt.setdefault(sid, set()).add(f.p0)
    assert leak_by_stmt[cond_sid] == {0.5}
    assert leak_by_stmt[assign_sid] == {0.01}
    assert leak_by_stmt[ret_sid] == {0.5}  # boolean-shaped comparison


def test_priors_inputs_one_stmts_half():
    prog, ddg, net = _net()
    n_stmts = len(net.stmt_vars)
    for idx in input_values(ddg):
        assert net.prior[n_stmts + idx] == 1.0
    for idx in net.stmt_vars.values():
        assert net.prior[idx] == 0.5


def test_evidence_pass_true_fail_false():
    prog, ddg, net = _net()
    observed = net.evidence[net.evidence >= 0].tolist()
    assert sorted(observed) == [0, 1]
    assert not (net.evidence[:len(net.stmt_vars)] >= 0).any()


def test_conflicting_evidence_rejected():
    prog, ddg, _ = _net()
    idx, outcome = ddg.evidence_anchors[0]
    test, vid = ddg.value_key(idx)
    ddg.evidence_anchors.append((idx, outcome))  # consistent repeat is fine
    assert build_net(ddg, prog).evidence[len(ddg.statement_nodes) + idx] \
        == outcome
    ddg.evidence_anchors.append((idx, not outcome))
    with pytest.raises(ConflictingEvidence, match=f"^V{vid}@{test} "):
        build_net(ddg, prog)


def test_values_are_arrays_from_graph_to_marginals():
    program = load_corpus_program("scheduler")
    seed = seed_faults(program, 1, 0, step_budget=5000)[0]
    mutant = parse(seed.source, seed.base_path)
    res = localize(mutant, RunConfig(step_budget=5000))
    ddg, net = res.ddg, res.net
    assert isinstance(ddg.value_nodes, np.ndarray)
    assert ddg.value_nodes.dtype == np.int64
    keys = [ddg.value_key(i) for i in range(len(ddg.value_nodes))]
    assert len(set(keys)) == len(keys)
    # values come trace by trace, in replay order
    order = [tr.test for tr in res.traces]
    assert [test for test, _ in keys] == sorted(
        (test for test, _ in keys), key=order.index)
    key_set = set(keys)
    for tr in res.traces:
        for ev in tr.events:
            if ev.kind in (EXEC, BRANCH):
                assert {(tr.test, w) for w in ev.writes} <= key_set
    anchored = [(tr.test, tr.aliases.get(ev.reads[0], ev.reads[0]))
                for tr in res.traces for ev in tr.events
                if ev.kind in (ASSERT_PASS, ASSERT_FAIL)]
    assert [ddg.value_key(i) for i, _ in ddg.evidence_anchors] == anchored
    assert isinstance(res.inference.marginals, np.ndarray)
    assert res.inference.marginals.dtype == np.float64
    assert len(res.inference.marginals) == len(net.prior)
    idx, outcome = ddg.evidence_anchors[-1]
    test, vid = anchored[-1]
    ddg.evidence_anchors.append((idx, not outcome))
    with pytest.raises(ConflictingEvidence, match=f"^V{vid}@{test} "):
        build_net(ddg, mutant)


def test_custom_params_propagate():
    cfg = RunConfig(statement_prior=0.3, p0_moderate=0.4, p0_low=0.02)
    prog, ddg, net = _net(cfg=cfg)
    assert all(net.prior[i] == 0.3 for i in net.stmt_vars.values())
    assert {f.p0 for f in net.factors} == {0.4, 0.02}


def test_equal_leaks_collapse_distinction():
    cfg = RunConfig(p0_moderate=0.2, p0_low=0.2)
    prog, ddg, net = _net(cfg=cfg)
    assert {f.p0 for f in net.factors} == {0.2}


def test_empty_graph_gives_empty_net():
    prog = parse(COND_TEST)
    net = build_net(build_ddg(prog, []), prog)
    assert net.offsets.tolist() == [0] and len(net.edge_var) == 0
    assert list(net.factors) == [] and net.max_factor_degree() == 0
    res = run_lbp(net)
    assert len(res.marginals) == 0 and res.converged
    assert rank(res.marginals, net, prog).entries[0].executed is False


@st.composite
def small_programs(draw):
    """One function using four drawn expressions in a `let`, an `if` and
    a `return`, and two tests that assert on its result, on a comparison
    of literals or on a boolean literal."""
    e1, e2, e3, e4 = (format_expr(draw(expressions())) for _ in range(4))
    tests = []
    for i in range(2):
        args = ", ".join(str(draw(st.integers(0, 9))) for _ in range(3))
        expected = draw(st.sampled_from(["0", "1", "true", "false"]))
        cond = draw(st.sampled_from([f"f({args}) == {expected}",
                                     f"1 == {expected}", "false", "true"]))
        tests.append(f"fn test_{i}() {{\n    assert({cond});\n}}\n")
    return (f"fn f(a, b, c) {{\n    let x = {e1};\n"
            f"    if ({e2}) {{\n        a = {e3};\n    }}\n"
            f"    return {e4};\n}}\n\n" + "\n".join(tests))


@settings(max_examples=150, deadline=None)
@given(small_programs())
def test_localize_reports_or_raises_semfl_error(src):
    # A test that asserts on literals never calls f: when it is the only
    # failing one, f is not traced and the net models test code alone.
    try:
        res = localize(parse(src), RunConfig(step_budget=2_000))
    except SemflError:
        return
    assert [e.rank for e in res.report.entries] == [1, 2, 3, 4]
    assert all(0.0 <= e.probability <= 1.0 for e in res.report.entries)
