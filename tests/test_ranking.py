"""Ranking tests: report ordering, spectrum-based baselines, method
aggregation, and combine-score export."""

import json
import math

import pytest

from semfl.bench import load_corpus_program, seed_faults
from semfl.ddg import build_ddg
from semfl.lang import parse
from semfl.model import build_net
from semfl.inference import run_lbp
from semfl.ranking import (
    DSTAR,
    OCHIAI,
    Report,
    ReportEntry,
    export_combine_scores,
    method_level,
    rank,
    sbfl_report,
    sbfl_scores,
)
from semfl.tracing import CoverageProfile, CoverageRecord, profile, trace

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


def _report(src=COND_TEST, traced=("foo",)):
    prog = parse(src)
    traces = [trace(prog, t, set(traced)) for t in prog.test_names]
    net = build_net(build_ddg(prog, traces), prog)
    res = run_lbp(net)
    return prog, rank(res.marginals, net, prog)


def test_rank_orders_by_posterior_desc():
    prog, rep = _report()
    probs = [e.probability for e in rep.entries]
    assert probs == sorted(probs, reverse=True)
    assert [e.rank for e in rep.entries] == [1, 2, 3]
    assert all(e.executed for e in rep.entries)


def test_equal_probabilities_break_ties_by_sid():
    prog = parse(COND_TEST)
    entries = rank({}, _StubNet(), prog).entries
    assert [e.sid for e in entries] == prog.app_statement_ids()
    assert [e.rank for e in entries] == [1, 2, 3]
    assert [e.avg_rank for e in entries] == [2.0, 2.0, 2.0]


class _StubNet:
    stmt_vars = {}


def test_unexecuted_statements_trail_with_zero():
    prog = parse("""
fn f(a) {
    if (a > 0) {
        return 1;
    }
    return 2;
}

fn test_f() {
    assert(f(1) == 1);
}
""")
    tr = trace(prog, "test_f", {"f"})
    net = build_net(build_ddg(prog, [tr]), prog)
    rep = rank(run_lbp(net).marginals, net, prog)
    tail = rep.entries[-1]
    assert tail.probability == 0.0 and not tail.executed


# --- spectrum-based baselines ---

def _prof(statements_by_test):
    tests = {}
    for name, (status, stmts) in statements_by_test.items():
        tests[name] = CoverageRecord(test=name, status=status,
                                     functions=set(), statements=set(stmts))
    return CoverageProfile(tests=tests)


def _one_stmt_prog():
    return parse("fn f() { return 1; }\nfn test_f() { assert(f() == 1); }")


def test_ochiai_and_dstar_hand_values():
    prog = _one_stmt_prog()
    sid = prog.app_statement_ids()[0]
    # executed by the only failing test and no passing test
    p = _prof({"test_f": ("fail", {sid})})
    assert sbfl_scores(p, OCHIAI, prog)[sid] == pytest.approx(1.0)
    assert sbfl_scores(p, DSTAR, prog)[sid] == math.inf
    # also executed by one passing test: 1/sqrt(2) and 1/1
    p2 = _prof({"test_f": ("fail", {sid}), "test_g": ("pass", {sid})})
    assert sbfl_scores(p2, OCHIAI, prog)[sid] == pytest.approx(1 / math.sqrt(2))
    assert sbfl_scores(p2, DSTAR, prog)[sid] == pytest.approx(1.0)
    # never covered by a failing test: zero under both formulas
    p3 = _prof({"test_f": ("fail", set()), "test_g": ("pass", {sid})})
    assert sbfl_scores(p3, OCHIAI, prog)[sid] == 0.0
    assert sbfl_scores(p3, DSTAR, prog)[sid] == 0.0


def test_sbfl_unknown_formula_rejected():
    prog = _one_stmt_prog()
    with pytest.raises(ValueError):
        sbfl_scores(_prof({"test_f": ("fail", set())}), "tarantula", prog)


def test_sbfl_report_on_cond_example_is_all_tied():
    prog = parse(COND_TEST)
    prof = profile(prog)
    for formula in (OCHIAI, DSTAR):
        rep = sbfl_report(prof, formula, prog)
        assert len({e.probability for e in rep.entries}) == 1
        assert [e.sid for e in rep.entries] == prog.app_statement_ids()
        assert rep.metadata["formula"] == formula


# --- method scores and combine export ---

def _flat_report(n, fault_probs=()):
    probs = dict(fault_probs)
    entries = []
    scored = sorted(((sid, probs.get(sid, 0.0)) for sid in range(n)),
                    key=lambda x: (-x[1], x[0]))
    for i, (sid, p) in enumerate(scored):
        entries.append(ReportEntry(sid, 1, "f", p, i + 1, i + 1, True))
    return Report(entries)


def test_method_level_takes_max_per_function():
    entries = [
        ReportEntry(0, 1, "f", 0.9, 1, 1, True),
        ReportEntry(1, 2, "f", 0.1, 3, 3, True),
        ReportEntry(2, 1, "g", 0.4, 2, 2, True),
    ]
    rep = Report(sorted(entries, key=lambda e: e.rank))
    assert method_level(rep) == [("f", 0.9), ("g", 0.4)]


def test_combine_scores_normalized_ranks():
    assert export_combine_scores(_flat_report(1)) == [(0, 1.0)]
    out = dict(export_combine_scores(_flat_report(4, {2: 0.5})))
    assert out[2] == 1.0  # rank 1 of 4
    n10 = export_combine_scores(_flat_report(10))
    assert n10[0][1] == 1.0 and n10[-1][1] == pytest.approx(0.1)
    scores = [s for _, s in n10]
    assert scores == sorted(scores, reverse=True)
    rep = _flat_report(10, {6: 0.9, 0: 0.95, 1: 0.94, 2: 0.93, 3: 0.92,
                            4: 0.91, 5: 0.905})
    assert rep.rank_of(6) == 7
    assert dict(export_combine_scores(rep))[6] == pytest.approx(0.4)


def test_report_json_is_stable():
    _, rep = _report()
    assert rep.to_json() == rep.to_json()
    table = rep.to_table()
    assert table.count("\n") == len(rep.entries) + 1


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_dstar_report_is_strict_json():
    program = load_corpus_program("sorting")
    (seed,) = seed_faults(program, 1, 0, step_budget=5000)
    mutant = parse(seed.source, seed.base_path)
    rep = sbfl_report(profile(mutant, step_budget=5000), DSTAR, mutant)
    unbounded = [e.sid for e in rep.entries if e.probability == math.inf]
    assert unbounded
    doc = json.loads(rep.to_json(), parse_constant=_reject_constant)
    # the unbounded scores rank first and are written as null
    assert [s["id"] for s in doc["statements"]
            if s["probability"] is None] == unbounded
    assert [s["rank"] for s in doc["statements"][:len(unbounded)]] == \
           list(range(1, len(unbounded) + 1))
