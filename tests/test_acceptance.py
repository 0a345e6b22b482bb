"""Acceptance suite: ten end-to-end criteria for the localization engine.

Each test prints one `criterion NN: PASS/FAIL` line before asserting, so a
plain run doubles as a checklist.

Criteria 1 and 2 both cover the worked three-statement example. Criterion 1
runs LBP on the example's hand-built network. Criterion 2 runs the whole
pipeline on the example written in MiniImp. That network matches the
hand-built one except for the return statement's leak. MiniImp's `assert`
takes only booleans, so the return is a comparison, and `classify_p0` gives
comparisons the moderate leak instead of the low one. With that leak the
condition ranks last, under LBP and exact enumeration alike. Criterion 2
checks this, then sets the return leak back to the example's low leak and
checks that the condition ranks first with criterion 1's posteriors.

Beside criteria 8 and 9, the benchmark's run checks every case's
report.json against the digests recorded in data/report_digests.json.
"""

import hashlib
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from semfl import bench
from semfl.bench import results_to_json, run_benchmark, seed_faults
from semfl.bench import load_corpus_program, load_manifest
from semfl.ddg import build_ddg
from semfl.inference import run_lbp
from semfl.lang import parse
from semfl.model import build_net, classify_p0
from semfl.pipeline import RunConfig, localize
from semfl.ranking import DSTAR, OCHIAI, rank, sbfl_report
from semfl.reduction import compress_loops
from semfl.tracing import BRANCH, EXEC, profile, trace

from helpers import (
    NetBuilder,
    factor_messages,
    node_count,
    p_faulty,
    statement_ids,
    statement_level_edges,
)
from lbp_reference import exact_marginals, factor_to_var_naive, run_reference

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


def _verdict(num, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


# --- criterion 1: worked-example numeric oracle ---

def _worked_example_net():
    net = NetBuilder()
    s3 = net.add_variable(0.5)
    s4 = net.add_variable(0.5)
    s6 = net.add_variable(0.5)
    for outcome in (True, False):
        v2 = net.add_variable(1.0)
        v3 = net.add_variable(0.5)
        v4 = net.add_variable(0.5)
        v6 = net.add_variable(0.5)
        net.add_factor(v3, [s3, v2], 0.5)
        net.add_factor(v4, [s4, v2, v3], 0.01)
        net.add_factor(v6, [s6, v4], 0.01)
        net.set_evidence(v6, outcome)
    return net.build(), (s3, s4, s6)


def test_criterion_01_worked_example_posteriors():
    t0 = time.perf_counter()
    net, stmts = _worked_example_net()
    res = run_lbp(net, RunConfig())
    faulty = [p_faulty(res, s) for s in stmts]
    expected = [0.707, 0.270, 0.223]
    close = all(abs(a - b) <= 0.005 for a, b in zip(faulty, expected))
    ordered = faulty[0] > faulty[1] > faulty[2]
    naive = run_reference(net, RunConfig(), naive=True)
    agree = all(math.isclose(res.marginals[v], naive.marginals[v],
                             abs_tol=1e-9) for v in range(len(res.marginals)))
    elapsed = time.perf_counter() - t0
    ok = close and ordered and agree and elapsed < 1.0
    assert _verdict(1, ok, f"faulty={[round(p, 4) for p in faulty]}")


# --- criterion 2: end-to-end reproduction of the worked example ---

def _cond_net_by_line(net, ddg, program):
    """Describe a network built from COND_TEST in the worked example's
    names rather than by variable index. `S<line>` is the statement at that
    line, `V<line>` the value it produced, and `V2` the argument of `foo`
    (declared on line 2). Returns the variable count, the statement
    variables with their priors, and per test the sorted (value, prior,
    evidence) triples and (value, statement, parent values) factors."""
    line = {idx: program.statement_table[sid].line
            for sid, idx in net.stmt_vars.items()}
    produced_at = {f.child: line[f.parents[0]] for f in net.factors}
    test_of = {len(net.stmt_vars) + i: ddg.value_key(i)[0]
               for i in range(len(ddg.value_nodes))}

    def name(idx):
        return f"V{produced_at.get(idx, 2)}"

    by_test = {t: {"values": [], "factors": []} for t in test_of.values()}
    for idx, test in test_of.items():
        evidence = None if net.evidence[idx] < 0 else bool(net.evidence[idx])
        by_test[test]["values"].append((name(idx), net.prior[idx], evidence))
    for f in net.factors:
        by_test[test_of[f.child]]["factors"].append(
            (name(f.child), f"S{line[f.parents[0]]}",
             tuple(name(p) for p in f.parents[1:])))
    for desc in by_test.values():
        desc["values"].sort()
        desc["factors"].sort()
    stmts = sorted((f"S{n}", net.prior[idx]) for idx, n in line.items())
    return len(net.prior), stmts, by_test


def _set_leak(net, stmt, p0):
    net.p0[net.edge_var[net.offsets[:-1] + 1] == stmt] = p0


def _worked_example_test(outcome):
    return {
        "values": [("V2", 1.0, None), ("V3", 0.5, None), ("V4", 0.5, None),
                   ("V6", 0.5, outcome)],
        "factors": [("V3", "S3", ("V2",)), ("V4", "S4", ("V2", "V3")),
                    ("V6", "S6", ("V4",))],
    }


def test_criterion_02_end_to_end_cond_example():
    t0 = time.perf_counter()
    program = parse(COND_TEST)
    cond_sid, assign_sid, ret_sid = statement_ids(program.functions["foo"])
    sids = (cond_sid, assign_sid, ret_sid)
    prof = profile(program)
    sbfl_tied = True
    for formula in (OCHIAI, DSTAR):
        rep = sbfl_report(prof, formula, program)
        sbfl_tied &= len({e.probability for e in rep.entries}) == 1
    res = localize(program, RunConfig())
    elapsed = time.perf_counter() - t0
    net = res.net
    cfg = RunConfig()

    # 1. The pipeline builds the worked example's network ...
    structure = _cond_net_by_line(net, res.ddg, program) == (
        3 + 2 * 4, [("S3", 0.5), ("S4", 0.5), ("S6", 0.5)],
        {"test_pass": _worked_example_test(True),
         "test_fail": _worked_example_test(False)})
    # ... with the leaks of the documented rule: the condition and the
    # boolean return get the moderate leak, the arithmetic the low one.
    leak_of = {sid: {f.p0 for f in net.factors
                     if f.parents[0] == net.stmt_vars[sid]} for sid in sids}
    leaks = (all(leak_of[sid] == {classify_p0(sid, program, cfg)}
                 for sid in sids)
             and [leak_of[sid] for sid in sids] ==
             [{cfg.p0_moderate}, {cfg.p0_low}, {cfg.p0_moderate}])

    # 2. Its posteriors are LBP's on the hand-built net with that one leak,
    # and they rank the condition last; exact enumeration agrees.
    hand, hand_stmts = _worked_example_net()
    _set_leak(hand, hand_stmts[2], cfg.p0_moderate)
    hand_res = run_lbp(hand, cfg)
    reported = {e.sid: e.probability for e in res.report.entries}
    faulty = [reported[sid] for sid in sids]
    matches_hand = len(reported) == 3 and all(
        abs(p - p_faulty(hand_res, s)) <= 1e-9
        for p, s in zip(faulty, hand_stmts))
    cond_rank = res.report.rank_of(cond_sid)
    exact_rank = rank(exact_marginals(net), net, program).rank_of(cond_sid)
    last = cond_rank == exact_rank == 3

    # 3. With the worked example's low leak on the return, the same
    # network ranks the condition first with criterion 1's posteriors.
    _set_leak(net, net.stmt_vars[ret_sid], cfg.p0_low)
    low = run_lbp(net, cfg)
    low_report = rank(low.marginals, net, program)
    low_faulty = [p_faulty(low, net.stmt_vars[sid]) for sid in sids]
    rank1 = (low_report.rank_of(cond_sid) == 1
             and all(abs(p - q) <= 0.005
                     for p, q in zip(low_faulty, (0.707, 0.270, 0.223))))

    ok = (sbfl_tied and structure and leaks and matches_hand and last
          and rank1 and elapsed < 5.0)
    _verdict(2, ok, f"sbfl tied={sbfl_tied}, structure={structure}, "
                    f"leaks={leaks}, matches hand net={matches_hand}, "
                    f"condition rank={cond_rank} (exact {exact_rank}), "
                    f"low return leak: faulty="
                    f"{[round(p, 4) for p in low_faulty]}")
    assert sbfl_tied, "SBFL no longer ties the three statements"
    assert structure, "built network is not the worked example's"
    assert leaks, f"leaks {leak_of} differ from classify_p0"
    assert matches_hand, f"posteriors {faulty} differ from the hand-built net"
    assert last, f"condition ranks {cond_rank} (exact {exact_rank}), not 3"
    assert rank1, f"low return leak gives {low_faulty}, not criterion 1's"
    assert elapsed < 5.0


# --- criterion 3: optimized message equivalence ---

def test_criterion_03_factor_message_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(0)
    worst = 0.0
    for _ in range(1000):
        degree = rng.randint(1, 12)
        p0 = rng.choice([0.01, 0.5])
        msgs = []
        for _ in range(degree + 1):  # child + parents
            t = rng.uniform(0.01, 0.99)
            msgs.append((t, 1.0 - t))
        pos = rng.randint(0, degree)
        naive = factor_to_var_naive(p0, msgs, pos)
        # the engine's closed forms, on the edge arrays of one factor
        to_t, to_f = factor_messages(
            np.array([p0]), np.array([0, degree + 1]),
            np.array([t for t, _ in msgs]), np.array([f for _, f in msgs]))
        t, f = to_t[pos], to_f[pos]
        fast = (t / (t + f), f / (t + f))
        worst = max(worst, abs(fast[0] - naive[0]), abs(fast[1] - naive[1]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    assert _verdict(3, ok, f"worst gap={worst:.2e}")


# --- criterion 4: exactness on trees ---

def _random_tree_net(rng):
    net = NetBuilder()
    values = [net.add_variable(1.0)]
    k = rng.randint(2, 6)
    for i in range(k):
        s = net.add_variable(0.5)
        v = net.add_variable(0.5)
        # one value parent each keeps the factor graph a tree
        net.add_factor(v, [s, rng.choice(values)], rng.choice([0.01, 0.5]))
        values.append(v)
    for v in rng.sample(values[1:], rng.randint(1, 2)):
        net.set_evidence(v, rng.random() < 0.5)
    return net.build()


def test_criterion_04_tree_exactness():
    rng = random.Random(1)
    worst = 0.0
    for _ in range(100):
        net = _random_tree_net(rng)
        res = run_lbp(net, RunConfig())
        exact = exact_marginals(net, cap=30)
        for v in range(len(res.marginals)):
            worst = max(worst, abs(res.marginals[v] - exact[v]))
    assert _verdict(4, worst <= 1e-6, f"worst gap={worst:.2e}")


# --- criterion 5: prior fixed point without evidence ---

def test_criterion_05_prior_fixed_point_on_corpus():
    worst = 0.0
    for entry in load_manifest():
        program = load_corpus_program(entry["name"])
        traced = frozenset(f for f in program.functions
                           if not f.startswith("test_"))
        traces = [compress_loops(trace(program, t, traced), program,
                                 period=RunConfig().loop_period)
                  for t in program.test_names]
        net = build_net(build_ddg(program, traces), program)
        net.evidence[:] = -1
        res = run_lbp(net, RunConfig())
        for idx in net.stmt_vars.values():
            worst = max(worst, abs(res.marginals[idx] - 0.5))
    assert _verdict(5, worst <= 1e-9, f"worst deviation={worst:.2e}")


# --- criterion 6: loop compression ---

# In these loops every statement executes in every iteration, so each
# cross-iteration dependency also appears at a kept run boundary.
LOOP_CORPUS = ["""
fn work(n) {
    let s = 0;
    let i = 0;
    while (i < n) {
        s = s + 1;
        if (i == 5) {
            s = s + 100;
        }
        i = i + 1;
    }
    return s;
}

fn test_work() {
    assert(work(20) == 120);
}
""", """
fn alternate(n) {
    let s = 0;
    let i = 0;
    while (i < n) {
        if (i % 2 == 0) {
            s = s + i;
        } else {
            s = s - 1;
        }
        i = i + 1;
    }
    return s;
}

fn test_alternate() {
    assert(alternate(10) == 15);
}
""", """
fn phases(n) {
    let a = 1;
    let i = 0;
    while (i < n) {
        a = a + a;
        if (a > 100) {
            a = a - 100;
        }
        i = i + 1;
    }
    return a;
}

fn test_phases() {
    assert(phases(12) == 96);
}
"""]


# iterations shaped ab x 100, ad, ab x 100: the branch takes `d` once
AB_AD_AB = """
fn shape(n) {
    let s = 0;
    let i = 0;
    while (i < n) {
        if (i == 100) {
            s = s + 2;
        } else {
            s = s + 1;
        }
        i = i + 1;
    }
    return s;
}

fn test_shape() {
    assert(shape(201) == 202);
}
"""


def test_criterion_06_loop_compression():
    # the paper's period 1, and periods up to 3 (the default)
    program = parse(AB_AD_AB)
    _, _, _, branch, d, b, _, _ = statement_ids(program.functions["shape"])
    raw = trace(program, "test_shape", {"shape"})
    dedup_ok = edges_ok = idempotent = True
    for period in (1, 3):
        tr = compress_loops(raw, program, period=period)
        kept = [e.stmt for e in tr.events
                if e.kind in (EXEC, BRANCH) and e.stmt in (branch, b, d)]
        dedup_ok &= kept == [branch, b, branch, d, branch, b]
    for src in LOOP_CORPUS:
        program = parse(src)
        traced = frozenset(f for f in program.functions
                           if not f.startswith("test_"))
        for t in program.test_names:
            tr = trace(program, t, traced)
            before = statement_level_edges(build_ddg(program, [tr]))
            for period in (1, 2, 3):
                once = compress_loops(tr, program, period=period)
                after = statement_level_edges(build_ddg(program, [once]))
                edges_ok &= after == before
                twice = compress_loops(once, program, period=period)
                idempotent &= [e.to_record() for e in twice.events] == \
                              [e.to_record() for e in once.events]
    ok = dedup_ok and edges_ok and idempotent
    assert _verdict(6, ok, f"dedup={dedup_ok}, edges={edges_ok}, "
                           f"idempotent={idempotent}")


# --- criterion 7: linear scaling ---

SCALE = """
fn burn(n) {
    let s = 0;
    let i = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}

fn test_burn() {
    assert(burn(%d) == %d);
}
"""


def _scaled_net(n):
    program = parse(SCALE % (n, n * (n - 1) // 2))
    tr = trace(program, "test_burn", {"burn"})
    g = build_ddg(program, [tr])
    return g, build_net(g, program)


def _lbp_seconds_per_iteration(net):
    cfg = RunConfig(max_iterations=10, convergence_eps=0.0)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        res = run_lbp(net, cfg)
        best = min(best, (time.perf_counter() - t0) / res.iterations)
    return best


def test_criterion_07_linear_scaling():
    g1, net1 = _scaled_net(300)
    g2, net2 = _scaled_net(600)
    size1 = node_count(g1) + g1.edge_count()
    size2 = node_count(g2) + g2.edge_count()
    growth = size2 / size1
    time_ratio = _lbp_seconds_per_iteration(net2) / \
        _lbp_seconds_per_iteration(net1)
    ok = 1.8 <= growth <= 2.2 and time_ratio <= 2.5
    assert _verdict(7, ok, f"graph growth={growth:.3f}, "
                           f"time ratio={time_ratio:.2f}")


# --- criteria 8 and 9: seeded-fault benchmark, determinism ---

# sha256 of each bench case's report.json, by case name; rewrite it with
# `PYTHONPATH=src python tests/test_acceptance.py` only when a change is
# meant to move the reports
REPORT_DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
CORPUS_CONFIGS = [("default", RunConfig(step_budget=20_000))]


def _corpus_seeds():
    """The bench mutants: 7 per corpus program, seed 0, step budget
    20,000."""
    seeds = []
    for entry in load_manifest():
        program = load_corpus_program(entry["name"])
        seeds.extend(seed_faults(program, 7, rng_seed=0, step_budget=20_000))
    return seeds


def _run_digesting_reports(seeds):
    """run_benchmark over seeds, and the sha256 of each case's report.json
    by case name."""
    digests = []

    def digesting(*args):
        res = localize(*args)
        digests.append(
            hashlib.sha256(res.report.to_json().encode()).hexdigest())
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "localize", digesting)
        results = run_benchmark(seeds, CORPUS_CONFIGS)
    cases = [r.case for r in results["rows"]]
    assert len(digests) == len(set(cases)) == len(cases)
    return results, dict(zip(cases, digests))


@pytest.fixture(scope="module")
def corpus_runs():
    seeds = _corpus_seeds()
    first, digests = _run_digesting_reports(seeds)
    second = run_benchmark(seeds, CORPUS_CONFIGS)
    return seeds, first, second, digests


def test_criterion_08_benchmark_beats_baselines(corpus_runs):
    t0 = time.perf_counter()
    seeds, results, _, _ = corpus_runs
    programs = {s.base_path for s in seeds}
    agg = results["aggregate"]
    top5 = {r: agg[("default", r)][5] for r in ("semfl", "ochiai", "dstar")}
    errors = [r for r in results["rows"] if r.error]
    ok = (len(seeds) >= 30 and len(programs) >= 5 and not errors
          and top5["semfl"] >= top5["ochiai"]
          and top5["semfl"] >= top5["dstar"]
          and time.perf_counter() - t0 < 300)
    assert _verdict(8, ok, f"{len(seeds)} mutants, top-5 {top5}")


def test_criterion_09_benchmark_determinism(corpus_runs):
    _, first, second, _ = corpus_runs
    ok = results_to_json(first) == results_to_json(second)
    assert _verdict(9, ok)


def test_bench_reports_match_golden_digests(corpus_runs):
    # every case's report.json, byte for byte as recorded
    *_, digests = corpus_runs
    assert digests == json.loads(REPORT_DIGESTS.read_text())


# --- criterion 10: ablation sanity ---

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


def test_criterion_10_ablations(corpus_runs):
    seeds, _, _, _ = corpus_runs
    program = parse(seeds[0].source)
    fast = localize(program, RunConfig(step_budget=20_000))
    agree = True
    if fast.net.max_factor_degree() <= 20:
        slow = rank(run_reference(fast.net, naive=True).marginals,
                    fast.net, program)
        agree = all(math.isclose(a.probability, b.probability, abs_tol=1e-9)
                    for a, b in zip(fast.report.entries, slow.entries))
    nested = parse(NESTED)
    tr = trace(nested, "test_nested", {"callback"})
    with_edges = build_ddg(nested, [tr], virtual_call_edges=True)
    without = build_ddg(nested, [tr], virtual_call_edges=False)
    severed = without.edge_count() < with_edges.edge_count()
    ok = agree and severed
    assert _verdict(10, ok, f"naive agrees={agree}, "
                            f"virtual edges severed={severed}")


if __name__ == "__main__":
    _, golden = _run_digesting_reports(_corpus_seeds())
    REPORT_DIGESTS.write_text(json.dumps(golden, indent=1, sort_keys=True)
                              + "\n")
