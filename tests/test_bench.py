"""Benchmark-harness tests: mutation enumeration, fault seeding, corpus
integrity, and batch-result shape."""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

from semfl.bench import (
    MutationPoint,
    apply_mutation,
    corpus_seeds,
    enumerate_mutations,
    format_results,
    load_corpus_program,
    load_manifest,
    run_benchmark,
    run_case,
    results_to_json,
    seed_faults,
)
from semfl.errors import NoViableMutants
from semfl.lang import format_program, parse
from semfl.pipeline import RunConfig, localize
from semfl.tracing import profile

from helpers import statement_ids

CORRECT = """
fn foo(a) {
    if (a < 2) {
        a = a + 1;
    }
    return a <= 2;
}

fn test_two() {
    assert(foo(2));
}

fn test_three() {
    assert(!foo(3));
}
"""


def test_enumerate_skips_test_functions():
    prog = parse(CORRECT)
    points = enumerate_mutations(prog)
    app_sids = set(prog.app_statement_ids())
    assert points and all(p.sid in app_sids for p in points)


def test_known_operator_swap_reproduces_fault():
    prog = parse(CORRECT)
    cond_sid = statement_ids(prog.functions["foo"])[0]
    point = next(p for p in enumerate_mutations(prog)
                 if p.sid == cond_sid and p.rewrite == "< -> <=")
    source = apply_mutation(prog, point)
    assert "a <= 2" in source.splitlines()[1]
    mutant = parse(source)
    prof = profile(mutant)
    assert prof.tests["test_two"].status == "fail"
    assert prof.tests["test_three"].status == "pass"
    # statement ids survive the rewrite
    assert mutant.app_statement_ids() == prog.app_statement_ids()


def test_int_literal_mutations_go_both_ways():
    prog = parse("fn f() { return 5; }\nfn test_f() { assert(f() == 5); }")
    rewrites = {p.rewrite for p in enumerate_mutations(prog)}
    assert {"5 -> 6", "5 -> 4"} <= rewrites


def test_literal_rewrite_direction_is_honored():
    prog = parse("fn f() { return 0; }\nfn test_f() { assert(f() == 0); }")
    by_rewrite = {p.rewrite: p for p in enumerate_mutations(prog)
                  if p.slot == "expr"}
    up = parse(apply_mutation(prog, by_rewrite["0 -> 1"]))
    down = parse(apply_mutation(prog, by_rewrite["0 -> -1"]))
    assert profile(up).tests["test_f"].status == "fail"
    assert profile(down).tests["test_f"].status == "fail"
    assert "return 1;" in apply_mutation(prog, by_rewrite["0 -> 1"])
    assert "return -1;" in apply_mutation(prog, by_rewrite["0 -> -1"])


def test_apply_mutation_leaves_program_unchanged():
    prog = load_corpus_program("intervals")
    before = format_program(prog)
    for point in enumerate_mutations(prog):
        assert apply_mutation(prog, point) != before
        assert format_program(prog) == before


# sha256 of the scheduler's mutant texts, one per mutation point joined by
# "\n\0", as drawn by the deep-copying apply_mutation this one replaced
SCHEDULER_MUTANTS = (
    "5f35170b9366c3a72b2596dd9bbf5081116b0a110275d652b9d461f289d65671")


def test_mutant_texts_match_recorded_digest():
    prog = load_corpus_program("scheduler")
    texts = [apply_mutation(prog, p) for p in enumerate_mutations(prog)]
    digest = hashlib.sha256("\n\0".join(texts).encode()).hexdigest()
    assert digest == SCHEDULER_MUTANTS


def test_seed_faults_deterministic_and_viable():
    prog = parse(CORRECT, "correct.mi")
    a = seed_faults(prog, 3, rng_seed=5)
    b = seed_faults(prog, 3, rng_seed=5)
    assert [(s.sid, s.rewrite) for s in a] == [(s.sid, s.rewrite) for s in b]
    for s in a:
        prof = profile(parse(s.source))
        assert prof.num_failing > 0 and prof.num_passing > 0


def test_no_viable_mutants_raises():
    prog = parse("""
fn ident(a) {
    return a;
}

fn test_ident() {
    assert(ident(true));
}
""", "ident.mi")
    with pytest.raises(NoViableMutants):
        seed_faults(prog, 3, rng_seed=0)


# The mutants seed_faults drew for 7 per corpus program, mutation seeds 0-3,
# at step budgets 20,000 and 300, when it still ran every test of every
# candidate to its end (the profile of each mutant).
SEED_DRAWS = Path(__file__).parent / "data" / "seed_draws.json"


def test_seed_faults_draws_as_a_full_profile_did():
    recorded = json.loads(SEED_DRAWS.read_text())
    for e in load_manifest():
        prog = load_corpus_program(e["name"])
        for seed, budgets in recorded[e["name"]].items():
            for budget, cases in budgets.items():
                drawn = seed_faults(prog, 7, int(seed),
                                    step_budget=int(budget))
                assert [f"s{s.sid}[{s.rewrite}]" for s in drawn] == cases, \
                    (e["name"], seed, budget)


# The unmutated test_long needs more than a tenth of a 200-step budget.
SPIN = """
fn spin(n) {
    let i = 0;
    while (i != n) {
        i = i + 1;
    }
    return i;
}

fn test_zero() {
    assert(spin(0) == 0);
}

fn test_long() {
    assert(spin(31) == 31);
}
"""


def test_seed_faults_finishes_tests_that_outrun_a_tenth_of_the_budget():
    prog = parse(SPIN, "spin.mi")
    seeds = seed_faults(prog, 20, rng_seed=0, step_budget=200)
    outcomes = {}
    for s in seeds:
        prof = profile(parse(s.source), step_budget=200)
        outcomes[s.rewrite] = [(t.status, t.reason)
                               for t in prof.tests.values()]
    # `0 -> 1` never lets test_zero leave the loop; the other three keep
    # test_zero passing, so test_long, the only failing test, times out
    timeout = [("pass", ""), ("fail", "timeout")]
    assert outcomes == {"0 -> 1": [("fail", "timeout"), ("pass", "")],
                        "1 -> 0": timeout, "1 -> 2": timeout,
                        "+ -> -": timeout}


# --- corpus ---

def test_manifest_lists_programs_with_tests():
    entries = load_manifest()
    assert len(entries) >= 5
    for e in entries:
        prog = load_corpus_program(e["name"])
        assert list(prog.test_names) == e["tests"]
        assert len(e["tests"]) >= 8


def test_corpus_programs_pass_their_tests():
    for e in load_manifest():
        prof = profile(load_corpus_program(e["name"]))
        failing = [t.test for t in prof.failing]
        assert not failing, f"{e['name']}: {failing}"


def test_corpus_programs_are_seedable():
    prog = load_corpus_program("digits")
    seeds = seed_faults(prog, 2, rng_seed=1, step_budget=20_000)
    assert 1 <= len(seeds) <= 2


# --- batch runs ---

def _seeds():
    return seed_faults(parse(CORRECT, "correct.mi"), 2, rng_seed=5)


def test_run_case_reports_all_rankers():
    r = run_case(_seeds()[0], RunConfig())
    assert not r.error
    assert set(r.hits) == {"semfl", "ochiai", "dstar"}
    for ranker in r.hits:
        assert set(r.hits[ranker]) == {1, 3, 5, 10}
        assert r.ranks[ranker] >= 1


def test_run_benchmark_shape_and_determinism():
    seeds = _seeds()
    configs = [("default", RunConfig()), ("naive", RunConfig(mode="naive"))]
    res = run_benchmark(seeds, configs)
    assert len(res["rows"]) == len(seeds) * len(configs)
    assert set(res["aggregate"]) == {(c, r) for c, _ in configs
                                     for r in ("semfl", "ochiai", "dstar")}
    again = run_benchmark(seeds, configs)
    assert results_to_json(res) == results_to_json(again)


def test_tie_policies_and_failure_reasons():
    # Ochiai ties the fault with other statements in both cases.
    seeds = corpus_seeds(2, 0, ["digits"], step_budget=20_000)
    res = run_benchmark(seeds, [("default", RunConfig())])
    rows = res["rows"]
    assert [(r.case, r.reason) for r in rows] == [
        ("digits.mi#s30[/ -> *]", "exception"),
        ("digits.mi#s14[1 -> 0]", "assert")]
    assert [r.tie_ranks["ochiai"] for r in rows] == [
        {"id": 5, "average": 3.0, "worst": 5},
        {"id": 2, "average": 3.5, "worst": 6}]
    assert [r.tie_ranks["semfl"] for r in rows] == [
        {"id": 1, "average": 1.0, "worst": 1},
        {"id": 3, "average": 3.0, "worst": 3}]
    for r in rows:
        assert {n: t["id"] for n, t in r.tie_ranks.items()} == r.ranks
    ochiai = {(t["policy"], t["reason"]): (t["hits"], t["mean_rank"],
                                           t["cases"])
              for t in res["ties"] if t["ranker"] == "ochiai"}
    assert ochiai[("id", "all")] == (
        {"1": 0, "3": 1, "5": 2, "10": 2}, 3.5, 2)
    assert ochiai[("average", "all")] == (
        {"1": 0, "3": 1, "5": 2, "10": 2}, 3.25, 2)
    assert ochiai[("worst", "all")] == (
        {"1": 0, "3": 0, "5": 1, "10": 2}, 5.5, 2)
    assert ochiai[("worst", "assert")] == (
        {"1": 0, "3": 0, "5": 0, "10": 1}, 6.0, 1)
    assert ochiai[("id", "timeout")] == (
        {"1": 0, "3": 0, "5": 0, "10": 0}, None, 0)
    # the id-order table is the bench's first table
    assert res["aggregate"][("default", "ochiai")] == {1: 0, 3: 1, 5: 2,
                                                       10: 2}
    text = format_results(res)
    assert text.splitlines()[0].split() == [
        "config", "ranker", "top-1", "top-3", "top-5", "top-10", "cases"]
    assert [line for line in text.splitlines()
            if line.startswith("ties:")] == [
        "ties: id", "ties: average", "ties: worst"]
    doc = json.loads(results_to_json(res))
    assert doc["rows"][0]["reason"] == "exception"
    assert doc["rows"][0]["tie_ranks"]["ochiai"]["worst"] == 5
    assert len(doc["ties"]) == 3 * 3 * 4


def test_run_benchmark_empty_configs():
    res = run_benchmark(_seeds(), [])
    assert res["rows"] == [] and res["aggregate"] == {}


def test_naive_and_optimized_agree_end_to_end():
    program = parse(_seeds()[0].source)
    fast = localize(program, RunConfig(mode="optimized"))
    slow = localize(program, RunConfig(mode="naive"))
    for a, b in zip(fast.report.entries, slow.report.entries):
        assert a.sid == b.sid
        assert math.isclose(a.probability, b.probability, abs_tol=1e-9)


def test_perfbench_layers_name_semfl_callables():
    # perfbench's tracer wraps each layer by module and function name; a
    # renamed entry point would break its traced runs.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for span, (module, name) in tracer.LAYERS.items():
        assert module.split(".")[0] == "semfl", span
        fn = getattr(importlib.import_module(module), name, None)
        assert callable(fn), span
