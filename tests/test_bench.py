"""Benchmark-harness tests: mutation enumeration, fault seeding, corpus
integrity, and batch-result shape."""

import hashlib
import importlib.util
import json
import math
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from semfl import bench, tracing
from semfl.bench import (
    OP_SWAPS,
    BaseProgram,
    MutationPoint,
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
from semfl.ddg import build_ddg
from semfl.errors import MiniImpSyntaxError, NoViableMutants
from semfl.lang import format_program, parse
from semfl.lang.ast import IntLit, root_op, statement_slots
from semfl.lang.parser import parse_slot
from semfl.lang.printer import format_expr, format_lines
from semfl.model import BOOLEAN_OPS
from semfl.pipeline import RunConfig, localize
from semfl.ranking import DSTAR, OCHIAI, rank, sbfl_report
from semfl.tracing import (
    dump_trace,
    profile,
    program_hash,
    run_test,
)

from helpers import (
    apply_mutation,
    assert_same_graph,
    statement_ids,
    trace_copy,
)
from lbp_reference import run_reference

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


@pytest.mark.parametrize("name", [e["name"] for e in load_manifest()])
def test_a_spliced_mutant_is_the_printed_mutant(name):
    # seeding prints the program once and reprints only a drawn mutant's
    # statement's first line: that must be the whole mutant printed
    prog = load_corpus_program(name)
    lines, heads = format_lines(prog)
    spliced = 0
    for point in enumerate_mutations(prog):
        if not bench._parses(prog, point):
            continue
        with bench.mutated(prog, point):
            assert bench._spliced(lines, heads, prog.statements[point.sid]) \
                == format_program(prog), point
        spliced += 1
    assert spliced
    assert seed_faults(prog, 1, 0, step_budget=20_000)[0].base.text \
        == format_program(prog)


def test_seed_faults_deterministic_and_viable():
    prog = parse(CORRECT, "correct.mi")
    a = seed_faults(prog, 3, rng_seed=5)
    b = seed_faults(prog, 3, rng_seed=5)
    assert [(s.sid, s.rewrite) for s in a] == [(s.sid, s.rewrite) for s in b]
    for s in a:
        prof = profile(parse(s.source))
        assert prof.num_failing > 0 and any(
            r.status == "pass" for r in prof.tests.values())


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


def test_seed_faults_lets_an_internal_error_through(monkeypatch):
    # A mutant that semfl rejects is skipped; a bug in semfl is not.
    prog = parse(CORRECT, "correct.mi")

    def broken(program, test, step_budget):
        raise TypeError("interpreter bug")

    monkeypatch.setattr("semfl.bench.run_test", broken)
    with pytest.raises(TypeError, match="interpreter bug"):
        seed_faults(prog, 3, rng_seed=5)


def test_seed_faults_parses_no_candidate(monkeypatch):
    prog = load_corpus_program("digits")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr("semfl.bench.parse", counting)
    assert len(seed_faults(prog, 7, 0, step_budget=20_000)) == 7
    assert calls == []


def test_seeding_leaves_the_program_as_it_found_it():
    # Candidates run on the program itself: no rewritten slot and no
    # mutant's compiled closures may be left in it. Seeded first with
    # nothing compiled, then with every function its tests call compiled.
    text = format_program(load_corpus_program("intervals"))
    expected = profile(parse(text)).tests
    prog = parse(text)
    for _ in range(2):
        seed_faults(prog, 7, 0, step_budget=20_000)
        assert format_program(prog) == text
        assert profile(prog).tests == expected


@pytest.mark.parametrize("name", ["scheduler", "recurrences"])
def test_a_mutated_program_runs_as_its_reparsed_text(name):
    prog = load_corpus_program(name)
    profile(prog)  # compiled closures that the mutant must not run
    for point in enumerate_mutations(prog):
        reparsed = parse(apply_mutation(prog, point))
        with bench.mutated(prog, point) as mutant:
            for test in prog.test_names:
                assert run_test(mutant, test, 300) \
                    == run_test(reparsed, test, 300), (point, test)


def test_a_mutated_statement_reads_as_the_same_p0_class():
    # `mutated` leaves the statement's root_op at the base's, where the
    # parsed mutant reads the swapped operator, or `-` for a literal
    # rewritten to -1; `classify_p0` must read the two alike.
    for op, swapped in OP_SWAPS.items():
        assert (op in BOOLEAN_OPS) == (swapped in BOOLEAN_OPS), op
    boolean = BOOLEAN_OPS | {"boollit"}
    for e in load_manifest():
        prog = load_corpus_program(e["name"])
        for p in enumerate_mutations(prog):
            base = getattr(prog.statements[p.sid], p.slot)
            parsed = parse_slot(format_expr(p.expr), 1)
            assert len({root_op(x) in boolean
                        for x in (base, p.expr, parsed)}) == 1, p
            if isinstance(p.expr, IntLit):
                assert root_op(parsed) in ("lit", "-"), p


# `parse` rejects two one-slot rewrites: a literal past 64-bit range, and
# `0 -> -1` where the literal is already as deeply nested as the parser
# allows (its function's block and 39 levels: `-1` prints as one more
# unary minus).
OUT_OF_RANGE = """
fn big() {
    return 9223372036854775807;
}

fn test_value() {
    assert(big() == 9223372036854775807);
}

fn test_sign() {
    assert(big() > 0);
}
"""
TOO_DEEP = """
fn deep() {
    return %s0;
}

fn test_value() {
    assert(deep() == 0);
}

fn test_other() {
    assert(true);
}
""" % ("-" * 38)


@pytest.mark.parametrize("source, skipped, drawn", [
    (OUT_OF_RANGE, "9223372036854775807 -> 9223372036854775808",
     "9223372036854775807 -> 9223372036854775806"),
    (TOO_DEEP, "0 -> -1", "0 -> 1"),
], ids=["literal-range", "nesting"])
def test_seeding_skips_a_mutant_parse_rejects(source, skipped, drawn):
    prog = parse(source, "edge.mi")
    point = next(p for p in enumerate_mutations(prog) if p.rewrite == skipped)
    with pytest.raises(MiniImpSyntaxError):
        parse(apply_mutation(prog, point))
    # its tests would have mixed outcomes if it ran
    with bench.mutated(prog, point) as mutant:
        assert [run_test(mutant, t)[0] for t in mutant.test_names] \
            == ["fail", "pass"]
    assert [s.rewrite for s in seed_faults(prog, 2, 0)] == [drawn]


def test_alike_drawn_mutants_are_named_by_occurrence():
    # Seed 8 draws two of the three `==` of `a == b || b == c || a == c`.
    prog = load_corpus_program("geometry")
    drawn = seed_faults(prog, 7, 8, step_budget=300)
    names = [f"s{s.sid}[{s.rewrite}]" for s in drawn]
    assert len(set(names)) == len(names)
    alike = [p for p in enumerate_mutations(prog)
             if p.sid == 23 and p.rewrite == "== -> !="]
    assert len(alike) == 3
    suffixed = {s.rewrite: s.source for s in drawn if "(" in s.rewrite}
    assert sorted(suffixed) == ["== -> != (1)", "== -> != (2)"]
    for k in (1, 2):
        assert suffixed[f"== -> != ({k})"] == apply_mutation(prog,
                                                             alike[k - 1])


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


def _run_case_as_is(monkeypatch, seed, cfg):
    """run_case's result for `seed`, with the `localize` result and the two
    SBFL report texts it computed."""
    seen = {"sbfl": []}

    def capture(program, cfg, given):
        seen["localize"] = localize(program, cfg, given)
        return seen["localize"]

    def capture_sbfl(profile, formula, program):
        report = sbfl_report(profile, formula, program)
        seen["sbfl"].append(report.to_json())
        return report

    with monkeypatch.context() as m:
        m.setattr(bench, "localize", capture)
        m.setattr(bench, "sbfl_report", capture_sbfl)
        result = run_case(seed, cfg)
    return result, seen["localize"], seen["sbfl"]


# At step budget 300, intervals' draw for mutation seed 2 holds a `0 -> -1`
# and an `&& -> ||`; recurrences' holds a `0 -> -1` that times out.
EQUIVALENCE_CASES = [("intervals", 4, "0 -> -1", "exception"),
                     ("intervals", 5, "&& -> ||", "assert"),
                     ("recurrences", 2, "0 -> -1", "timeout")]


@pytest.mark.parametrize("name, index, rewrite, reason", EQUIVALENCE_CASES)
def test_run_case_reports_as_the_parsed_mutant(monkeypatch, name, index,
                                              rewrite, reason):
    cfg = RunConfig(step_budget=300)
    seed = seed_faults(load_corpus_program(name), 7, 2,
                       step_budget=300)[index]
    assert seed.rewrite == rewrite
    result, got, got_sbfl = _run_case_as_is(monkeypatch, seed, cfg)
    assert not result.error and result.reason == reason
    mutant = parse(seed.source, seed.base_path)
    want = localize(mutant, cfg)
    assert got.report.to_json() == want.report.to_json()
    assert got.log == want.log
    assert got_sbfl == [sbfl_report(want.profile, formula, mutant).to_json()
                        for formula in (OCHIAI, DSTAR)]
    assert got.report.metadata["program"] == program_hash(mutant)


@pytest.mark.parametrize("fails", [False, True], ids=["ran", "raised"])
def test_run_case_leaves_the_shared_program_as_it_found_it(monkeypatch,
                                                           fails):
    cfg = RunConfig(step_budget=300)
    first, second = seed_faults(load_corpus_program("intervals"), 7, 2,
                                step_budget=300)[4:6]
    program = first.base.program
    function = program.statement_table[first.sid].function
    if fails:
        def failing(program, cfg, given):
            profile(program, step_budget=300)  # compiles the mutant's closures
            raise RuntimeError("localize failed")

        monkeypatch.setattr(bench, "localize", failing)
    # The first case finds the mutated function not yet compiled, the
    # second its base closures, compiled by a base run.
    for base_run in (False, True):
        if base_run:
            profile(program, step_budget=300)
        closures = program.compiled.get(function)
        result = run_case(first, cfg)
        assert program.compiled.get(function) is closures
    monkeypatch.undo()
    assert result.error == ("RuntimeError: localize failed" if fails else "")
    assert format_program(program) == first.base.text
    assert program.source_text == first.base.text
    assert profile(program, step_budget=300).tests == \
        profile(parse(first.base.text), step_budget=300).tests
    _, got, _ = _run_case_as_is(monkeypatch, second, cfg)
    want = localize(parse(second.source, second.base_path), cfg)
    assert got.report.to_json() == want.report.to_json()


def _tests_run(m):
    """The names of the tests that run, in run order, once `m` has patched
    the interpreter to log them."""
    ran = []
    run = tracing._Executor.run_test

    def logged(ex, test):
        ran.append(test)
        return run(ex, test)

    m.setattr(tracing._Executor, "run_test", logged)
    return ran


# No passing test is traced again, so every test a case runs, its profile
# runs.
NO_PASSING = RunConfig(step_budget=20_000, max_passing_tests=0)


def test_run_case_runs_only_the_tests_that_reach_the_mutant(monkeypatch):
    skipped = 0
    for seed in corpus_seeds(7, 0, step_budget=20_000):
        records = seed.base.records
        with monkeypatch.context() as m:
            ran = _tests_run(m)
            assert not run_case(seed, NO_PASSING).error
        assert ran == [t for t, r in records.items()
                       if seed.sid in r.statements]
        skipped += len(records) - len(ran)
    assert skipped > 0


def test_a_case_at_another_step_budget_runs_every_test(monkeypatch):
    seed = corpus_seeds(1, 0, ["recurrences"], step_budget=20_000)[0]
    assert len(seed.base.given(seed.sid, RunConfig(step_budget=20_000))
               .records) > 0
    with monkeypatch.context() as m:
        ran = _tests_run(m)
        cfg = replace(NO_PASSING, step_budget=20_001)
        assert not run_case(seed, cfg).error
    assert ran == list(seed.base.records)


# test_other fails on the base and never calls inc; test_dec passes on the
# base and never calls inc.
BASE_FAILING = """
fn inc(a) {
    return a + 1;
}

fn dec(a) {
    return a - 1;
}

fn test_inc() {
    assert(inc(1) == 2);
}

fn test_inc_zero() {
    assert(inc(0) == 1);
}

fn test_other() {
    assert(dec(1) == 1);
}

fn test_dec() {
    assert(dec(3) == 2);
}
"""


def test_a_base_failing_test_that_misses_the_mutant_still_runs(monkeypatch):
    prog = parse(BASE_FAILING, "failing.mi")
    assert [t.test for t in profile(prog).failing] == ["test_other"]
    seed = next(s for s in seed_faults(prog, 20, 0) if s.rewrite == "+ -> -")
    assert list(seed.base.given(seed.sid, RunConfig()).records) == \
        ["test_dec"]
    cfg = RunConfig()
    with monkeypatch.context() as m:
        ran = _tests_run(m)
        result, got, got_sbfl = _run_case_as_is(monkeypatch, seed, cfg)
    # the profile's runs, then the one passing test traced again
    assert ran == ["test_inc", "test_inc_zero", "test_other", "test_dec"]
    assert not result.error
    mutant = parse(seed.source, seed.base_path)
    want = localize(mutant, cfg)
    assert got.report.to_json() == want.report.to_json()
    assert got.log == want.log
    assert got_sbfl == [sbfl_report(want.profile, formula, mutant).to_json()
                        for formula in (OCHIAI, DSTAR)]


# --- given traces, shared by a program's cases ---

def _given_traces(m):
    """Once `m` has patched the tracer and `BaseProgram.trace`, which
    serves each case's `given.trace` (`BaseProgram.given`), to log them:
    the traces `tracing.trace` returns, in call order, and the calls of
    `BaseProgram.trace` as (base, test, traced, cfg, trace, whether that
    call recorded it)."""
    log = {"traced": [], "given": []}
    trace, given = tracing.trace, BaseProgram.trace

    def logged_trace(*args, **kwargs):
        log["traced"].append(trace(*args, **kwargs))
        return log["traced"][-1]

    def logged_given(base, test, traced, cfg):
        before = len(log["traced"])
        tr = given(base, test, traced, cfg)
        log["given"].append((base, test, traced, cfg, tr,
                             len(log["traced"]) > before))
        return tr

    m.setattr(tracing, "trace", logged_trace)
    m.setattr(BaseProgram, "trace", logged_given)
    return log


def test_memoized_traces_are_the_mutants_own(monkeypatch):
    seeds = ([(s, 20_000) for s in corpus_seeds(7, 0, step_budget=20_000)]
             + [(s, 300) for s in corpus_seeds(7, 2, step_budget=300)])
    mutants = [parse(seed.source, seed.base_path) for seed, _ in seeds]
    served = {}  # (base, test) -> traced ∩ entered of each serving
    kept = {}  # id -> (memoized trace, program, its dump when recorded)
    fresh = 0  # passing traces of tests that step the mutant
    for period in (3, 0, 3):
        for (seed, budget), mutant in zip(seeds, mutants):
            base, program = seed.base, seed.base.program
            cfg = RunConfig(step_budget=budget, loop_period=period)
            with monkeypatch.context() as m:
                log = _given_traces(m)
                result, res, _ = _run_case_as_is(monkeypatch, seed, cfg)
            assert not result.error
            unreached = base.given(seed.sid, cfg).records
            for _, test, traced, _, tr, recorded in log["given"]:
                assert test in unreached
                if recorded:
                    if any(tr is t for t in base.traces.values()):
                        kept[id(tr)] = (tr, program,
                                        dump_trace(tr, program))
                    continue
                served.setdefault((base, test), set()).add(
                    traced & base.records[test].functions)
                want = tracing.trace(mutant, test, traced,
                                     step_budget=budget, period=period)
                assert tr == want
            # the spy: a passing test that steps the mutant is traced in
            # this case, never served
            for tr in res.traces:
                if not tr.failing and tr.test not in unreached:
                    assert any(tr is t for t in log["traced"]), tr.test
                    fresh += 1
    assert fresh > 0
    assert any(len(keys) > 1 for keys in served.values())
    assert kept and all(dump_trace(tr, program) == dump
                        for tr, program, dump in kept.values())
    # the memo holds traces that a key by test name alone, or one
    # without the period, would confuse
    dumps = {}
    for seed, _ in seeds:
        for (test, functions, period), tr in seed.base.traces.items():
            dumps.setdefault((seed.base, test), {})[functions, period] = \
                dump_trace(tr, seed.base.program)
    assert any(len(set(d.values())) > 1 for d in dumps.values()
               if len({f for f, p in d if p == 3}) > 1)
    assert any(d[f, 0] != d[f, 3] for d in dumps.values()
               for f, p in d if p == 0 and (f, 3) in d)


SWITCH_PAIRS = [(False, True), (True, False), (False, False), (True, True)]


def test_segment_built_graphs_equal_fresh_ones(monkeypatch):
    # localize builds each graph at (True, True); the other pairs then
    # find that pair's segment on the shared traces. The first pass over
    # the 70 cases records 84 given traces (2,241 events) and serves 107.
    cfg = RunConfig(step_budget=20_000)
    second = 0
    given = Counter()
    for seed in corpus_seeds(7, 0, step_budget=20_000):
        with monkeypatch.context() as m:
            log = _given_traces(m)
            result, res, _ = _run_case_as_is(monkeypatch, seed, cfg)
        assert not result.error
        for *_, tr, recorded in log["given"]:
            given["recorded" if recorded else "served"] += 1
            given["events"] += tr.size() if recorded else 0
        mutant = parse(seed.source, seed.base_path)
        for flags in SWITCH_PAIRS:
            second += sum(bool(t.segments) and flags not in t.segments
                          for t in res.traces)
            got = build_ddg(seed.base.program, res.traces, *flags)
            copies = [trace_copy(t) for t in res.traces]
            assert not any(t.segments for t in copies)
            assert_same_graph(got, build_ddg(mutant, copies, *flags))
        assert_same_graph(res.ddg, got)
    assert second > 0
    assert given == {"recorded": 84, "events": 2241, "served": 107}


def test_a_programs_configs_share_its_given_traces(monkeypatch):
    # as `semfl sweep` runs them
    configs = [("p0-low=0.01", RunConfig(step_budget=20_000)),
               ("p0-low=0.001", RunConfig(step_budget=20_000, p0_low=0.001))]
    seeds = corpus_seeds(7, 0, ["sorting"], step_budget=20_000)
    with monkeypatch.context() as m:
        log = _given_traces(m)
        res = run_benchmark(seeds, configs)
    recorded = Counter((cfg.p0_low, rec) for *_, cfg, _, rec in log["given"])
    assert recorded[0.01, True] > 0 and recorded[0.001, False] > 0
    assert recorded[0.001, True] == 0
    fresh = run_benchmark(corpus_seeds(7, 0, ["sorting"],
                                       step_budget=20_000), configs[1:])
    assert [r for r in res["rows"] if r.config == configs[1][0]] == \
        fresh["rows"]
    assert not any(r.error for r in res["rows"])


def test_bench_cases_that_fold_report_as_their_mutants(monkeypatch):
    # At this limit 32 of the 70 cases fold a failing trace, and longer
    # passing traces, given ones among them, are dropped.
    cfg = RunConfig(step_budget=20_000, trace_limit=30)
    folded = 0
    for seed in corpus_seeds(7, 0, step_budget=20_000):
        result, got, _ = _run_case_as_is(monkeypatch, seed, cfg)
        assert not result.error
        want = localize(parse(seed.source, seed.base_path), cfg)
        assert got.report.to_json() == want.report.to_json()
        assert got.log == want.log
        folded += any(line.startswith("adaptive folding") for line in got.log)
    assert folded > 0


def test_an_oversized_given_trace_is_freed_before_the_next_test_runs(
        monkeypatch):
    seeds = corpus_seeds(7, 0, ["sorting"], step_budget=20_000)
    base = seeds[0].base
    refs = []  # to the oversized given traces not yet seen freed
    freed = Counter()
    given, run = BaseProgram.trace, tracing._Executor.run_test

    def spied_given(base, test, traced, cfg):
        was_kept = [id(t) for t in base.traces.values()]
        tr = given(base, test, traced, cfg)
        if tr.raw_events > cfg.trace_limit:
            assert not any(tr is t for t in base.traces.values())
            refs.append((weakref.ref(tr), id(tr) in was_kept))
        return tr

    def check_freed():
        for ref, was_kept in refs:
            assert ref() is None
            freed[was_kept] += 1
        refs.clear()

    def spied_run(ex, test):
        check_freed()
        return run(ex, test)

    # the memo keeps traces of up to 112 events at the default limit; at
    # a limit of 50 the longer ones are served once and let go, then
    # recorded and let go
    for cfg in (RunConfig(step_budget=20_000),
                RunConfig(step_budget=20_000, trace_limit=50),
                RunConfig(step_budget=20_000, trace_limit=50)):
        for seed in seeds:
            with monkeypatch.context() as m:
                m.setattr(BaseProgram, "trace", spied_given)
                m.setattr(tracing._Executor, "run_test", spied_run)
                assert not run_case(seed, cfg).error
            check_freed()
    assert freed[True] > 0 and freed[False] > 0


@pytest.mark.parametrize("budget", [20_000, 300])
def test_a_mutants_profile_with_base_records_is_its_full_profile(budget):
    # Every test runs once: `got` runs the tests that reach the mutant and
    # `full` runs the others, taking `got`'s records of the tests it ran,
    # so `full` is the profile with every test run.
    given = 0
    for e in load_manifest():
        prog = load_corpus_program(e["name"])
        base = seed_faults(prog, 1, 0, step_budget=budget)[0].base
        for point in enumerate_mutations(prog):
            unreached = base.given(point.sid,
                                   RunConfig(step_budget=budget)).records
            given += len(unreached)
            traces, more = {}, {}
            with bench.mutated(prog, point):
                got = profile(prog, budget, failing_traces=traces, period=3,
                              given=unreached)
                ran = {t: r for t, r in got.tests.items()
                       if t not in unreached}
                full = profile(prog, budget, failing_traces=more, period=3,
                               given=ran)
            assert list(full.tests) == list(got.tests)
            assert full.tests == got.tests, point
            assert more == {}, point  # the failing traces are `traces`
            assert set(traces) == {t.test for t in got.failing}
    assert given > 0


@pytest.mark.parametrize("budget", [20_000, 300])
def test_the_printed_program_runs_as_the_file_it_was_seeded_from(budget):
    # Seeding runs the file's program; the cases run its printed form and
    # take the seeding runs' records.
    for e in load_manifest():
        prog = load_corpus_program(e["name"])
        base = seed_faults(prog, 1, 0, step_budget=budget)[0].base
        printed = base.program
        assert _statements(printed) == _statements(prog)
        assert profile(printed, budget).tests == base.records


def _statements(program):
    """Each statement id's function, kind, depth and evaluated slots."""
    return {sid: (info.function, info.kind, info.depth,
                  list(statement_slots(program.statements[sid])))
            for sid, info in program.statement_table.items()}


def test_bench_parses_each_program_once(monkeypatch):
    seeds = corpus_seeds(2, 0, ["digits", "sorting"], step_budget=20_000)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return parse(*args, **kwargs)

    monkeypatch.setattr("semfl.bench.parse", counting)
    configs = [("default", RunConfig(step_budget=20_000)),
               ("no-folding", RunConfig(step_budget=20_000,
                                        adaptive_folding=False))]
    res = run_benchmark(seeds, configs)
    assert not any(r.error for r in res["rows"])
    assert calls == ["digits.mi", "sorting.mi"]


def test_run_benchmark_shape_and_determinism():
    seeds = _seeds()
    configs = [("default", RunConfig()),
               ("no-test-reduction", RunConfig(max_passing_tests=None))]
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


def test_a_case_that_raised_is_listed_after_the_tables(monkeypatch):
    def failing(program, cfg, given):
        raise RuntimeError("localize failed")

    monkeypatch.setattr(bench, "localize", failing)
    seed, = corpus_seeds(1, 0, ["digits"], step_budget=20_000)
    text = format_results(run_benchmark([seed], [("default", RunConfig())]))
    case = f"{seed.base_path}#s{seed.sid}[{seed.rewrite}]"
    assert text.splitlines()[-1] == \
        f"error: {case} [default]: RuntimeError: localize failed"


def test_run_benchmark_empty_configs():
    res = run_benchmark(_seeds(), [])
    assert res["rows"] == [] and res["aggregate"] == {}


def test_naive_and_optimized_agree_end_to_end():
    program = parse(_seeds()[0].source)
    fast = localize(program, RunConfig())
    slow = rank(run_reference(fast.net, naive=True).marginals, fast.net,
                program)
    for a, b in zip(fast.report.entries, slow.entries):
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


# sha256 of each case's report.json and bench record, as perfbench digests
# them, at step budget 20,000
PERFBENCH_DIGESTS = {
    "digits.mi#s30[/ -> *]":
        "a24ec071c9f9bd18d0b8a9e18dc4fdbe29d480d5edb8ef62c836cfe348f61f30",
    "digits.mi#s14[1 -> 0]":
        "309bda8f7fef73c2fa969f33ed27c323a75c6be7ba86a956072f4f0fabb33dde",
}


def test_perfbench_checks_and_digests_bench_cases(monkeypatch):
    # perfbench captures `localize` through a rebound wrapper, checks each
    # case's `ranks` and `hits` and digests its `to_record()`
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # run.py imports `tracer`
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  perfbench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    cfg = RunConfig(step_budget=20_000)
    capture = run.Capture(bench.localize)
    undo = run.rebind(bench.localize, capture)
    try:
        outcomes = [run.run_checked(bench, seed, cfg, capture) for seed in
                    corpus_seeds(2, 0, ["digits"], step_budget=20_000)]
    finally:
        run.restore(undo)
    assert [o.problems for o in outcomes] == [[], []]
    assert [o.hits["top1_hits"] for o in outcomes] == [True, False]
    assert {o.case: o.digest for o in outcomes} == PERFBENCH_DIGESTS
