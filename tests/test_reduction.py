"""Reducer tests: test selection, loop compression, adaptive folding, and
the model-size budget."""

import tracemalloc

import pytest

from semfl.bench import corpus_seeds, load_corpus_program, seed_faults
from semfl.ddg import build_ddg
from semfl.errors import NoFailingTests
from semfl.lang import parse
from semfl.pipeline import RunConfig, localize, traced_function_set
from semfl.reduction import (
    adaptive_fold,
    budget_traces,
    compress_loops,
    select_tests,
)
from semfl.tracing import (
    ASSERT_FAIL,
    ASSERT_PASS,
    BRANCH,
    CALL_ENTER,
    CALL_EXIT,
    CALL_SUMMARY,
    EXEC,
    CoverageProfile,
    CoverageRecord,
    Trace,
    TraceEvent,
    profile,
    trace,
)

from compress_reference import compress_loops as reference_compress_loops
from helpers import (
    assert_compressed_as_compress_loops,
    assert_same_graph,
    check_acyclic,
    statement_ids,
    statement_level_edges,
)


def _profile(entries):
    tests = {}
    for name, status, funcs in entries:
        tests[name] = CoverageRecord(test=name, status=status,
                                     functions=set(funcs), statements=set())
    return CoverageProfile(tests=tests)


def test_select_by_overlap():
    prof = _profile([
        ("test_fail", "fail", {"f", "g", "test_fail"}),
        ("test_p1", "pass", {"f", "g", "h", "test_p1"}),
        ("test_p2", "pass", {"h", "test_p2"}),
        ("test_p3", "pass", {"g", "test_p3"}),
    ])
    assert select_tests(prof, RunConfig()) == \
        ["test_fail", "test_p1", "test_p3"]


def test_select_requires_failing():
    prof = _profile([("test_p", "pass", {"f"})])
    with pytest.raises(NoFailingTests):
        select_tests(prof, RunConfig())


def test_select_single_failing_alone():
    prof = _profile([("test_f", "fail", {"f"})])
    assert select_tests(prof, RunConfig()) == ["test_f"]


def test_select_caps_at_fifty_deterministically():
    entries = [("test_fail", "fail", {"f"})]
    entries += [(f"test_p{i:02}", "pass", {"f"}) for i in range(60)]
    prof = _profile(entries)
    out = select_tests(prof, RunConfig())
    assert len(out) == 51
    assert out[1:] == sorted(out[1:])
    assert select_tests(prof, RunConfig()) == out


def test_select_cap_disabled_by_toggle():
    entries = [("test_fail", "fail", {"f"})]
    entries += [(f"test_p{i:02}", "pass", {"f"}) for i in range(60)]
    prof = _profile(entries)
    cfg = RunConfig(max_passing_tests=None)
    assert len(select_tests(prof, cfg)) == 61


def test_select_without_a_limit_keeps_only_overlapping_tests():
    prof = _profile([
        ("test_fail", "fail", {"f", "test_fail"}),
        ("test_p1", "pass", {"f", "test_p1"}),
        ("test_p2", "pass", {"h", "test_p2"}),
    ])
    assert select_tests(prof, RunConfig(max_passing_tests=None)) == \
        ["test_fail", "test_p1"]
    assert select_tests(prof, RunConfig(max_passing_tests=0)) == ["test_fail"]


# --- loop compression ---

PERIOD = RunConfig().loop_period  # the pipeline's default

# The loop body is "ab" except in iteration 100, where it is "ad".
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
    assert(shape(%d) == %d);
}
"""


def _kept_bodies(n):
    """The branch arm of each loop iteration compression keeps."""
    prog = parse(AB_AD_AB % (n, n + (n > 100)))
    _, _, _, _, d, b, _, _ = statement_ids(prog.functions["shape"])
    out = compress_loops(trace(prog, "test_shape", {"shape"}), prog,
                         period=1)
    arm = {b: "b", d: "d"}
    return [arm[e.stmt] for e in out.events
            if e.kind == EXEC and e.stmt in arm]


def test_dedup_ab100_ad_ab100():
    assert _kept_bodies(201) == ["b", "d", "b"]


def test_dedup_all_identical():
    assert _kept_bodies(4) == ["b"]


LOOPY = """
fn work(n) {
    let s = 0;
    let i = 0;
    while (i < n) {
        if (i == 5) {
            s = s + 100;
        } else {
            s = s + 1;
        }
        i = i + 1;
    }
    return s;
}

fn test_work() {
    assert(work(20) == 119);
}
"""


def _cond_exec_count(tr, prog, fn="work"):
    loops = prog.functions[fn].loop_bodies()
    cond = next(iter(loops))
    return sum(1 for e in tr.events
               if e.kind in (EXEC, BRANCH) and e.stmt == cond)


def test_compress_keeps_distinct_iterations():
    prog = parse(LOOPY)
    tr = trace(prog, "test_work", {"work"})
    out = compress_loops(tr, prog, period=1)
    # shape runs: 5 "else" iterations, 1 "then", 14 "else", final check
    assert _cond_exec_count(tr, prog) == 21
    assert _cond_exec_count(out, prog) == 4
    assert len(out.events) < len(tr.events)


def test_compress_is_idempotent():
    prog = parse(LOOPY)
    tr = trace(prog, "test_work", {"work"})
    for period in (1, 2, 3):
        once = compress_loops(tr, prog, period=period)
        twice = compress_loops(once, prog, period=period)
        assert [e.to_record() for e in twice.events] == \
               [e.to_record() for e in once.events]
        assert once.aliases and twice.aliases == once.aliases


ASSERT_IN_LOOP = """
fn f(x) {
    return x * 2 + 1;
}

fn test_loop() {
    let i = 0;
    while (i < 5) {
        i = i + 1;
        assert(f(i) != 7);
    }
}
"""


def test_compress_keeps_a_failing_assert_iteration():
    # the failing third iteration has the passing iterations' statements
    prog = parse(ASSERT_IN_LOOP)
    tr = trace(prog, "test_loop", {"f"})
    out = compress_loops(tr, prog, period=PERIOD)

    def outcomes(t):
        return [e.kind == ASSERT_PASS for e in t.events
                if e.kind in (ASSERT_PASS, ASSERT_FAIL)]
    assert outcomes(tr) == [True, True, False]
    assert outcomes(out) == [True, False]


CALL_IN_LOOP = """
fn inc(x) {
    return x + 1;
}

fn work(n) {
    let s = 0;
    let i = 0;
    while (i < n) {
        if (i == 5) {
            s = inc(s) + 100;
        } else {
            s = inc(s);
        }
        i = i + 1;
    }
    return s;
}

fn test_work() {
    assert(work(20) == 120);
}
"""


def _referenced(ev):
    """Value ids an event names: its reads, and what a call exit hands
    back."""
    aux = ev.aux
    vids = list(ev.reads) + list(aux.get("array_versions", ()))
    vids += [aux[k] for k in ("ret", "thrown") if aux.get(k) is not None]
    return vids


def test_compress_rebinds_aux_values_of_removed_iterations():
    # The call in the kept `i == 5` iteration passes the `s` of a removed
    # iteration; its parameters resolve through the aliases like plain reads.
    prog = parse(CALL_IN_LOOP)
    tr = trace(prog, "test_work", {"work", "inc"})
    out = compress_loops(tr, prog, period=PERIOD)
    kept = {w for e in out.events for w in e.writes}
    removed = {w for e in tr.events for w in e.writes} - kept
    referenced = {v for e in out.events for v in _referenced(e)} & removed
    assert referenced
    assert referenced <= out.aliases.keys()
    assert {out.aliases[v] for v in referenced} <= kept


# A condition that passes a computed argument to a call evaluates that
# argument as an event of its own statement before the condition itself.
CALL_IN_CONDITION = """
fn g(x) {
    return x;
}

fn count(n) {
    let i = 0;
    while (%s < n) {
        i = i + 1;
    }
    return i;
}

fn test_count() {
    assert(count(50) == 50);
}
"""


def _condition_events(tr, prog):
    """The branch events of the loop condition."""
    cond = next(iter(prog.functions["count"].loop_bodies()))
    return [e for e in tr.events if e.kind == BRANCH and e.stmt == cond]


@pytest.mark.parametrize("traced", [{"count", "g"}, {"count"}])
@pytest.mark.parametrize("cond", ["g(i + 1) - 1", "g(i)"])
def test_compress_starts_iterations_at_the_condition_not_its_arguments(
        cond, traced):
    prog = parse(CALL_IN_CONDITION % cond)
    tr = trace(prog, "test_count", traced)
    log = []
    out = compress_loops(tr, prog, log, period=PERIOD)
    assert len(_condition_events(tr, prog)) == 51
    # the first iteration and the final check
    assert len(_condition_events(out, prog)) == 2
    assert log == [f"loop compression: test_count: removed 49 iterations "
                   f"({len(tr.events)} -> {len(out.events)} events)"]


# Every statement here executes in every iteration, so each cross-iteration
# dependency also shows up at a kept run boundary and survives deduplication.
UNIFORM_LOOP = """
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
"""


def test_compress_preserves_statement_level_edges():
    prog = parse(UNIFORM_LOOP)
    tr = trace(prog, "test_work", {"work"})
    before = statement_level_edges(build_ddg(prog, [tr]))
    after = statement_level_edges(
        build_ddg(prog, [compress_loops(tr, prog, period=1)]))
    assert after == before


# The loop body alternates between the two arms: a run of period 2.
ALTERNATE = """
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
"""


@pytest.mark.parametrize("period", [1, 2, 3])
def test_compress_removes_a_period_two_run(period):
    prog = parse(ALTERNATE)
    tr = trace(prog, "test_alternate", {"alternate"})
    log = []
    out = compress_loops(tr, prog, log, period=period)
    before = statement_level_edges(build_ddg(prog, [tr]))
    assert statement_level_edges(build_ddg(prog, [out])) == before
    if period == 1:
        assert out.events == tr.events and log == []
    else:
        # three iterations kept, then the exit check
        assert (len(tr.events), len(out.events)) == (48, 20)
        assert log == ["loop compression: test_alternate: removed 7 "
                       "iterations (48 -> 20 events) (period 2: 7)"]


def test_compress_memory_does_not_grow_with_the_period():
    # The period only bounds how far back a repeat is looked for, so even
    # a huge one costs no memory of its own.
    prog = parse(ALTERNATE)
    tr = trace(prog, "test_alternate", {"alternate"})
    log = []
    tracemalloc.start()
    try:
        out = compress_loops(tr, prog, log, period=10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert out.events == compress_loops(tr, prog, period=PERIOD).events
    assert log == ["loop compression: test_alternate: removed 7 "
                   "iterations (48 -> 20 events) (period 2: 7)"]


def _ancestor_statements(g, sid):
    """The statements that produced some ancestor of a value of `sid`."""
    start = g.parent_start.tolist()
    parents = g.parents.tolist()
    todo = [i for i, p in enumerate(g.producer.tolist()) if p == sid]
    seen = set(todo)
    while todo:
        i = todo.pop()
        for p in parents[start[i]:start[i + 1]]:
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return {int(g.producer[i]) for i in seen} - {-1}


@pytest.mark.parametrize("period", [1, 2, 3])
def test_compress_keeps_the_odd_iteration_an_ancestor(period):
    # LOOPY's iterations are shaped e x 5, t, e x 14. Aliasing an `e` after
    # the `t` back to the first `e` would cut the `t` off the return value.
    prog = parse(LOOPY)
    _, _, _, _, odd, _, _, ret = statement_ids(prog.functions["work"])
    tr = trace(prog, "test_work", {"work"})
    out = compress_loops(tr, prog, period=period)
    assert odd in _ancestor_statements(build_ddg(prog, [out]), ret)
    assert _cond_exec_count(out, prog) == 4


NESTED_LOOPS = """
fn grind() {
    let acc = 0;
    let o = 0;
    while (o < 2) {
        let x = o * o - o;
        let j = 0;
        while (j < 3) {
            acc = acc + x;
            j = j + 1;
        }
        o = o + 1;
    }
    return acc;
}

fn test_grind() {
    assert(grind() == 0);
}
"""


def test_inner_loops_compress_first():
    prog = parse(NESTED_LOOPS)
    tr = trace(prog, "test_grind", {"grind"})
    out = compress_loops(tr, prog, period=PERIOD)
    fn = prog.functions["grind"]
    loops = fn.loop_bodies()
    outer = min(loops)  # outer while has the smaller statement id
    inner = max(loops)
    body_assign = sorted(loops[inner])[0]

    def count(tr_, sid):
        return sum(1 for e in tr_.events
                   if e.kind in (EXEC, BRANCH) and e.stmt == sid)

    # inner: per outer iteration 3 identical body iterations -> 1; the two
    # outer iterations then become identical and collapse as well
    assert count(out, body_assign) == 1
    assert count(out, outer) == 2  # one kept body iteration + exit check
    assert count(out, inner) == 2


def test_compressed_trace_still_replays_into_a_dag():
    prog = parse(NESTED_LOOPS)
    tr = compress_loops(trace(prog, "test_grind", {"grind"}), prog,
                        period=PERIOD)
    assert check_acyclic(build_ddg(prog, [tr]))


def _assert_compresses_like_reference(tr, prog):
    # The reference re-binds the kept events' value ids; compress_loops
    # keeps the events as they are and leaves that to the graph builder.
    log, ref_log = [], []
    out = compress_loops(tr, prog, log, period=1)
    ref = reference_compress_loops(tr, prog, ref_log)
    assert [(e.kind, e.stmt, e.writes) for e in out.events] == \
           [(e.kind, e.stmt, e.writes) for e in ref.events], tr.test
    assert log == ref_log
    assert out.status == ref.status
    assert_same_graph(build_ddg(prog, [out]), build_ddg(prog, [ref]))


@pytest.mark.parametrize("name", ["sorting", "scheduler", "digits"])
def test_compress_matches_reference_on_corpus_mutants(name):
    program = load_corpus_program(name)
    for seed in seed_faults(program, 3, 0, step_budget=5000):
        mutant = parse(seed.source, seed.base_path)
        prof = profile(mutant, step_budget=5000)
        traced = traced_function_set(prof)
        for test in mutant.test_names:
            _assert_compresses_like_reference(
                trace(mutant, test, traced, step_budget=5000), mutant)


# No corpus function nests loops; here loops nest three deep, around calls
# with loops of their own, a caught exception and array writes, and the
# test's own loop runs the whole nest with a failing assert.
NESTED_GRID = """
fn fill(a, n) {
    let i = 0;
    while (i < n) {
        a[i] = i % 3;
        i = i + 1;
    }
    return a;
}

fn risky(x) {
    if (x == 4) {
        throw 7;
    }
    return x + 1;
}

fn grid(n) {
    let a = [0, 0, 0, 0, 0, 0];
    fill(a, 6);
    let total = 0;
    let r = 0;
    while (r < n) {
        let c = 0;
        while (c < n) {
            try {
                total = total + risky(c) * a[c % 6];
            } catch (e) {
                total = total - e;
            }
            let k = 0;
            while (k < 2) {
                k = k + 1;
            }
            c = c + 1;
        }
        if (r == 2) {
            total = total + 1;
        }
        r = r + 1;
    }
    return total;
}

fn test_grid_small() {
    assert(grid(3) == 25);
}

fn test_grid_rows() {
    let i = 0;
    while (i < 3) {
        assert(grid(4 + i) > 10);
        i = i + 1;
    }
}
"""


@pytest.mark.parametrize("traced", [{"fill", "risky", "grid"}, {"grid"}, ()])
def test_compress_matches_reference_on_nested_loops(traced):
    prog = parse(NESTED_GRID)
    for test in prog.test_names:
        _assert_compresses_like_reference(trace(prog, test, traced), prog)


# --- loop compression while a test runs ---

def test_bench_mutants_compress_loops_as_they_run():
    # every failing trace the profile run records and every selected
    # passing trace, as `localize` gets them
    for seed in corpus_seeds(7, 0, step_budget=20_000):
        mutant = parse(seed.source, seed.base_path)
        prof = profile(mutant, step_budget=20_000)
        traced = traced_function_set(prof)
        app = {f for f in mutant.functions if not f.startswith("test_")}
        raw = {t: trace(mutant, t, app if prof.tests[t].status == "fail"
                        else traced, step_budget=20_000)
               for t in select_tests(prof, RunConfig())}
        for period in (1, 2, 3):
            recorded = {}
            profile(mutant, step_budget=20_000, failing_traces=recorded,
                    period=period)
            for test, tr in raw.items():
                online = (recorded[test] if test in recorded
                          else trace(mutant, test, traced, step_budget=20_000,
                                     period=period))
                assert_compressed_as_compress_loops(online, tr, mutant, period)


# Loop runs an exception or a timeout cuts short, whose last iteration the
# event recorded after them belongs to in a raw trace: a caught exception
# (`f`, `h`, `rec`) or a test's failing evidence (`test_c`, `test_g`). A
# timeout in the condition of `spin` or of `test_g`'s loop ends a whole
# iteration, which goes; its last write is a timeout's evidence. In `rec`,
# the exception is caught in the loop body but was thrown by a statement
# after the loop, in a deeper call of the same function.
UNWOUND_LOOPS = """
fn f(n) {
    let i = 0;
    let s = 0;
    try {
        while (i < n) {
            s = s + 1;
            if (i == 7) {
                throw 3;
            }
            i = i + 1;
        }
    } catch (e) {
        s = s + e;
    }
    return s;
}

fn g(n) {
    let i = 0;
    while (i < n) {
        i = i + 1;
        if (i == 5) {
            throw 9;
        }
    }
    return i;
}

fn h(n) {
    let o = 0;
    let acc = 0;
    while (o < n) {
        try {
            let j = 0;
            while (j < 4) {
                acc = acc + g(j + o);
                j = j + 1;
            }
        } catch (e) {
            acc = acc - 1;
        }
        o = o + 1;
    }
    return acc;
}

fn rec(n) {
    let i = 0;
    while (i < 3) {
        if (n > 0) {
            try {
                rec(n - 1);
            } catch (e) {
                i = i + 0;
            }
        }
        i = i + 1;
    }
    if (n == 0) {
        throw 1;
    }
    return n;
}

fn spin(n) {
    let s = 0;
    while (true) {
        s = s + n;
    }
    return s;
}

fn test_a() { assert(f(20) == 11); }
fn test_b() { assert(h(6) == 0); }
fn test_c() { let i = 0; while (i < 100) { i = i + 1; let z = g(i); } }
fn test_d() { let k = 0; while (k < 50) { k = k + 1; } let q = spin(k); }
fn test_e() { assert(rec(2) == 2); }
fn test_g() { let k = 0; while (true) { k = k + 1; } }
"""


@pytest.mark.parametrize("test", parse(UNWOUND_LOOPS).test_names)
def test_loops_cut_short_compress_as_compress_loops_does(test):
    program = parse(UNWOUND_LOOPS)
    traced = {f for f in program.functions if not f.startswith("test_")}
    for budget in (*range(40, 130), 1000):
        raw = trace(program, test, traced, step_budget=budget)
        for period in (1, 2, 3):
            online = trace(program, test, traced, step_budget=budget,
                           period=period)
            assert_compressed_as_compress_loops(online, raw, program, period)


# `check` is untraced, and `spin` calls it in its loop condition: when the
# steps run out in `check`, its summary is the last value written, at the
# end of an iteration shaped like the ones before it, which goes when the
# timeout leaves `spin`.
SUMMARY_SPIN = """
fn check(n) {
    let i = 0;
    while (i < n) {
        i = i + 1;
    }
    return i == n;
}

fn spin(k) {
    while (check(k)) {
        k = k + 0;
    }
    return k;
}

fn test_spin() {
    assert(spin(2) == 2);
}
"""


def test_a_removed_summary_is_a_timeouts_last_write():
    program = parse(SUMMARY_SPIN)
    removed = 0
    for budget in range(40, 100):
        raw = trace(program, "test_spin", {"spin"}, step_budget=budget)
        producer = {w: e for e in raw.events for w in e.writes}
        summary = producer[raw.events[-1].reads[0]].kind == CALL_SUMMARY
        for period in (1, 2, 3):
            online = trace(program, "test_spin", {"spin"}, step_budget=budget,
                           period=period)
            assert_compressed_as_compress_loops(online, raw, program, period)
            removed += summary and online.events[-1].reads[0] in online.aliases
    assert removed


# --- adaptive folding ---

def _exec(stmt, vid, reads=()):
    return TraceEvent(EXEC, stmt, tuple(reads), (vid,))


def _call_block(callee, stmt, events, params=(), ret=None):
    enter = TraceEvent(CALL_ENTER, stmt, tuple(params),
                       aux={"callee": callee})
    exit_ = TraceEvent(CALL_EXIT, stmt,
                       aux={"callee": callee, "ret": ret,
                            "array_versions": []})
    return [enter] + events + [exit_]


def _synthetic_trace(limit_test=False):
    vid = [0]

    def nxt():
        vid[0] += 1
        return vid[0]

    events = []
    for callee, stmt, n in (("aa", 1, 800), ("bb", 2, 500), ("cc", 3, 100)):
        inner = [_exec(10 + stmt, nxt()) for _ in range(n)]
        events += _call_block(callee, stmt, inner, params=[nxt()], ret=nxt())
    return Trace(test="test_t", status="fail", reason="assert", events=events)


def test_fold_largest_method_only():
    tr = _synthetic_trace()
    cfg = RunConfig(trace_limit=1200)
    out = adaptive_fold(tr, cfg)
    assert out.size() <= 1200
    kinds = {}
    for e in out.events:
        if e.kind == CALL_SUMMARY:
            kinds[e.aux["callee"]] = e
    assert set(kinds) == {"aa"}  # only the largest method folded
    assert sum(1 for e in out.events if e.kind == EXEC and e.stmt == 12) == 500
    assert not out.warning


def test_fold_identity_when_under_limit():
    tr = _synthetic_trace()
    cfg = RunConfig(trace_limit=5000)
    out = adaptive_fold(tr, cfg)
    assert [e.to_record() for e in out.events] == \
           [e.to_record() for e in tr.events]


def test_fold_summary_contract():
    inner = [_exec(11, 5), _exec(11, 6)]
    events = _call_block("aa", 1, inner, params=[1, 2], ret=6)
    tr = Trace(test="test_t", status="fail", events=events)
    out = adaptive_fold(tr, RunConfig(trace_limit=2))
    assert len(out.events) == 1
    s = out.events[0]
    assert s.kind == CALL_SUMMARY
    assert s.reads == (1, 2)
    assert 6 in s.writes


def test_fold_preserves_nested_traced_calls():
    nested = _call_block("inner_fn", 7, [_exec(20, 9)], params=[8], ret=9)
    events = _call_block("aa", 1, [_exec(11, 5)] + nested + [_exec(11, 10)],
                         params=[1], ret=10)
    tr = Trace(test="test_t", status="fail", events=events)
    out = adaptive_fold(tr, RunConfig(trace_limit=5))
    kinds = [e.kind for e in out.events]
    assert kinds == [CALL_ENTER, EXEC, CALL_EXIT, CALL_SUMMARY]
    assert out.events[0].aux["callee"] == "inner_fn"
    assert out.events[-1].aux["callee"] == "aa"


def _kinds(tr):
    return [e.kind for e in tr.events]


def test_fold_self_calling_target_keeps_outer_summary():
    inner = _call_block("aa", 1, [_exec(11, 4)]
                        + _call_block("cc", 3, [_exec(30, 5)], [4], 5)
                        + [_exec(11, 7)], params=[3], ret=7)
    events = _call_block("aa", 1, [_exec(11, 2)]
                         + _call_block("bb", 2, [_exec(20, 3)], [2], 3)
                         + inner + [_exec(11, 9)], params=[1], ret=9)
    tr = Trace(test="test_t", status="fail", events=events)
    out = adaptive_fold(tr, RunConfig(trace_limit=7))
    # the non-target calls nested at any depth are hoisted, in order
    assert _kinds(out) == [CALL_ENTER, EXEC, CALL_EXIT] * 2 + [CALL_SUMMARY]
    assert [e.aux["callee"] for e in out.events if e.kind == CALL_ENTER] \
        == ["bb", "cc"]
    summary = out.events[-1]
    assert summary.aux["callee"] == "aa"
    assert (summary.reads, summary.writes) == ((1,), (9,))


CALLS_AA = """
fn aa(x) {
    return x;
}

fn test_t() {
    assert(aa(1) == 1);
}
"""


def test_reducers_take_any_call_depth():
    # deeper than Python's recursion limit: no reducer recurses per call
    depth = 5_000
    enter, exit_ = _call_block("aa", 2, [], params=[2])
    nest = [enter] * depth + [exit_] * depth
    tr = Trace(test="test_t", status="fail", events=nest)
    out = compress_loops(tr, parse(CALLS_AA), period=PERIOD)
    assert [e.to_record() for e in out.events] == \
           [e.to_record() for e in nest]
    tr = Trace(test="test_t", status="fail",
               events=[enter] * depth + [_exec(11, 3)] + [exit_] * depth)
    out = adaptive_fold(tr, RunConfig(trace_limit=10))
    assert _kinds(out) == [CALL_SUMMARY]
    assert out.events[0].reads == (2,)


def test_fold_cannot_reach_limit_truncates():
    events = [_exec(1, i + 1) for i in range(2000)]
    tr = Trace(test="test_t", status="fail", events=events)
    out = adaptive_fold(tr, RunConfig(trace_limit=1200))
    assert out.size() == 1200
    assert out.warning == "cannot reach trace limit by folding; truncated"


SPIN = """
fn spin(n) {
    let i = n;
    while (i > 0) {
        i = i + 1;
    }
    return i;
}

fn test_spin() {
    assert(spin(3) == 3);
}
"""


@pytest.mark.parametrize("compression, step_budget", [(False, 2000),
                                                     (True, 2001)])
def test_fold_keeps_a_producer_for_the_timeout_evidence(compression,
                                                        step_budget):
    # the evidence reads the last value `spin` wrote before its steps ran
    # out, and the summary folding `spin` is what is left to write it; at
    # 2,001 steps that value is in an iteration compression removed
    res = localize(parse(SPIN), RunConfig(
        trace_limit=3, step_budget=step_budget,
        loop_period=3 if compression else 0))
    (tr,) = res.traces
    assert (tr.events[-1].reads[0] in tr.aliases) == compression
    assert "adaptive folding: test_spin: folded ['spin'] -> 2 events" \
        in res.log
    summary, evidence = tr.events
    assert summary.kind == CALL_SUMMARY and evidence.kind == ASSERT_FAIL
    assert summary.writes == tuple(tr.aliases.get(v, v)
                                   for v in evidence.reads)
    ((anchor, _),) = res.ddg.evidence_anchors
    assert res.ddg.producer[anchor] >= 0


def test_fold_hands_the_timeout_evidence_out_of_nested_calls():
    # `aa` ran out of steps inside a call of itself
    inner = [TraceEvent(CALL_ENTER, 1, (2,), aux={"callee": "aa"}),
             _exec(11, 3), TraceEvent(CALL_EXIT, 1, aux={"callee": "aa"})]
    events = ([TraceEvent(CALL_ENTER, 1, (1,), aux={"callee": "aa"}),
               _exec(11, 2)] + inner
              + [TraceEvent(CALL_EXIT, 1, aux={"callee": "aa"}),
                 TraceEvent(ASSERT_FAIL, 11, (3,))])
    tr = Trace(test="test_t", status="fail", reason="timeout", events=events)
    out = adaptive_fold(tr, RunConfig(trace_limit=2))
    assert _kinds(out) == [CALL_SUMMARY, ASSERT_FAIL]
    assert (out.events[0].reads, out.events[0].writes) == ((1,), (3,))


# `inc` is wrong, and the assert `check` fails is the only failing evidence.
FOLDED_ASSERT = """
fn inc(x) {
    return x + 2;
}

fn check(x) {
    let i = 0;
    while (i < 20) {
        i = i + 1;
    }
    assert(x == 1);
    return x;
}

fn test_a() {
    check(inc(0));
}

fn test_b() {
    assert(inc(-1) == 1);
}
"""


def test_fold_keeps_a_failed_assert_of_a_folded_call():
    res = localize(parse(FOLDED_ASSERT), RunConfig(
        trace_limit=10, loop_period=0))
    assert "adaptive folding: test_a: folded ['check'] -> 5 events" \
        in res.log
    (tr,) = [t for t in res.traces if t.failing]
    summary, evidence = tr.events[-2:]
    assert (summary.kind, summary.aux["callee"]) == (CALL_SUMMARY, "check")
    # the summary writes the value the assert read, right before the assert
    assert evidence.kind == ASSERT_FAIL
    assert summary.writes == evidence.reads
    anchors = [idx for idx, ok in res.ddg.evidence_anchors if not ok]
    assert len(anchors) == 1 and res.ddg.producer[anchors[0]] >= 0


# --- model budget ---

def _sized(name, status, n):
    return Trace(test=name, status=status,
                 events=[_exec(1, i + 1) for i in range(n)])


def test_budget_failing_only_when_over():
    traces = [_sized("test_f", "fail", 1100), _sized("test_p", "pass", 10)]
    out = budget_traces(traces, RunConfig(model_limit=1000))
    assert [t.test for t in out] == ["test_f"]


def test_budget_ascending_until_limit():
    traces = [
        _sized("test_f", "fail", 200),
        _sized("test_p3", "pass", 600),
        _sized("test_p1", "pass", 100),
        _sized("test_p2", "pass", 300),
    ]
    out = budget_traces(traces, RunConfig(model_limit=1000))
    assert [t.test for t in out] == ["test_f", "test_p1", "test_p2"]


def test_budget_no_passing():
    traces = [_sized("test_f", "fail", 10)]
    out = budget_traces(traces, RunConfig())
    assert [t.test for t in out] == ["test_f"]
