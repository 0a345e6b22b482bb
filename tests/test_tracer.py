"""Interpreter and tracing tests: coverage profiling, value-level events,
partial tracing, arrays, exceptions, and serialization."""

import json
import sys
import tracemalloc

import pytest

from semfl.bench import load_corpus_program, seed_faults
from semfl import tracing
from semfl.errors import MalformedTrace, MiniImpSyntaxError, NoTests
from semfl.lang import parse
from semfl.lang.parser import MAX_NESTING, parse_slot
from semfl.pipeline import RunConfig, localize, traced_function_set
from semfl.tracing import (
    ASSERT_FAIL,
    ASSERT_PASS,
    BRANCH,
    CALL_ENTER,
    CALL_EXIT,
    CALL_SUMMARY,
    EXCEPTION_CATCH,
    EXEC,
    MAX_CALL_DEPTH,
    dump_trace,
    profile,
    program_hash,
    trace,
)

from helpers import statement_ids

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


def test_profile_cond_example():
    prog = parse(COND_TEST)
    prof = profile(prog)
    assert prof.tests["test_pass"].status == "pass"
    assert prof.tests["test_fail"].status == "fail"
    assert prof.tests["test_pass"].functions == {"foo", "test_pass"}
    assert prof.tests["test_fail"].functions == {"foo", "test_fail"}
    assert prof.num_failing == 1 and sum(
        r.status == "pass" for r in prof.tests.values()) == 1


def test_profile_requires_tests():
    with pytest.raises(NoTests):
        profile(parse("fn f() { return 1; }"))


def test_constant_assert_covers_only_itself():
    prog = parse("fn test_t() { assert(true); }\nfn f() { return 1; }")
    prof = profile(prog)
    assert prof.tests["test_t"].status == "pass"
    assert prof.tests["test_t"].functions == {"test_t"}


def test_infinite_loop_times_out():
    prog = parse("""
fn spin() {
    let i = 0;
    while (i >= 0) {
        i = i + 1;
    }
    return i;
}

fn test_spin() {
    assert(spin() == 0);
}
""")
    prof = profile(prog, step_budget=5000)
    assert prof.tests["test_spin"].status == "fail"
    assert prof.tests["test_spin"].reason == "timeout"
    tr = trace(prog, "test_spin", {"spin"}, step_budget=5000)
    assert tr.reason == "timeout"


def test_fig1_failing_trace_events():
    prog = parse(COND_TEST)
    tr = trace(prog, "test_fail", {"foo"})
    assert tr.status == "fail"
    kinds = [e.kind for e in tr.events]
    assert kinds == [CALL_ENTER, BRANCH, EXEC, EXEC, CALL_EXIT, ASSERT_FAIL]
    enter, cond, assign, ret, exit_, outcome = tr.events
    a_in = enter.reads[0]
    assert cond.reads == (a_in,) and len(cond.writes) == 1
    assert assign.reads == (a_in,)
    assert ret.reads == assign.writes
    assert exit_.aux["ret"] == ret.writes[0]
    assert (outcome.reads, outcome.writes) == ((ret.writes[0],), ())
    assert outcome.aux == {}


def test_untraced_callee_collapses_to_summary():
    prog = parse(COND_TEST)
    tr = trace(prog, "test_fail", set())
    kinds = [e.kind for e in tr.events]
    assert kinds == [CALL_SUMMARY, ASSERT_FAIL]
    summary = tr.events[0]
    assert len(summary.reads) == 1  # the scalar argument
    assert summary.aux == {"callee": "foo"}
    # the return value is the summary's first write
    assert tr.events[1].reads == (summary.writes[0],)


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


def test_traced_call_nested_in_untraced_driver():
    prog = parse(NESTED)
    tr = trace(prog, "test_nested", {"callback"})
    kinds = [e.kind for e in tr.events]
    # callback's block sits before the driver summary that encloses it;
    # the trailing exec is the asserted comparison in the test body
    assert kinds == [CALL_ENTER, EXEC, CALL_EXIT, CALL_SUMMARY, EXEC,
                     ASSERT_PASS]
    enter, ret, exit_, summary = tr.events[:4]
    assert enter.aux["callee"] == "callback"
    assert summary.aux["callee"] == "driver"
    assert exit_.aux["ret"] == ret.writes[0]


def test_exec_events_write_exactly_one_value():
    prog = parse(NESTED)
    tr = trace(prog, "test_nested", {"callback", "driver"})
    for e in tr.events:
        if e.kind in (EXEC, BRANCH):
            assert len(e.writes) == 1


def test_reads_are_produced_or_inputs():
    prog = parse(COND_TEST)
    tr = trace(prog, "test_fail", {"foo"})
    produced = set()
    for e in tr.events:
        if e.kind == CALL_ENTER:
            # a literal argument of a test's call is an input, produced by
            # no event
            produced.update(e.reads)
        for r in e.reads:
            assert r in produced
        produced.update(e.writes)


ARRAYS = """
fn bump(a, i) {
    a[i] = a[i] + 1;
    return a[i];
}

fn test_bump() {
    let xs = [1, 2];
    assert(bump(xs, 1) == 3);
    assert(xs[1] == 3);
}
"""


def test_array_write_produces_new_version():
    prog = parse(ARRAYS)
    tr = trace(prog, "test_bump", {"bump"})
    writes = [e for e in tr.events if e.kind == EXEC and e.stmt ==
              statement_ids(parse(ARRAYS).functions["bump"])[0]]
    assert len(writes) == 1
    store = writes[0]
    assert len(store.writes) == 1
    # new version reads the previous version (first read)
    enter = [e for e in tr.events if e.kind == CALL_ENTER][0]
    entry_version = enter.reads[0]
    assert store.reads[0] == entry_version


def _exits_throwing(tr, vid):
    """The call exits that pass on the thrown value `vid`."""
    return sum(e.kind == CALL_EXIT and e.aux.get("thrown") == vid
               for e in tr.events)


def _ends_in_thrown_evidence(tr):
    """Whether the trace ends in the evidence of an uncaught exception: an
    ASSERT_FAIL reading the value its last call exit threw."""
    exit_, outcome = tr.events[-2:]
    return (exit_.kind == CALL_EXIT and outcome.kind == ASSERT_FAIL
            and outcome.reads == (exit_.aux.get("thrown"),))


def test_exception_unwinds_to_catch():
    prog = parse("""
fn inner(x) {
    if (x < 0) {
        throw 9;
    }
    return x;
}

fn outer(x) {
    return inner(x);
}

fn test_catch() {
    try {
        let v = outer(0 - 1);
        assert(false);
    } catch (e) {
        assert(e == 9);
    }
}
""")
    prof = profile(prog)
    assert prof.tests["test_catch"].status == "pass"
    tr = trace(prog, "test_catch", {"inner", "outer"})
    catches = [e for e in tr.events if e.kind == EXCEPTION_CATCH]
    assert len(catches) == 1
    assert _exits_throwing(tr, catches[0].reads[0]) == 2
    aborted = [e for e in tr.events if e.kind == CALL_EXIT
               and "ret" not in e.aux]
    assert len(aborted) == 2


def test_uncaught_exception_is_failure_with_evidence():
    prog = parse("""
fn boom() {
    throw 5;
}

fn test_boom() {
    let x = boom();
    assert(x == 0);
}
""")
    tr = trace(prog, "test_boom", {"boom"})
    assert tr.status == "fail" and tr.reason == "exception"
    assert _ends_in_thrown_evidence(tr)


def test_division_by_zero_is_catchable():
    prog = parse("""
fn div(a, b) {
    return a / b;
}

fn rem(a, b) {
    return a % b;
}

fn test_div() {
    try {
        let q = div(1, 0);
        assert(false);
    } catch (e) {
        assert(true);
    }
}

// division truncates; the remainder takes the dividend's sign
fn test_signs() {
    assert(div(0 - 7, 2) == 0 - 3);
    assert(rem(0 - 7, 2) == 0 - 1);
    assert(div(7, 0 - 2) == 0 - 3);
    assert(rem(7, 0 - 2) == 1);
}
""")
    prof = profile(prog)
    assert prof.tests["test_div"].status == "pass"
    assert prof.tests["test_signs"].status == "pass"


# `bad(k)` makes a different type error for each k from 0 to 13
TYPE_ERRORS = """
fn bad(k) {
    let n = 1;
    let a = [0];
    if (k == 0) {
        let x = !n;
    }
    if (k == 1) {
        while (n) {
        }
    }
    if (k == 2) {
        n[0] = 1;
    }
    if (k == 3) {
        a[true] = 1;
    }
    if (k == 4) {
        a[0] = a;
    }
    if (k == 5) {
        assert(n);
    }
    if (k == 6) {
        let x = true && n;
    }
    if (k == 7) {
        let x = false || n;
    }
    if (k == 8) {
        let x = n < true;
    }
    if (k == 9) {
        let x = n - true;
    }
    if (k == 10) {
        let x = n / true;
    }
    if (k == 11) {
        let x = n || true;
    }
    if (k == 12) {
        let x = n[0];
    }
    if (k == 13) {
        let x = -a;
    }
    return 0;
}

fn test_types() {
    let first = 0;
    try {
        let v = bad(0);
    } catch (e) {
        first = e;
    }
    try {
        let v = 1 / 0;
    } catch (e) {
        assert(e != first);
    }
    let k = 1;
    while (k <= 13) {
        try {
            let v = bad(k);
            assert(false);
        } catch (e) {
            assert(e == first);
        }
        k = k + 1;
    }
}
"""


def test_type_errors_are_catchable():
    # every one throws the exception `!1` throws, which a division by zero
    # does not
    prog = parse(TYPE_ERRORS)
    assert profile(prog).tests["test_types"].status == "pass"
    assert trace(prog, "test_types", {"bad"}).status == "pass"


VOID_ARGUMENT = """
fn nop() {
    return;
}

fn inc(x) {
    return x + 2;
}

fn test_early() {
    assert(inc(nop()) == 2);
    return;
    assert(false);
}

fn test_void() {
    assert(inc(nop()) == 3);
}
"""


def test_return_without_a_value():
    # `return;` hands back 0, which no event of the callee produces: as a
    # call argument it is a value of the calling statement
    prog = parse(VOID_ARGUMENT)
    prof = profile(prog)
    early = prof.tests["test_early"]
    assert early.status == "pass"
    assert statement_ids(prog.functions["test_early"])[2] \
        not in early.statements
    tr = trace(prog, "test_void", {"nop", "inc"})
    assert tr.status == "fail"
    assert [e.kind for e in tr.events] == [
        CALL_ENTER, CALL_EXIT, EXEC, CALL_ENTER, EXEC, CALL_EXIT, EXEC,
        ASSERT_FAIL]
    nop_exit, arg, inc_enter = tr.events[1:4]
    assert nop_exit.aux["ret"] is None
    assert arg.reads == () and inc_enter.reads == arg.writes


def test_overflow_is_catchable():
    prog = parse("""
fn double_until(x, n) {
    let i = 0;
    while (i < n) {
        x = x * x;
        i = i + 1;
    }
    return x;
}

fn test_overflow() {
    try {
        let v = double_until(10, 10);
        assert(false);
    } catch (e) {
        assert(true);
    }
}
""")
    assert profile(prog).tests["test_overflow"].status == "pass"


NEGATION = """
fn negate(x) {
    return -x;
}

fn test_max() {
    assert(negate(9223372036854775807) == 0 - 9223372036854775807);
}

fn test_min() {
    let v = negate(0 - 9223372036854775807 - 1);
    assert(v > 0);
}

fn test_caught() {
    try {
        let v = negate(0 - 9223372036854775807 - 1);
        assert(false);
    } catch (e) {
        assert(true);
    }
}

fn test_quotient() {
    let m = 0 - 9223372036854775807 - 1;
    assert(m % (0 - 1) == 0);
    let v = m / (0 - 1);
    assert(v > 0);
}
"""


def test_negation_overflow_is_catchable():
    # -x and / are checked like + - *: only -INT_MIN and INT_MIN / -1
    # overflow, while the remainder INT_MIN % -1 is 0
    prog = parse(NEGATION)
    prof = profile(prog)
    assert prof.tests["test_max"].status == "pass"
    assert prof.tests["test_caught"].status == "pass"
    assert (prof.tests["test_min"].status, prof.tests["test_min"].reason) == (
        "fail", "exception")
    tr = trace(prog, "test_min", {"negate"})
    assert _ends_in_thrown_evidence(tr)
    assert tr.events[-1].stmt == statement_ids(prog.functions["negate"])[0]
    quotient = prof.tests["test_quotient"]
    assert (quotient.status, quotient.reason) == ("fail", "exception")


# Operands of the fused-binary cases: name -> (value, vid). `a` holds the
# one array, whose contents have version 5; the let that bound `a` wrote 3.
FUSED_ENV = {"a": (tracing.ArrayRef(0), 3), "y": (2, 11), "n": (1, 12),
             "big": (tracing.INT_MAX, 13), "t": (True, 14)}


@pytest.mark.parametrize("text, value, reads, thrown", [
    ("x + y", tracing._UNBOUND, (), True),  # unbound on the left
    ("y < x", tracing._UNBOUND, (), True),  # unbound on the right
    ("x * 3", tracing._UNBOUND, (), True),  # unbound, literal on the right
    ("a + n", tracing._TYPE_ERROR, (5, 12), True),  # reads a's version
    ("n < a", tracing._TYPE_ERROR, (12, 5), True),
    ("a - 1", tracing._TYPE_ERROR, (5,), True),
    ("big + 1", tracing._OVERFLOW, (13,), True),
    ("big * y", tracing._OVERFLOW, (13, 11), True),
    ("n - big", -tracing.INT_MAX + 1, (12, 13), False),
    ("t == 1", True, (14,), False),  # `true == 1`, as Python compares them
    ("a == a", True, (5, 5), False),
    ("a != n", True, (5, 12), False),
    ("y >= n", True, (11, 12), False),
    ("y * 3", 6, (11,), False),
])
def test_fused_binaries_run_as_the_nested_closures(text, value, reads,
                                                   thrown):
    # A binary over a variable and a variable or an integer literal is one
    # closure that fetches its operands itself; off its integer path it
    # must do what the nested closures do, on inputs the corpus never
    # reaches. A throw is one exec event of the statement (sid 9) writing
    # the thrown value's id, the next one drawn (20).
    expr = parse_slot(text, 1)
    prog = parse("fn test_t() {\n}")
    compiler = tracing._Compiler(prog.functions["test_t"])
    compiler.sid = 9
    fused = compiler.expr(expr)
    assert fused.__name__ in ("fused_vars", "fused_literal")
    nested = compiler.binary(expr.op, compiler.expr(expr.left),
                             compiler.expr(expr.right))
    runs = []
    for f in (fused, nested):
        ex = tracing._Executor(prog, frozenset({"test_t"}), 100)
        ex.heap[0] = tracing._Array([1, 2], 5)
        ex.vid_counter = 20
        try:
            got = f(ex, tracing._Frame(dict(FUSED_ENV), True))
        except tracing.MiniThrow as exc:
            got = (exc.value, (exc.vid,))
        runs.append((got, [e.to_record() for e in ex.events],
                     ex.vid_counter))
    assert runs[0] == runs[1]
    got, events, _ = runs[0]
    if thrown:
        assert got == (value, (20,))
        assert events == [{"kind": EXEC, "stmt": 9, "reads": list(reads),
                           "writes": [20], "aux": {}}]
    else:
        assert got == (value, reads) and type(got[0]) is type(value)
        assert events == []


UNBOUND = """
fn read(c) {
    if (c > 0) {
        let x = 1;
    }
    return x;
}

fn store(c) {
    if (c > 0) {
        let xs = [0];
    }
    xs[0] = 1;
    return 0;
}

fn test_bound() {
    assert(read(1) == 1);
}

fn test_read() {
    assert(read(0) == 1);
}

fn test_store() {
    assert(store(0) == 0);
}

fn test_caught() {
    try {
        let v = read(0);
        assert(false);
    } catch (e) {
        assert(true);
    }
}
"""


def test_unbound_variable_throws_catchable_exception():
    # the scope check is lexical: `x` and `xs` parse, but are unbound when
    # the branch that declares them is not taken
    prog = parse(UNBOUND)
    prof = profile(prog)
    assert prof.tests["test_bound"].status == "pass"
    assert prof.tests["test_caught"].status == "pass"
    for test, fn in (("test_read", "read"), ("test_store", "store")):
        assert (prof.tests[test].status, prof.tests[test].reason) == (
            "fail", "exception")
        tr = trace(prog, test, {fn})
        faulting = statement_ids(prog.functions[fn])[2]
        assert _ends_in_thrown_evidence(tr)
        assert tr.events[-1].stmt == faulting


RECURSION = """
fn f(n) {
    if (n == 0) {
        return 0;
    }
    return f(n - 1) + 1;
}

fn test_fits() {
    assert(f(%d) == %d);
}

fn test_deep() {
    assert(f(%d) == %d);
}
"""


def test_call_past_depth_limit_throws_stack_overflow():
    # f(n) nests n + 1 calls of f below the test
    fits, deep = MAX_CALL_DEPTH - 1, MAX_CALL_DEPTH
    prog = parse(RECURSION % (fits, fits, deep, deep))
    prof = profile(prog)
    assert prof.tests["test_fits"].status == "pass"
    assert prof.tests["test_deep"].status == "fail"
    assert prof.tests["test_deep"].reason == "exception"
    tr = trace(prog, "test_deep", {"f"})
    assert tr.reason == "exception"
    recursive_return = statement_ids(prog.functions["f"])[-1]
    assert _ends_in_thrown_evidence(tr)
    assert tr.events[-1].stmt == recursive_return


# The recursive call sits under five statements and six operators.
NESTED_RECURSION = """
fn g(n) {
    let s = 0;
    if (n > 0) {
        let i = 0;
        while (i < 1) {
            if (i == 0) {
                if (n > 0 - 1) {
                    s = s + ((2 * (g(n - 1) + 1) - 2) / 2 + 1);
                }
            }
            i = i + 1;
        }
    }
    return s;
}

fn test_fits() {
    assert(g(%d) == %d);
}

fn test_deep() {
    assert(g(%d) == %d);
}
"""


def test_depth_limit_holds_under_deep_statement_nesting():
    fits, deep = MAX_CALL_DEPTH - 1, MAX_CALL_DEPTH
    prog = parse(NESTED_RECURSION % (fits, fits, deep, deep))
    prof = profile(prog)
    assert prof.tests["test_fits"].status == "pass"
    assert prof.tests["test_deep"].reason == "exception"
    assert trace(prog, "test_deep", {"g"}).reason == "exception"


# The shapes that nest deepest: the recursive call of g sits at the
# deepest level the parser accepts, under blocks or under expressions.
DEEP_WRAPPERS = {
    "blocks": None,
    "calls": lambda i, e: f"h({e})",
    "negations": lambda i, e: f"-{e}",
    "parentheses": lambda i, e: f"({e})",
    "arithmetic": lambda i, e: f"({e})" if i % 2 else f"0 + {e}",
    "call arguments": lambda i, e: f"h({e})" if i % 2 else f"0 + {e}",
}


def deepest_program(shape, extra=0):
    """A program whose g nests MAX_NESTING + extra levels deep and is
    called MAX_CALL_DEPTH - 1 deep by test_deep."""
    # below g's body block, `g(n - 1)` takes three levels: call, `-`, operand
    room = MAX_NESTING + extra - 1 - 3
    wrap = DEEP_WRAPPERS[shape]
    if wrap is None:
        body = ("if (n > 0) {\n" * room + "return g(n - 1);\n"
                + "}\n" * room + "return 0;")
    else:
        expr = "g(n - 1)"
        for i in range(room):
            expr = wrap(i, expr)
        body = f"return {expr};"
    depth = MAX_CALL_DEPTH - 1
    return f"""
fn h(x) {{
    return x;
}}

fn g(n) {{
    if (n == 0) {{
        return 0;
    }}
{body}
}}

fn test_deep() {{
    assert(g({depth}) == 0);
}}
"""


@pytest.mark.parametrize("shape", sorted(DEEP_WRAPPERS))
def test_deepest_accepted_nesting_runs_at_the_call_limit(shape):
    prog = parse(deepest_program(shape))
    assert profile(prog).tests["test_deep"].status == "pass"
    for traced in ({"g"}, {"g", "h"}, set()):
        assert trace(prog, "test_deep", traced).status == "pass"
    with pytest.raises(MiniImpSyntaxError, match="nesting deeper than"):
        parse(deepest_program(shape, extra=1))


def _from_depth(frames, f):
    """Call f from `frames` Python frames deeper than the caller."""
    return f() if frames == 0 else _from_depth(frames - 1, f)


@pytest.mark.parametrize("shape", sorted(DEEP_WRAPPERS))
def test_deepest_accepted_nesting_parses_from_deep_callers(shape):
    # the parser takes a few Python frames per nesting level, so it can
    # parse the deepest program it accepts from a deep caller at Python's
    # default recursion limit
    source = deepest_program(shape)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        prog = _from_depth(400, lambda: parse(source))
    finally:
        sys.setrecursionlimit(limit)
    assert "test_deep" in prog.functions


def test_stack_overflow_is_catchable():
    prog = parse("""
fn down(n) {
    return down(n + 1);
}

fn test_catch() {
    try {
        let v = down(0);
        assert(false);
    } catch (e) {
        assert(true);
    }
}
""")
    assert profile(prog).tests["test_catch"].status == "pass"
    tr = trace(prog, "test_catch", {"down"})
    catches = [e for e in tr.events if e.kind == EXCEPTION_CATCH]
    assert len(catches) == 1
    assert _exits_throwing(tr, catches[0].reads[0]) == MAX_CALL_DEPTH


def test_trace_status_matches_profile_status():
    prog = parse(COND_TEST)
    prof = profile(prog)
    for name in prog.test_names:
        tr = trace(prog, name, {"foo"})
        assert tr.status == prof.tests[name].status


def test_trace_of_an_unknown_test_is_rejected():
    with pytest.raises(MalformedTrace, match="unknown test 'test_nope'"):
        trace(parse(COND_TEST), "test_nope", {"foo"})


def test_tracing_is_deterministic():
    prog = parse(COND_TEST)
    t1 = dump_trace(trace(prog, "test_fail", {"foo"}), prog)
    t2 = dump_trace(trace(prog, "test_fail", {"foo"}), prog)
    assert t1 == t2


def test_dump_trace_lines():
    prog = parse(NESTED)
    tr = trace(prog, "test_nested", {"callback"})
    header, *lines = dump_trace(tr, prog).splitlines()
    assert json.loads(header) == {
        "test": "test_nested", "status": tr.status, "reason": tr.reason,
        "program": program_hash(prog), "warning": ""}
    assert tr.status == "pass"
    assert lines == [json.dumps(e.to_record(), sort_keys=True)
                     for e in tr.events]


# --- failing tests profiled and traced in one run ---

def _localize_raw(program, **settings):
    """`localize` with no reducer changing its traces, after checking each
    of them against a fresh `trace` of its test."""
    cfg = RunConfig(loop_period=0, adaptive_folding=False,
                    model_limit=10 ** 9, **settings)
    res = localize(program, cfg)
    traced = traced_function_set(res.profile)
    for tr in res.traces:
        fresh = trace(program, tr.test, traced, step_budget=cfg.step_budget)
        assert tr == fresh, tr.test
    return res


@pytest.mark.parametrize("trace_limit", [1_200_000, 300])
@pytest.mark.parametrize("name", ["sorting", "scheduler", "digits"])
def test_failing_traces_from_the_profile_run_are_fresh_traces(name,
                                                              trace_limit):
    program = load_corpus_program(name)
    for seed in seed_faults(program, 2, 0, step_budget=5000):
        mutant = parse(seed.source, seed.base_path)
        res = _localize_raw(mutant, step_budget=5000, trace_limit=trace_limit)
        failing = res.profile.num_failing
        assert [t.test for t in res.traces if t.failing] == \
            res.selected_tests[:failing]


# `nop` runs no statement, and `f` none before the step budget of 2 runs
# out; the failing test enters it all the same, so it is traced and the
# profile run's trace of the test is the one `localize` keeps.
EMPTY_CALLEE = """
fn nop() {
}

fn inc(x) {
    return x + 2;
}

fn test_inc() {
    nop();
    assert(inc(1) == 2);
}

fn test_inc_zero() {
    assert(inc(0) == 2);
}
"""

BUDGET_ENDS_AT_CALL = """
fn f(x) {
    return x;
}

fn test_t() {
    let a = 1;
    let b = f(a);
    assert(b == 1);
}
"""


@pytest.mark.parametrize("source, step_budget", [
    (EMPTY_CALLEE, 5000), (BUDGET_ENDS_AT_CALL, 2)],
    ids=["empty_body", "budget_ends_at_call"])
def test_callee_that_runs_no_statement_is_traced(source, step_budget):
    program = parse(source)
    res = _localize_raw(program, step_budget=step_budget)
    failing = next(t for t in res.traces if t.failing)
    callee = ({"nop", "f"} & set(program.functions)).pop()
    assert callee in res.profile.tests[failing.test].functions
    entered = {e.aux["callee"] for e in failing.events if e.kind == CALL_ENTER}
    assert callee in entered


def test_timeout_in_an_untraced_call_marks_its_summary():
    tr = trace(parse(BUDGET_ENDS_AT_CALL), "test_t", set(), step_budget=2)
    assert tr.reason == "timeout"
    summary, outcome = tr.events[-2:]
    assert summary.kind == CALL_SUMMARY and summary.aux == {"callee": "f"}
    assert len(summary.writes) == 1
    # the evidence of a timeout reads the last value written
    assert outcome.kind == ASSERT_FAIL
    assert outcome.stmt == summary.stmt
    assert outcome.reads == (summary.writes[0],)


# The untraced `g` passes on what the traced `h` throws, so the summary of
# `g` writes nothing; at 5 steps the budget ends right after the catch.
THROWN_THROUGH_UNTRACED = """
fn h(x) {
    throw x;
}

fn g(x) {
    h(x);
    return x;
}

fn f(x) {
    let y = x + 1;
    try {
        g(y);
    } catch (e) {
        y = 0;
    }
    return y;
}

fn test_f() {
    assert(f(1) == 0);
}
"""


def test_timeout_after_a_summary_that_writes_nothing():
    tr = trace(parse(THROWN_THROUGH_UNTRACED), "test_f", {"f", "h"},
               step_budget=5)
    assert tr.reason == "timeout"
    (summary,) = [e for e in tr.events if e.kind == CALL_SUMMARY]
    (catch,) = [e for e in tr.events if e.kind == EXCEPTION_CATCH]
    assert summary.writes == () and tr.events.index(summary) < \
        tr.events.index(catch)
    # the last value written is the one `h` threw
    assert tr.events[-1].kind == ASSERT_FAIL
    assert tr.events[-1].reads == catch.reads


# --- repeated loop states ---

def _only_record(source, step_budget=10 ** 6):
    """The only test's coverage record, from a profile run."""
    (record,) = profile(parse(source), step_budget=step_budget).tests.values()
    return record


def test_repeated_loop_state_stops_long_before_the_budget():
    record = _only_record("""
fn flip(n) {
    let i = 0;
    while (n > 0) {
        i = 1 - i;
    }
    return i;
}

fn test_flip() {
    assert(flip(3) == 0);
}
""")
    assert (record.status, record.reason) == ("fail", "timeout")
    assert 0 < record.stopped_at < 1000


def test_array_held_by_an_array_is_part_of_the_state():
    # the frame's own array `a` never changes; the array it holds does
    record = _only_record("""
fn bump(b) {
    b[0] = b[0] + 1;
}

fn test_nested() {
    let a = [[0]];
    let k = 0;
    while (a[0][0] < 1000) {
        bump(a[0]);
        k = 0;
    }
    assert(a[0][0] == 1000);
}
""")
    assert (record.status, record.stopped_at) == ("pass", 0)


def test_scalars_that_repeat_over_a_changing_array_are_not_a_repeat():
    record = _only_record("""
fn test_fill() {
    let a = [0, 0];
    let i = 1;
    while (a[0] < 1000) {
        a[0] = a[i - 1] + 1;
    }
    assert(a[0] == 1000);
}
""")
    assert (record.status, record.stopped_at) == ("pass", 0)


@pytest.mark.parametrize("body", ["let b = [0];", "i = i + 1;"],
                         ids=["array_allocated", "counter_grows"])
def test_loop_that_never_repeats_runs_to_its_budget(body):
    record = _only_record(f"""
fn test_spin() {{
    let b = [0];
    let i = 0;
    while (true) {{
        {body}
    }}
}}
""", step_budget=5000)
    assert (record.status, record.reason, record.stopped_at) == \
        ("fail", "timeout", 0)


def test_true_and_one_are_different_states():
    # `x == 1` holds for `true` as well; only `if (x)` tells them apart. At
    # n = 70, x turns from 1 to true and n goes back to 62: the states of
    # heads 64 ... 71 come again, with x = true, 8 heads later.
    record = _only_record("""
fn is_bool(x) {
    try {
        if (x) {
            return true;
        }
        return true;
    } catch (e) {
        return false;
    }
}

fn test_typed() {
    let x = 1;
    let n = 0;
    while (n < 200) {
        if (n == 70 && !is_bool(x)) {
            x = true;
            n = 62;
        }
        n = n + 1;
    }
    assert(n == 200);
}
""")
    assert (record.status, record.stopped_at) == ("pass", 0)


# The seed-0 bench mutants (`corpus_seeds(7, 0, step_budget=20000)`) with a
# test that spins to its budget.
TIMEOUT_MUTANTS = {
    "sorting": ["s5[1 -> 0]"],
    "recurrences": ["s28[1 -> 0]"],
    "scheduler": ["s32[== -> !=]", "s28[0 -> 1]", "s3[> -> >=]",
                  "s28[0 -> -1]", "s31[1 -> 2]"],
}


def _records(events):
    return [e.to_record() for e in events]


def _unwound(events):
    """A timeout trace's events before its evidence, split into the run
    and the exits of the calls it unwound."""
    body = events[:-1]
    i = len(body)
    while i and body[i - 1].kind == CALL_EXIT:
        i -= 1
    return body[:i], body[i:]


def test_stopping_at_a_repeated_state_ends_as_the_full_run(monkeypatch):
    """Each test ends with the status, reason and coverage of a run whose
    state comparison never matches, and its trace is that run's, cut short:
    the run up to the stop, the same unwinding of calls, and evidence on a
    value of the same statement."""
    mutants = []
    for name, cases in TIMEOUT_MUTANTS.items():
        for seed in seed_faults(load_corpus_program(name), 7, 0,
                                step_budget=20_000):
            if f"s{seed.sid}[{seed.rewrite}]" in cases:
                mutants.append(parse(seed.source, seed.base_path))
    assert len(mutants) == 7

    def run_all():
        runs = {}
        for i, mutant in enumerate(mutants):
            for budget in range(2000, 2010):
                traces = {}
                prof = profile(mutant, step_budget=budget,
                               failing_traces=traces)
                runs[i, budget] = prof, traces
        return runs

    fast = run_all()
    monkeypatch.setattr(tracing._LoopWatch, "same",
                        lambda self, heap, values: False)
    full = run_all()
    stopped = 0
    for key, (prof, traces) in fast.items():
        full_prof, full_traces = full[key]
        for test, record in prof.tests.items():
            other = full_prof.tests[test]
            assert (record.status, record.reason, record.functions,
                    record.statements) == (other.status, other.reason,
                                           other.functions, other.statements)
            assert other.stopped_at == 0
            if test not in traces:
                assert test not in full_traces
                continue
            cut, whole = traces[test].events, full_traces[test].events
            if not record.stopped_at:
                assert _records(cut) == _records(whole)
                continue
            stopped += 1
            assert record.reason == "timeout"
            (run, exits), (whole_run, whole_exits) = (_unwound(cut),
                                                      _unwound(whole))
            assert len(cut) <= len(whole)
            assert _records(run) == _records(whole_run[:len(run)])
            assert _records(exits) == _records(whole_exits)
            assert (cut[-1].kind, cut[-1].stmt) == (whole[-1].kind,
                                                    whole[-1].stmt)
    # every timeout test but the two of recurrences `s28[1 -> 0]`, whose
    # counter grows, at each budget
    assert stopped == 31 * 10


# `s` keeps growing, so the loop state never repeats and the test spins to
# its budget, about one event per step.
GROWING_SPIN = """
fn triangular(n) {
    let s = 0;
    let i = 0;
    while (i != n) {
        i = i + 1;
        s = s + i;
    }
    return s;
}

fn test_spin() {
    assert(triangular(-1) == 0);
}
"""


def test_a_spin_whose_state_never_repeats_is_compressed_as_it_runs():
    # Held raw, its 80,002 events take about 215 B each. Compressed while
    # it runs, it keeps 10; what still grows is the aliases, one entry per
    # removed write.
    program = parse(GROWING_SPIN)
    localize(program, RunConfig(step_budget=100))  # compiles the functions
    tracemalloc.start()
    try:
        res = localize(program, RunConfig(step_budget=80_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ("events: raw 80002, after compress 10, after fold 10, "
            "modelled 10") in res.log
    assert peak <= 80_002 * 215 / 3
