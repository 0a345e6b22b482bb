"""Golden interpreter-equivalence test: coverage profiles and traces of the
corpus programs and some of their mutants, hashed and compared against
`data/interp_digests.json`.

Each digest covers, at one step budget, every test's coverage record
(status, reason, sorted functions, sorted statements) and the
`dump_trace` text of every test traced under
`pipeline.traced_function_set`. Two budgets are used so that timeouts
must land on the same step as well. Every traced test must also close
each call it opens and mark only the values of `if` and `while`
conditions as branch events, which the trace reducers and the graph
builder rely on, and carry aux data only on call events. The same
digests must come out when the profile run records the failing tests'
traces, as `pipeline.localize` has it do, and those traces stand in for
their tests' traces.

Regenerate the file (only when a change to the interpreter's observable
behaviour is intended) with

    PYTHONPATH=src python tests/test_interp_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from semfl.bench import (
    enumerate_mutations,
    load_corpus_program,
    load_manifest,
)
from semfl.lang import parse
from semfl.pipeline import traced_function_set
from semfl.tracing import (
    BRANCH,
    CALL_ENTER,
    CALL_EXIT,
    CALL_SUMMARY,
    dump_trace,
    profile,
    trace,
)

from helpers import apply_mutation, assert_compressed_as_compress_loops

DIGESTS = Path(__file__).parent / "data" / "interp_digests.json"
STEP_BUDGETS = (20_000, 300)
MUTANTS_PER_PROGRAM = 5


def program_digest(program, step_budget, record=False):
    """The digest of `program`; with `record`, of the profile run that
    records the failing tests' traces, and of those traces in place of
    fresh ones."""
    recorded = {} if record else None
    prof = profile(program, step_budget=step_budget, failing_traces=recorded)
    h = hashlib.sha256()
    for name, cov in prof.tests.items():
        h.update(json.dumps([name, cov.status, cov.reason,
                             sorted(cov.functions),
                             sorted(cov.statements)]).encode())
    traced = traced_function_set(prof)
    for name in program.test_names:
        if record and name in recorded:
            tr = recorded[name]
        else:
            tr = trace(program, name, traced, step_budget=step_budget)
        check_call_brackets(tr, program)
        h.update(dump_trace(tr, program).encode())
    return h.hexdigest()


def check_call_brackets(tr, program):
    """Every call exit closes the innermost open call of the same callee and
    every call is closed, whether the test passes, fails, throws or times
    out: the reducers rely on this. Every branch event is one of an `if` or
    a `while` statement, and only call events carry aux data."""
    open_calls = []
    for ev in tr.events:
        assert bool(ev.aux) == (ev.kind in (CALL_ENTER, CALL_EXIT,
                                            CALL_SUMMARY)), (tr.test, ev)
        if ev.kind == BRANCH:
            kind = program.statement_table[ev.stmt].kind
            assert kind in ("if_cond", "while_cond"), (tr.test, ev.stmt)
        elif ev.kind == CALL_ENTER:
            open_calls.append(ev.aux["callee"])
        elif ev.kind == CALL_EXIT:
            assert open_calls, f"{tr.test}: call exit without an enter"
            assert open_calls.pop() == ev.aux["callee"], tr.test
    assert not open_calls, f"{tr.test}: calls never returned: {open_calls}"


def corpus_programs(name):
    """The named corpus program and its first mutants, keyed by case."""
    program = load_corpus_program(name)
    yield name, program
    points = enumerate_mutations(program)[:MUTANTS_PER_PROGRAM]
    for i, point in enumerate(points):
        key = f"{name}#{i} s{point.sid}[{point.rewrite}]"
        yield key, parse(apply_mutation(program, point), program.source_path)


def digests(name, record=False):
    return {key: {str(b): program_digest(p, b, record) for b in STEP_BUDGETS}
            for key, p in corpus_programs(name)}


NAMES = [e["name"] for e in load_manifest()]


@pytest.mark.parametrize("name", NAMES)
def test_interpreter_matches_golden_digests(name):
    expected = json.loads(DIGESTS.read_text())[name]
    assert digests(name) == expected


@pytest.mark.parametrize("name", NAMES)
def test_failing_traces_recorded_while_profiling_match_golden_digests(name):
    expected = json.loads(DIGESTS.read_text())[name]
    assert digests(name, record=True) == expected


@pytest.mark.parametrize("name", NAMES)
def test_interpreter_compresses_loops_as_compress_loops_does(name):
    # every (program, test, budget) above, timeouts included
    for _, program in corpus_programs(name):
        for budget in STEP_BUDGETS:
            traced = traced_function_set(profile(program, step_budget=budget))
            for test in program.test_names:
                raw = trace(program, test, traced, step_budget=budget)
                for period in (1, 2, 3):
                    online = trace(program, test, traced,
                                   step_budget=budget, period=period)
                    assert_compressed_as_compress_loops(online, raw, program,
                                                        period)


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({n: digests(n) for n in NAMES},
                                  indent=1, sort_keys=True) + "\n")
