"""Test execution under two instrumentation modes.

`profile` runs every test with lightweight coverage recording, or with
every non-test function traced when the caller keeps the failing tests'
traces; `trace` runs a single test with full value-level event recording,
collapsing calls into untraced functions to atomic call summaries. A value
is an EXEC event, or a BRANCH event if it is a condition's own value.

An event names values only in its `reads` and `writes`, except for what a
call hands back at its exit. Evidence is an ASSERT_PASS or ASSERT_FAIL
event reading the observed value; an uncaught exception and a timeout are
ASSERT_FAIL events too. Only call events carry `aux`: every one names its
`callee`; a CALL_EXIT that returns normally adds `ret` and the
`array_versions` of its array arguments, and one left by a MiniImp
exception adds the `thrown` value.

Given a loop period K > 0, both compress loops while the test runs: in a
traced frame, each iteration of a `while` run goes through `LoopRun`'s rule
when it ends, and a removed one is deleted from the events at once, its
writes becoming aliases of the kept values. The trace is the one
`reduction.compress_loops`, the offline replay the tests hold the
interpreter to, makes of the raw trace at K, and no raw trace is held.

Both run function bodies compiled once per program into nested Python
closures (`_Compiler`), so no AST node is dispatched on at run time. An
expression compiles to `f(ex, frame) -> (value, reads)`, where `reads` is a
tuple of value ids, and a statement to `g(ex, frame)`, which returns None or,
for a `return`, the pair `(value, vid)`. The commonest shapes cost fewer
Python calls: an arithmetic, order or equality operator whose left operand
is a variable and whose right one is a variable or an integer literal is
one closure that fetches both operands itself (`_Compiler.fused`), and a
`let` or assignment, an `if` and a `while` head count their step and draw
their value's id inline, where every other statement calls
`_Executor.step` and `exec_event`.
"""

from __future__ import annotations

import hashlib
import json
import operator
import sys
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .config import DEFAULT_STEP_BUDGET
from .errors import MalformedTrace, NoTests
from .lang import ast as A
from .lang.ast import INT_MAX, INT_MIN

# MiniImp calls nest at most this deep below a test; a call past it throws
# a catchable `stack_overflow`.
MAX_CALL_DEPTH = 100
# The interpreter recurses in Python: a few frames per MiniImp call plus
# one or two per level of statement or expression nesting, which the parser
# bounds (`lang.parser.MAX_NESTING`). Tests run with Python's recursion
# limit raised by this much per call: the deepest program the parser
# accepts needs 58 (calls nested in sums in call arguments; see
# `deepest_program` in tests/test_tracer.py), plus a 25% margin.
_PY_FRAMES_PER_CALL = 72

EXEC = "exec"
BRANCH = "branch"
CALL_ENTER = "call_enter"
CALL_EXIT = "call_exit"
CALL_SUMMARY = "call_summary"
EXCEPTION_CATCH = "exception_catch"
ASSERT_PASS = "assert_pass"
ASSERT_FAIL = "assert_fail"


# The aux of every event that has none: one shared mapping, read-only so
# that no event can change another's. Code that rewrites aux copies it.
_NO_AUX = MappingProxyType({})


@dataclass(slots=True)
class TraceEvent:
    kind: str
    stmt: int
    reads: tuple = ()
    writes: tuple = ()
    aux: Mapping = field(default_factory=lambda: _NO_AUX)

    def to_record(self):
        return {"kind": self.kind, "stmt": self.stmt,
                "reads": list(self.reads), "writes": list(self.writes),
                "aux": dict(self.aux)}


@dataclass
class Trace:
    test: str
    status: str  # "pass" | "fail"
    reason: str = ""  # "", "assert", "exception", "timeout"
    events: list = field(default_factory=list)
    warning: str = ""
    # Loop compression maps each value written in a removed iteration to
    # the value the kept iteration wrote in its place; never a chain.
    aliases: dict = field(default_factory=dict)
    # The raw run's event count (set by the interpreter and by
    # `reduction.compress_loops`), and the loop iterations compression
    # removed at each period p.
    raw_events: int | None = None
    removed: dict = field(default_factory=dict)
    # A trace the benchmark shares (`bench.BaseProgram.trace`) keeps its
    # graph segment per pair of edge switches here (`ddg.build_ddg`); any
    # other, one made from it by `replace` among them, has None.
    segments: dict | None = field(init=False, default=None, repr=False,
                                  compare=False)

    @property
    def failing(self):
        return self.status == "fail"

    def size(self):
        return len(self.events)


@dataclass
class CoverageRecord:
    test: str
    status: str
    functions: set  # the functions the test entered, itself included
    statements: set
    reason: str = ""
    # the steps a timeout ran once a repeated loop state cut its budget to
    # the step the full budget stops at; 0 if no state repeated
    stopped_at: int = 0


@dataclass
class CoverageProfile:
    tests: dict  # test name -> CoverageRecord, in test order

    @property
    def failing(self):
        return [t for t in self.tests.values() if t.status == "fail"]

    @property
    def num_failing(self):
        return len(self.failing)


# MiniImp values are Python ints and bools, `ArrayRef`s and `ExcValue`s, so
# `type(v) is int` tells an integer from a boolean.

@dataclass(frozen=True)
class ArrayRef:
    addr: int


@dataclass(frozen=True)
class ExcValue:
    tag: str  # e.g. "div_by_zero", "index_out_of_bounds", "type_error"


_TYPE_ERROR = ExcValue("type_error")
_OUT_OF_BOUNDS = ExcValue("index_out_of_bounds")
_OVERFLOW = ExcValue("overflow")
_DIV_BY_ZERO = ExcValue("div_by_zero")
_STACK_OVERFLOW = ExcValue("stack_overflow")
# A name read or index-assigned on a path that never bound it (the parser's
# scope check is lexical).
_UNBOUND = ExcValue("unbound_variable")


class _Timeout(Exception):
    pass


class _AssertFailure(Exception):
    def __init__(self, vid):
        super().__init__("assertion failed")
        self.vid = vid


class MiniThrow(Exception):
    """A MiniImp-level exception travelling up the interpreter stack."""

    def __init__(self, value, vid, produced, origin_sid):
        super().__init__(f"uncaught: {value!r}")
        self.value = value
        self.vid = vid
        self.produced = produced  # whether some event writes `vid`
        self.origin_sid = origin_sid


class _Frame:
    __slots__ = ("env", "traced")

    def __init__(self, env, traced):
        self.env = env  # name -> (value, vid)
        self.traced = traced


class _Array:
    __slots__ = ("items", "version")

    def __init__(self, items, version):
        self.items = items
        self.version = version  # vid of the array's current contents


# A function body that ends without `return`, or `return;`: the value 0,
# produced by no event.
_NO_VALUE = (0, None)


class _Executor:
    """State of one test run: steps, value ids, events, heap, coverage and
    loop compression."""

    def __init__(self, program, traced_functions, step_budget, period=0):
        self.functions = program.functions
        self.compiled = program.compiled
        self.traced = traced_functions
        self.step_budget = step_budget
        self.steps = 0
        self.events = []
        self.vid_counter = 0
        self.heap = {}  # addr -> _Array; arrays are never freed
        self.depth = 0  # MiniImp frames, the test's included
        self.cov_statements = set()
        self.cov_functions = set()  # functions entered, the test's excluded
        self.stopped_at = 0  # see `CoverageRecord.stopped_at`
        # Loop compression with period K = `period` in traced frames (0:
        # none), and what it leaves of the raw run: see `Trace`.
        self.period = period
        self.aliases = {}
        self.removed = {}
        self.dropped = 0  # events removed
        # The last event recorded that writes a value, kept when compression
        # deletes it: the raw run's last write.
        self.last_write = None
        # (run, start) of the iterations an exception cut short in the
        # frame it is leaving, innermost loop first; see `settle`
        self.pending = []

    # --- bookkeeping ---

    def function(self, name):
        """(params, body) of a function, compiled on its first call."""
        code = self.compiled.get(name)
        if code is None:
            fn = self.functions[name]
            code = self.compiled[name] = (fn.params, _Compiler(fn).block(fn.body))
        return code

    # --- loop compression ---

    def end_iteration(self, run, start, end):
        """Apply `run`'s rule to the iteration events[start:end], which has
        just ended, and delete it if it repeats."""
        if run.repeats(self.events[start:end]):
            del self.events[start:end]
            self.dropped += end - start

    def settle(self):
        """End the iterations an exception cut short in the frame it is
        leaving or was caught in, innermost loop first. The caught exception
        or failing evidence recorded since is part of each, as in
        `reduction.compress_loops`."""
        for run, start in self.pending:
            self.end_iteration(run, start, len(self.events))
        self.pending.clear()

    def new_vid(self):
        vid = self.vid_counter
        self.vid_counter = vid + 1
        return vid

    def exec_event(self, frame, sid, reads):
        """Draw the id of a value computed by statement `sid`; record its
        EXEC event when the frame is traced. Untraced frames still draw
        ids, so numbering does not depend on what is traced."""
        vid = self.vid_counter
        self.vid_counter = vid + 1
        if frame.traced:
            self.last_write = ev = TraceEvent(EXEC, sid, reads, (vid,), _NO_AUX)
            self.events.append(ev)
        return vid

    def step(self, sid):
        self.steps += 1
        if self.steps > self.step_budget:
            raise _Timeout()
        self.cov_statements.add(sid)

    def throw(self, frame, sid, reads, value):
        vid = self.exec_event(frame, sid, reads)
        raise MiniThrow(value, vid, frame.traced, sid)

    # --- calls ---

    def call(self, frame, sid, name, args):
        """Call `name` with evaluated (value, vid) arguments from `frame`."""
        if self.depth > MAX_CALL_DEPTH:
            self.throw(frame, sid, tuple(vid for _, vid in args),
                       _STACK_OVERFLOW)
        traced_call = name in self.traced
        if frame.traced and not traced_call:
            return self.run_untraced_call(name, args, sid)
        if traced_call and not frame.traced:
            # Entered from untraced code: parameter values get fresh ids so
            # the enclosing call summary can claim them via virtual edges.
            fresh = []
            for value, _ in args:
                vid = self.new_vid()
                if type(value) is ArrayRef:
                    self.heap[value.addr].version = vid
                fresh.append((value, vid))
            args = fresh
        return self.run_call(name, args, traced_call, sid)

    def run_call(self, name, args, traced_call, sid):
        params, body = self.function(name)
        self.cov_functions.add(name)
        callee = _Frame(dict(zip(params, args)), traced_call)
        if traced_call:
            arrays = [value.addr for value, _ in args if type(value) is ArrayRef]
            self.events.append(TraceEvent(
                CALL_ENTER, sid, tuple([vid for _, vid in args]), (),
                {"callee": name}))
        self.depth += 1
        try:
            for g in body:
                ret = g(self, callee)
                if ret is not None:
                    break
            else:
                ret = _NO_VALUE
        except (MiniThrow, _AssertFailure, _Timeout) as exc:
            self.depth -= 1
            if traced_call:
                if self.pending:
                    self.settle()
                aux = {"callee": name}
                if type(exc) is MiniThrow:
                    aux["thrown"] = exc.vid
                self.events.append(TraceEvent(CALL_EXIT, sid, (), (), aux))
            raise
        self.depth -= 1
        value, vid = ret
        if traced_call:
            self.events.append(TraceEvent(CALL_EXIT, sid, (), (), {
                "callee": name, "ret": vid,
                "array_versions": [self.heap[addr].version for addr in arrays],
            }))
        return value, (() if vid is None else (vid,))

    def run_untraced_call(self, name, args, sid):
        """Execute an untraced callee and emit one atomic call summary.

        Reads: scalar arguments plus entry versions of array arguments.
        Writes: the return value plus a fresh version for each array argument.
        """
        array_args = [value.addr for value, _ in args if type(value) is ArrayRef]
        reads = tuple([vid for value, vid in args if type(value) is not ArrayRef]
                      + [self.heap[addr].version for addr in array_args])
        try:
            value, _ = self.run_call(name, args, False, sid)
        except MiniThrow as exc:
            writes = [] if exc.produced else [exc.vid]
            self.call_summary(sid, name, reads, array_args, writes)
            exc.produced = True
            raise
        except (_AssertFailure, _Timeout) as exc:
            # a timeout's evidence lands on the last value written: a fresh
            # one of the call
            writes = [self.new_vid()] if type(exc) is _Timeout else []
            self.call_summary(sid, name, reads, array_args, writes)
            raise
        ret = self.new_vid()
        self.call_summary(sid, name, reads, array_args, [ret])
        return value, (ret,)

    def call_summary(self, sid, name, reads, array_args, writes):
        for addr in array_args:
            vid = self.new_vid()
            self.heap[addr].version = vid
            writes.append(vid)
        ev = TraceEvent(CALL_SUMMARY, sid, reads, tuple(writes),
                        {"callee": name})
        self.events.append(ev)
        if writes:  # none when a traced callee of it wrote what it threw
            self.last_write = ev

    # --- test entry point ---

    def run_test(self, test_name):
        frame = _Frame({}, test_name in self.traced)
        self.depth = 1
        status, reason = "pass", ""
        py_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(py_limit + MAX_CALL_DEPTH * _PY_FRAMES_PER_CALL)
        try:
            _, body = self.function(test_name)
            for g in body:
                if g(self, frame) is not None:
                    break
        except _AssertFailure:
            status, reason = "fail", "assert"
            self.settle()
        except MiniThrow as exc:
            status, reason = "fail", "exception"
            if frame.traced:
                self.events.append(TraceEvent(ASSERT_FAIL, exc.origin_sid,
                                              (exc.vid,), (), _NO_AUX))
                self.settle()
        except _Timeout:
            status, reason = "fail", "timeout"
            # The observable wrong output of a non-terminating test is the
            # last value it produced; clamp it incorrect, mirroring the
            # uncaught-exception evidence.
            ev = self.last_write
            if ev is not None:
                self.events.append(TraceEvent(ASSERT_FAIL, ev.stmt,
                                              (ev.writes[-1],), (), _NO_AUX))
            self.settle()
        finally:
            sys.setrecursionlimit(py_limit)
        self.depth = 0
        return status, reason


# --- loop compression ---

def _shape(events):
    # The kind tells a failed assert from a passed one, so an iteration whose
    # assert fails is never removed as a repeat of one whose assert passed.
    return [(e.kind, e.stmt, len(e.reads), len(e.writes)) for e in events]


def _lag(shapes, shape, period):
    """The least p in 2..`period` for which an iteration of `shape`, with
    the p - 1 iterations before it, repeats the p iterations before those;
    0 when there is none. `shapes` ends with the shapes of the run's
    iterations so far, the latest last."""
    n = len(shapes)
    for p in range(2, period + 1):
        if n < 2 * p - 1:
            break
        if shape == shapes[-p] and all(shapes[-i] == shapes[-i - p]
                                       for i in range(1, p)):
            return p
    return 0


def _writes(events):
    return [w for e in events for w in e.writes]


class LoopRun:
    """Loop compression of one run of a loop, fed its iterations in order.

    An iteration is removed when, for the least p <= `period`, it and the
    p - 1 iterations before it have the same shapes as the p iterations
    before those, removed ones included. Each value it writes is then an
    alias of the value written in its place by the iteration p before it,
    or by the kept iteration that one stands for. At period 1 this is the
    paper's rule: an iteration shaped like the one before it.

    The run keeps the shapes of its last 2K - 1 iterations and the writes
    of the kept iterations standing for its last K, and adds to the
    `aliases` and per-p `removed` counts it is given.
    """

    __slots__ = ("period", "shapes", "kept", "aliases", "removed")

    def __init__(self, period, aliases, removed):
        self.period = period
        self.shapes = deque(maxlen=2 * period - 1)
        self.kept = deque(maxlen=period)
        self.aliases = aliases
        self.removed = removed

    def repeats(self, iteration) -> bool:
        """Whether the next iteration, a list of events, is removed."""
        shape = _shape(iteration)
        shapes = self.shapes
        if shapes and shape == shapes[-1]:
            p = 1
        else:
            p = _lag(shapes, shape, self.period)
        if p:
            # the iteration p back has this shape, and so has the kept
            # iteration standing for it
            rep = self.kept[-p]
            self.aliases.update(zip(_writes(iteration), rep))
            self.removed[p] = self.removed.get(p, 0) + 1
        else:
            rep = _writes(iteration)
        shapes.append(shape)
        self.kept.append(rep)
        return p > 0


def flatten_aliases(aliases):
    """Point every alias at a kept value: a value an inner loop kept may go
    with an outer iteration removed later, so aliases chain."""
    for vid, target in aliases.items():
        if target in aliases:
            while target in aliases:
                target = aliases[target]
            aliases[vid] = target
    return aliases


# --- repeated loop states ---

# A loop run watches its head state only after this many iterations: a
# spin cut short sooner would leave loop compression a shorter run to
# compress, and loops that end mostly end before it.
_LOOP_WARMUP = 64
# After it, every eighth head is checked: a check costs about 0.6 of the
# shortest loop's iteration, so a loop of 20,000 iterations that ends runs
# about 10% slower. A cycle of p heads is then found lcm(p, 8) heads after
# a kept state in it.
_LOOP_STRIDE = 8

_first = operator.itemgetter(0)


def _arrays(heap, values):
    """Contents and item types of every array reachable from `values`,
    through arrays that hold arrays, by address."""
    out = {}
    stack = [v.addr for v in values if type(v) is ArrayRef]
    while stack:
        addr = stack.pop()
        if addr not in out:
            items = heap[addr].items
            out[addr] = (items[:], list(map(type, items)))
            stack.extend(v.addr for v in items if type(v) is ArrayRef)
    return out


class _LoopWatch:
    """Brent's cycle check on the head states of one loop run.

    A program is only functions, and MiniImp is deterministic, so what a
    loop does from its head on is fixed by its frame's variables and the
    arrays reachable from them, by address and contents; an array allocated
    later gets a fresh address, and addresses are only ever compared for
    identity. Once a head state recurs, the run cycles with the period of
    steps between the two heads and never leaves the loop. The budget is
    then cut to the step at which the full run would stop in the same
    phase of the cycle: the timeout fires at the same statement, after the
    same coverage, with its evidence on the same statement's value.

    Values are compared with their types, since `True == 1` in Python. One
    state is kept, replaced after 64, 128, 256, ... heads (Brent, BIT 1980),
    and compared with every `_LOOP_STRIDE`-th head after it.
    """

    __slots__ = ("values", "types", "arrays", "steps", "heads", "window")

    def __init__(self, ex, env):
        self.window = _LOOP_WARMUP
        self.keep(ex, env)

    def keep(self, ex, env):
        self.values = values = list(map(_first, env.values()))
        self.types = list(map(type, values))
        self.arrays = _arrays(ex.heap, values)
        self.steps = ex.steps
        self.heads = 0

    def same(self, heap, values):
        """Whether a head whose values equal the kept ones has its state:
        the same types and arrays."""
        return (list(map(type, values)) == self.types
                and _arrays(heap, values) == self.arrays)

    def head(self, ex, env):
        """Check one head; the heads to skip before the next check."""
        values = list(map(_first, env.values()))
        if values == self.values and self.same(ex.heap, values):
            period = ex.steps - self.steps
            left = ex.step_budget - ex.steps
            ex.step_budget -= left - left % period
            ex.stopped_at = ex.step_budget
            # the run ends within the steps left: no head needs a check
            return left
        self.heads += _LOOP_STRIDE
        if self.heads == self.window:
            self.window *= 2
            self.keep(ex, env)
        return _LOOP_STRIDE - 1


# --- compilation ---

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge}
# the operators `_Compiler.fused` fetches the operands of
_FUSED = {**_ARITHMETIC, **_ORDER, "==": operator.eq, "!=": operator.ne}


class _Compiler:
    """Compiles one function body into closures over `_Executor` state:
    one closure per statement and per expression, except that a `Binary`
    of a `_FUSED` operator over a variable and a variable or an integer
    literal is one (`fused`), and that the `let`, assignment, `if` and
    `while` closures do `_Executor.step`'s and `exec_event`'s work inline.
    """

    def __init__(self, fn):
        # Literal arguments of calls made by test code are root inputs.
        self.in_test = A.is_test(fn.name)
        self.sid = -1  # statement being compiled; its events carry this id

    def block(self, stmts):
        return tuple(self.stmt(s) for s in stmts)

    # --- statements ---

    def stmt(self, s):
        if isinstance(s, A.Try):
            return self.try_stmt(s)
        self.sid = sid = s.sid
        if isinstance(s, (A.Let, A.Assign)):
            name, f = s.name, self.expr(s.expr)

            def let(ex, frame):
                ex.steps = steps = ex.steps + 1
                if steps > ex.step_budget:
                    raise _Timeout()
                ex.cov_statements.add(sid)
                value, reads = f(ex, frame)
                vid = ex.vid_counter
                ex.vid_counter = vid + 1
                if frame.traced:
                    ex.last_write = ev = TraceEvent(EXEC, sid, reads, (vid,),
                                                    _NO_AUX)
                    ex.events.append(ev)
                frame.env[name] = (value, vid)
            return let
        if isinstance(s, A.IndexAssign):
            return self.index_assign(s)
        if isinstance(s, A.If):
            f = self.expr(s.cond)
            then, orelse = self.block(s.then), self.block(s.orelse)

            def if_stmt(ex, frame):
                ex.steps = steps = ex.steps + 1
                if steps > ex.step_budget:
                    raise _Timeout()
                ex.cov_statements.add(sid)
                cond, reads = f(ex, frame)
                if type(cond) is not bool:
                    ex.throw(frame, sid, reads, _TYPE_ERROR)
                vid = ex.vid_counter
                ex.vid_counter = vid + 1
                if frame.traced:
                    ex.last_write = ev = TraceEvent(BRANCH, sid, reads, (vid,),
                                                    _NO_AUX)
                    ex.events.append(ev)
                for g in then if cond else orelse:
                    ret = g(ex, frame)
                    if ret is not None:
                        return ret
                return None
            return if_stmt
        if isinstance(s, A.While):
            f, body = self.expr(s.cond), self.block(s.body)

            def while_stmt(ex, frame):
                ex.step(sid)
                countdown, watch = _LOOP_WARMUP, None
                # A traced frame compresses the run as it goes: an iteration
                # runs from a branch event of the condition to the next one,
                # the loop's exit, or an exception that cuts it short.
                run, start, ret = None, -1, None
                if ex.period and frame.traced:
                    run = LoopRun(ex.period, ex.aliases, ex.removed)
                try:
                    while True:
                        # the loop head: a run past its warm-up watches its
                        # state
                        if countdown:
                            countdown -= 1
                        elif watch is None:
                            watch = _LoopWatch(ex, frame.env)
                            countdown = _LOOP_STRIDE - 1
                        else:
                            countdown = watch.head(ex, frame.env)
                        ex.steps = steps = ex.steps + 1
                        if steps > ex.step_budget:
                            raise _Timeout()
                        ex.cov_statements.add(sid)
                        cond, reads = f(ex, frame)
                        if type(cond) is not bool:
                            ex.throw(frame, sid, reads, _TYPE_ERROR)
                        vid = ex.vid_counter
                        ex.vid_counter = vid + 1
                        if frame.traced:
                            ex.last_write = ev = TraceEvent(
                                BRANCH, sid, reads, (vid,), _NO_AUX)
                            ex.events.append(ev)
                        if run is not None:
                            if start >= 0:
                                ex.end_iteration(run, start, len(ex.events) - 1)
                            start = len(ex.events) - 1
                        if not cond:
                            break
                        for g in body:
                            ret = g(ex, frame)
                            if ret is not None:
                                break
                        else:
                            continue
                        break
                except (MiniThrow, _AssertFailure, _Timeout):
                    if start >= 0:
                        ex.pending.append((run, start))
                    raise
                if run is not None:
                    ex.end_iteration(run, start, len(ex.events))
                return ret
            return while_stmt
        if isinstance(s, A.Return):
            if s.expr is None:
                def return_nothing(ex, frame):
                    ex.step(sid)
                    return _NO_VALUE
                return return_nothing
            f = self.expr(s.expr)

            def return_stmt(ex, frame):
                ex.step(sid)
                value, reads = f(ex, frame)
                return value, ex.exec_event(frame, sid, reads)
            return return_stmt
        if isinstance(s, A.Assert):
            return self.assert_stmt(s)
        if isinstance(s, A.Throw):
            f = self.expr(s.expr)

            def throw_stmt(ex, frame):
                ex.step(sid)
                value, reads = f(ex, frame)
                ex.throw(frame, sid, reads, value)
            return throw_stmt
        if isinstance(s, A.ExprStmt):
            f = self.expr(s.expr)

            def expr_stmt(ex, frame):
                ex.step(sid)
                _, reads = f(ex, frame)
                ex.exec_event(frame, sid, reads)
            return expr_stmt
        raise TypeError(f"not a statement: {s!r}")

    def try_stmt(self, s):
        body, handler = self.block(s.body), self.block(s.handler)
        name = s.catch_name

        # Blocks run inline, here as in `if` and `while`, so that a level of
        # statement nesting costs one Python frame.
        def try_catch(ex, frame):
            try:
                for g in body:
                    ret = g(ex, frame)
                    if ret is not None:
                        return ret
            except MiniThrow as exc:
                if frame.traced:
                    ex.events.append(TraceEvent(EXCEPTION_CATCH, exc.origin_sid,
                                                (exc.vid,), (), _NO_AUX))
                    if ex.pending:
                        ex.settle()
                frame.env[name] = (exc.value, exc.vid)
                for g in handler:
                    ret = g(ex, frame)
                    if ret is not None:
                        return ret
            return None
        return try_catch

    def index_assign(self, s):
        sid, name = s.sid, s.name
        f_index, f_value = self.expr(s.index), self.expr(s.expr)

        def index_assign(ex, frame):
            ex.step(sid)
            try:
                base, _ = frame.env[name]
            except KeyError:
                ex.throw(frame, sid, (), _UNBOUND)
            idx, idx_reads = f_index(ex, frame)
            value, value_reads = f_value(ex, frame)
            if type(base) is not ArrayRef or type(idx) is not int:
                ex.throw(frame, sid, idx_reads + value_reads, _TYPE_ERROR)
            array = ex.heap[base.addr]
            reads = (array.version,) + idx_reads + value_reads
            if idx < 0 or idx >= len(array.items):
                ex.throw(frame, sid, reads, _OUT_OF_BOUNDS)
            if type(value) is ArrayRef:
                ex.throw(frame, sid, reads, _TYPE_ERROR)
            vid = ex.exec_event(frame, sid, reads)
            array.items[idx] = value
            array.version = vid
        return index_assign

    def assert_stmt(self, s):
        sid, f = s.sid, self.expr(s.expr)
        # A variable's or a call's value is asserted as it is; any other
        # expression first becomes a value of the assert statement.
        direct = isinstance(s.expr, (A.Var, A.Call))

        def assert_stmt(ex, frame):
            ex.step(sid)
            value, reads = f(ex, frame)
            if direct and reads:
                vid = reads[0]
            else:
                vid = ex.exec_event(frame, sid, reads)
            if type(value) is not bool:
                ex.throw(frame, sid, (vid,), _TYPE_ERROR)
            if frame.traced:
                ex.events.append(TraceEvent(ASSERT_PASS if value else ASSERT_FAIL,
                                            sid, (vid,), (), _NO_AUX))
            if not value:
                raise _AssertFailure(vid)
        return assert_stmt

    # --- expressions ---

    def expr(self, e):
        sid = self.sid
        if isinstance(e, (A.IntLit, A.BoolLit)):
            result = (e.value, ())
            return lambda ex, frame: result
        if isinstance(e, A.Var):
            name = e.name

            def var(ex, frame):
                try:
                    value, vid = frame.env[name]
                except KeyError:
                    ex.throw(frame, sid, (), _UNBOUND)
                if type(value) is ArrayRef:
                    return value, (ex.heap[value.addr].version,)
                return value, (vid,)
            return var
        if isinstance(e, A.ArrayLit):
            fs = tuple(self.expr(item) for item in e.items)

            def array(ex, frame):
                items, reads = [], ()
                for f in fs:
                    value, r = f(ex, frame)
                    items.append(value)
                    reads += r
                version = ex.exec_event(frame, sid, reads)
                addr = len(ex.heap)
                ex.heap[addr] = _Array(items, version)
                return ArrayRef(addr), (version,)
            return array
        if isinstance(e, A.Index):
            f_base, f_index = self.expr(e.base), self.expr(e.index)

            def index(ex, frame):
                base, reads = f_base(ex, frame)
                idx, r = f_index(ex, frame)
                reads += r
                if type(base) is not ArrayRef or type(idx) is not int:
                    ex.throw(frame, sid, reads, _TYPE_ERROR)
                items = ex.heap[base.addr].items
                if idx < 0 or idx >= len(items):
                    ex.throw(frame, sid, reads, _OUT_OF_BOUNDS)
                return items[idx], reads
            return index
        if isinstance(e, A.Unary):
            return self.unary(e.op, self.expr(e.operand))
        if isinstance(e, A.Binary):
            f = self.binary(e.op, self.expr(e.left), self.expr(e.right))
            if (e.op in _FUSED and isinstance(e.left, A.Var)
                    and isinstance(e.right, (A.Var, A.IntLit))):
                return self.fused(_FUSED[e.op], e.left.name, e.right, f)
            return f
        if isinstance(e, A.Call):
            name, fs = e.name, tuple(self.arg(a) for a in e.args)

            def call(ex, frame):
                args = []  # a loop, not a comprehension: one frame fewer
                for f in fs:
                    args.append(f(ex, frame))
                return ex.call(frame, sid, name, args)
            return call
        raise TypeError(f"not an expression: {e!r}")

    def unary(self, op, f):
        sid = self.sid
        if op == "-":
            def negate(ex, frame):
                value, reads = f(ex, frame)
                if type(value) is not int:
                    ex.throw(frame, sid, reads, _TYPE_ERROR)
                value = -value
                # checked 64-bit: only -INT_MIN leaves the range
                if value > INT_MAX:
                    ex.throw(frame, sid, reads, _OVERFLOW)
                return value, reads
            return negate

        def logical_not(ex, frame):
            value, reads = f(ex, frame)
            if type(value) is not bool:
                ex.throw(frame, sid, reads, _TYPE_ERROR)
            return (not value), reads
        return logical_not

    def binary(self, op, f_left, f_right):
        sid = self.sid
        if op in ("&&", "||"):
            # short-circuit: `&&` stops at false, `||` at true
            stop = op == "||"

            def logical(ex, frame):
                left, reads = f_left(ex, frame)
                if type(left) is not bool:
                    ex.throw(frame, sid, reads, _TYPE_ERROR)
                if left is stop:
                    return left, reads
                right, r = f_right(ex, frame)
                reads += r
                if type(right) is not bool:
                    ex.throw(frame, sid, reads, _TYPE_ERROR)
                return right, reads
            return logical
        if op in ("==", "!="):
            negated = op == "!="

            def equality(ex, frame):
                left, reads = f_left(ex, frame)
                right, r = f_right(ex, frame)
                return (left == right) is not negated, reads + r
            return equality
        if op in _ORDER:
            compare = _ORDER[op]

            def order(ex, frame):
                left, reads = f_left(ex, frame)
                right, r = f_right(ex, frame)
                reads += r
                if type(left) is not int or type(right) is not int:
                    ex.throw(frame, sid, reads, _TYPE_ERROR)
                return compare(left, right), reads
            return order
        if op in _ARITHMETIC:
            apply = _ARITHMETIC[op]

            def arithmetic(ex, frame):
                left, reads = f_left(ex, frame)
                right, r = f_right(ex, frame)
                reads += r
                if type(left) is not int or type(right) is not int:
                    ex.throw(frame, sid, reads, _TYPE_ERROR)
                value = apply(left, right)
                # checked 64-bit arithmetic: overflow throws
                if value > INT_MAX or value < INT_MIN:
                    ex.throw(frame, sid, reads, _OVERFLOW)
                return value, reads
            return arithmetic
        if op in ("/", "%"):
            quotient = op == "/"

            def division(ex, frame):
                left, reads = f_left(ex, frame)
                right, r = f_right(ex, frame)
                reads += r
                if type(left) is not int or type(right) is not int:
                    ex.throw(frame, sid, reads, _TYPE_ERROR)
                if right == 0:
                    ex.throw(frame, sid, reads, _DIV_BY_ZERO)
                # truncating division, remainder with the dividend's sign
                q = abs(left) // abs(right)
                if (left < 0) != (right < 0):
                    q = -q
                # checked 64-bit: only the quotient INT_MIN / -1 overflows
                if quotient and q > INT_MAX:
                    ex.throw(frame, sid, reads, _OVERFLOW)
                return (q if quotient else left - q * right), reads
            return division
        raise TypeError(f"unknown operator {op!r}")

    def fused(self, apply, name, right, nested):
        """`name op right`, for `right` a variable or an integer literal and
        `apply` the operator, as one closure that fetches its operands from
        the frame itself (a superoperator). When both are bound integers and
        the result is in range, it gives what the `nested` closures give;
        otherwise it runs them, and they throw or compare as they would.
        Reading a variable twice is safe: a read has no side effect."""
        if isinstance(right, A.IntLit):
            literal = right.value

            def fused_literal(ex, frame):
                try:
                    left, vid = frame.env[name]
                except KeyError:
                    return nested(ex, frame)
                if type(left) is int:
                    value = apply(left, literal)
                    if INT_MIN <= value <= INT_MAX:
                        return value, (vid,)
                return nested(ex, frame)
            return fused_literal
        other = right.name

        def fused_vars(ex, frame):
            env = frame.env
            try:
                left, vid = env[name]
                right, right_vid = env[other]
            except KeyError:
                return nested(ex, frame)
            if type(left) is int and type(right) is int:
                value = apply(left, right)
                if INT_MIN <= value <= INT_MAX:
                    return value, (vid, right_vid)
            return nested(ex, frame)
        return fused_vars

    def arg(self, a):
        """Compile a call argument to `f(ex, frame) -> (value, vid)`, the vid
        being the value id the callee receives."""
        sid = self.sid
        if isinstance(a, A.Var):
            f = self.expr(a)

            def var_arg(ex, frame):
                value, reads = f(ex, frame)
                return value, reads[0]
            return var_arg
        if isinstance(a, (A.IntLit, A.BoolLit)) and self.in_test:
            # literal test inputs are root values with no producer
            value = a.value
            return lambda ex, frame: (value, ex.new_vid())
        if isinstance(a, A.Call):
            # the call itself, not a wrapper of `f`: one frame per level of
            # calls nested in arguments
            name, fs = a.name, tuple(self.arg(b) for b in a.args)

            def call_arg(ex, frame):
                args = []
                for f in fs:
                    args.append(f(ex, frame))
                value, reads = ex.call(frame, sid, name, args)
                if reads:
                    return value, reads[0]
                # void callee: an auxiliary evaluation event
                return value, ex.exec_event(frame, sid, reads)
            return call_arg
        f = self.expr(a)

        def value_arg(ex, frame):
            value, reads = f(ex, frame)
            if type(value) is ArrayRef:
                return value, ex.heap[value.addr].version
            return value, ex.exec_event(frame, sid, reads)
        return value_arg


# --- entry points ---

def profile(program: A.Program, step_budget=DEFAULT_STEP_BUDGET,
            failing_traces=None, period=0, given=None) -> CoverageProfile:
    """Run every test once with coverage-only instrumentation.

    Given a dict as `failing_traces`, each test instead runs with every
    non-test function traced, as `trace` would run it with the same
    `period`, and the dict gets the `Trace` of each failing test under the
    test's name; the events of passing tests are dropped. Coverage is the
    same either way.

    A test named in `given`, a mapping of test name to `CoverageRecord`,
    does not run: its record is taken as given, so it must be the one a
    run at `step_budget` would make, and `failing_traces` gets no trace
    of it.
    """
    tests = program.test_names
    if not tests:
        raise NoTests("program defines no test_ functions")
    app = frozenset(n for n in program.functions if not A.is_test(n))
    given = given or {}
    records = {}
    for name in tests:
        if name in given:
            records[name] = given[name]
            continue
        if failing_traces is None:
            ex, (status, reason) = _run(program, name, frozenset(),
                                        step_budget)
        else:
            ex, (status, reason) = _run(program, name, app | {name},
                                        step_budget, period)
            if status == "fail":
                failing_traces[name] = _to_trace(ex, name, status, reason)
        records[name] = CoverageRecord(
            test=name, status=status, reason=reason,
            functions=ex.cov_functions | {name},
            statements=ex.cov_statements, stopped_at=ex.stopped_at)
    return CoverageProfile(tests=records)


def run_test(program: A.Program, test: str,
             step_budget=DEFAULT_STEP_BUDGET) -> tuple:
    """Run one test with nothing traced; its (status, reason)."""
    return _run(program, test, frozenset(), step_budget)[1]


def trace(program: A.Program, test: str, traced_functions,
          step_budget=DEFAULT_STEP_BUDGET, period=0) -> Trace:
    """Run one test with full event recording for `traced_functions`. With
    a `period` K > 0, loops are compressed as they run (`LoopRun`), to the
    trace `reduction.compress_loops` makes of the raw one at K.

    Each call is traced or not when it is made, and value ids do not
    depend on tracing, so the trace depends on `traced_functions` only
    through the functions the test enters."""
    if test not in program.functions:
        raise MalformedTrace(f"unknown test {test!r}")
    ex, (status, reason) = _run(program, test,
                                frozenset(traced_functions) | {test},
                                step_budget, period)
    return _to_trace(ex, test, status, reason)


def _run(program, test, traced, step_budget, period=0):
    """Run `test` in a new `_Executor` that traces the functions in
    `traced`, the test's own body if the test is one of them. Returns the
    executor and the test's (status, reason)."""
    ex = _Executor(program, traced, step_budget, period)
    return ex, ex.run_test(test)


def _to_trace(ex, test, status, reason) -> Trace:
    """The `Trace` of a run that traced its test."""
    return Trace(test=test, status=status, reason=reason, events=ex.events,
                 aliases=flatten_aliases(ex.aliases),
                 raw_events=len(ex.events) + ex.dropped, removed=ex.removed)


# --- serialization ---

def program_hash(program: A.Program) -> str:
    return hashlib.sha256(program.source_text.encode()).hexdigest()[:16]


def dump_trace(tr: Trace, program: A.Program) -> str:
    header = {"test": tr.test, "status": tr.status, "reason": tr.reason,
              "program": program_hash(program), "warning": tr.warning}
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(e.to_record(), sort_keys=True) for e in tr.events)
    return "\n".join(lines) + "\n"
