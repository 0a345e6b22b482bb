"""Test execution under two instrumentation modes.

`profile` runs every test with lightweight coverage recording, or with
every non-test function traced when the caller keeps the failing tests'
traces; `trace` runs a single test with full value-level event recording,
collapsing calls into untraced functions to atomic call summaries. A value
is an EXEC event, or a BRANCH event if it is a condition's own value.

Both run function bodies compiled once per program into nested Python
closures (`_Compiler`), so no AST node is dispatched on at run time. An
expression compiles to `f(ex, frame) -> (value, reads)`, where `reads` is a
tuple of value ids, and a statement to `g(ex, frame)`, which returns None or,
for a `return`, the pair `(value, vid)`.
"""

from __future__ import annotations

import hashlib
import json
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import MalformedTrace, NoTests
from .lang import ast as A
from .lang.ast import INT_MAX, INT_MIN

DEFAULT_STEP_BUDGET = 10 ** 6

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
ASSERT_OUTCOME = "assert_outcome"


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
    value_count: int = 0
    oversized: bool = False
    truncated: bool = False
    warning: str = ""
    # Loop compression maps each value written in a removed iteration to
    # the value the kept iteration wrote in its place; never a chain.
    aliases: dict = field(default_factory=dict)

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


@dataclass
class CoverageProfile:
    tests: dict  # test name -> CoverageRecord, in test order

    @property
    def failing(self):
        return [t for t in self.tests.values() if t.status == "fail"]

    @property
    def passing(self):
        return [t for t in self.tests.values() if t.status == "pass"]

    @property
    def num_failing(self):
        return len(self.failing)

    @property
    def num_passing(self):
        return len(self.passing)


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
        self.unwound = 0


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
    """State of one test run: steps, value ids, events, heap and coverage."""

    def __init__(self, program, traced_functions, step_budget):
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

    # --- bookkeeping ---

    def function(self, name):
        """(params, body) of a function, compiled on its first call."""
        code = self.compiled.get(name)
        if code is None:
            fn = self.functions[name]
            code = self.compiled[name] = (fn.params, _Compiler(fn).block(fn.body))
        return code

    def new_vid(self):
        vid = self.vid_counter
        self.vid_counter = vid + 1
        return vid

    def exec_event(self, frame, sid, reads, kind=EXEC):
        """Draw the id of a value computed by statement `sid`; record its
        event, of `kind`, when the frame is traced. Untraced frames still
        draw ids, so numbering does not depend on what is traced."""
        vid = self.vid_counter
        self.vid_counter = vid + 1
        if frame.traced:
            self.events.append(TraceEvent(kind, sid, reads, (vid,), _NO_AUX))
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
            arrays = [[value.addr, self.heap[value.addr].version]
                      for value, _ in args if type(value) is ArrayRef]
            self.events.append(TraceEvent(CALL_ENTER, sid, (), (), {
                "callee": name,
                "params": [vid for _, vid in args],
                "arrays": arrays,
            }))
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
            if type(exc) is MiniThrow:
                exc.unwound += 1
            if traced_call:
                aux = {"callee": name, "ret": None, "aborted": True,
                       "array_versions": []}
                if type(exc) is MiniThrow:
                    aux["thrown"] = exc.vid
                self.events.append(TraceEvent(CALL_EXIT, sid, (), (), aux))
            raise
        self.depth -= 1
        value, vid = ret
        if traced_call:
            versions = [[addr, self.heap[addr].version] for addr, _ in arrays]
            self.events.append(TraceEvent(CALL_EXIT, sid, (), (), {
                "callee": name, "ret": vid, "aborted": False,
                "array_versions": versions,
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
            self.call_summary(sid, name, reads, array_args, writes, True, None)
            exc.produced = True
            raise
        except (_AssertFailure, _Timeout) as exc:
            # a timeout's evidence lands on the last value written: a fresh
            # one of the call
            writes = [self.new_vid()] if type(exc) is _Timeout else []
            self.call_summary(sid, name, reads, array_args, writes, True, None)
            raise
        ret = self.new_vid()
        self.call_summary(sid, name, reads, array_args, [ret], False, ret)
        return value, (ret,)

    def call_summary(self, sid, name, reads, array_args, writes, threw, ret):
        for addr in array_args:
            vid = self.new_vid()
            self.heap[addr].version = vid
            writes.append(vid)
        self.events.append(TraceEvent(
            CALL_SUMMARY, sid, reads, tuple(writes),
            {"callee": name, "ret": ret, "threw": threw}))

    # --- test entry point ---

    def run_test(self, test_name, traced):
        frame = _Frame({}, traced)
        self.depth = 1
        status, reason = "pass", ""
        truncated = False
        py_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(py_limit + MAX_CALL_DEPTH * _PY_FRAMES_PER_CALL)
        try:
            _, body = self.function(test_name)
            for g in body:
                if g(self, frame) is not None:
                    break
        except _AssertFailure:
            status, reason = "fail", "assert"
        except MiniThrow as exc:
            status, reason = "fail", "exception"
            if traced:
                self.events.append(TraceEvent(ASSERT_OUTCOME, exc.origin_sid, (), (), {
                    "value": exc.vid, "outcome": False, "from_exception": True}))
        except _Timeout:
            status, reason = "fail", "timeout"
            truncated = True
            # The observable wrong output of a non-terminating test is the
            # last value it produced; clamp it incorrect, mirroring the
            # uncaught-exception evidence.
            for ev in reversed(self.events):
                if ev.writes:
                    self.events.append(TraceEvent(ASSERT_OUTCOME, ev.stmt, (), (), {
                        "value": ev.writes[-1], "outcome": False,
                        "from_timeout": True}))
                    break
        finally:
            sys.setrecursionlimit(py_limit)
        self.depth = 0
        return status, reason, truncated


# --- compilation ---

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge}


class _Compiler:
    """Compiles one function body into closures over `_Executor` state."""

    def __init__(self, fn):
        # Literal arguments of calls made by test code are root inputs.
        self.in_test = fn.name.startswith("test_")
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
                ex.step(sid)
                value, reads = f(ex, frame)
                frame.env[name] = (value, ex.exec_event(frame, sid, reads))
            return let
        if isinstance(s, A.IndexAssign):
            return self.index_assign(s)
        if isinstance(s, A.If):
            f = self.expr(s.cond)
            then, orelse = self.block(s.then), self.block(s.orelse)

            def if_stmt(ex, frame):
                ex.step(sid)
                cond, reads = f(ex, frame)
                if type(cond) is not bool:
                    ex.throw(frame, sid, reads, _TYPE_ERROR)
                ex.exec_event(frame, sid, reads, BRANCH)
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
                while True:
                    ex.step(sid)
                    cond, reads = f(ex, frame)
                    if type(cond) is not bool:
                        ex.throw(frame, sid, reads, _TYPE_ERROR)
                    ex.exec_event(frame, sid, reads, BRANCH)
                    if not cond:
                        return None
                    for g in body:
                        ret = g(ex, frame)
                        if ret is not None:
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
                    ex.events.append(TraceEvent(
                        EXCEPTION_CATCH, exc.origin_sid, (), (),
                        {"value": exc.vid, "unwound": exc.unwound}))
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
                ex.events.append(TraceEvent(ASSERT_OUTCOME, sid, (), (), {
                    "value": vid, "outcome": value}))
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
            return self.binary(e.op, self.expr(e.left), self.expr(e.right))
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
            failing_traces=None, trace_limit=None) -> CoverageProfile:
    """Run every test once with coverage-only instrumentation.

    Given a dict as `failing_traces`, each test instead runs with every
    non-test function traced, as `trace` would run it, and the dict gets
    the `Trace` of each failing test under the test's name; the events of
    passing tests are dropped. Coverage is the same either way.
    """
    tests = program.test_names
    if not tests:
        raise NoTests("program defines no test_ functions")
    app = frozenset(n for n in program.functions if not n.startswith("test_"))
    records = {}
    for name in tests:
        if failing_traces is None:
            ex = _Executor(program, traced_functions=frozenset(),
                           step_budget=step_budget)
            status, reason, _ = ex.run_test(name, traced=False)
            statements, functions = ex.cov_statements, ex.cov_functions
        else:
            tr, statements, functions = _record(program, name, app,
                                                step_budget, trace_limit)
            status, reason = tr.status, tr.reason
            if tr.failing:
                failing_traces[name] = tr
        records[name] = CoverageRecord(
            test=name, status=status, reason=reason,
            functions=functions | {name}, statements=statements)
    return CoverageProfile(tests=records)


def run_test(program: A.Program, test: str,
             step_budget=DEFAULT_STEP_BUDGET) -> tuple:
    """Run one test with nothing traced; its (status, reason)."""
    ex = _Executor(program, traced_functions=frozenset(),
                   step_budget=step_budget)
    status, reason, _ = ex.run_test(test, traced=False)
    return status, reason


def trace(program: A.Program, test: str, traced_functions,
          step_budget=DEFAULT_STEP_BUDGET, trace_limit=None) -> Trace:
    """Run one test with full event recording for `traced_functions`."""
    if test not in program.functions:
        raise MalformedTrace(f"unknown test {test!r}")
    return _record(program, test, traced_functions, step_budget,
                   trace_limit)[0]


def _record(program, test, traced_functions, step_budget, trace_limit):
    """Run `test` with itself and `traced_functions` traced. Returns its
    `Trace`, the statements it ran and the functions it entered."""
    traced = frozenset(traced_functions) | {test}
    ex = _Executor(program, traced_functions=traced, step_budget=step_budget)
    status, reason, truncated = ex.run_test(test, traced=True)
    t = Trace(test=test, status=status, reason=reason, events=ex.events,
              value_count=ex.vid_counter, truncated=truncated)
    if trace_limit is not None and t.size() > trace_limit:
        t.oversized = True
    return t, ex.cov_statements, ex.cov_functions


# --- serialization ---

def program_hash(program: A.Program) -> str:
    return hashlib.sha256(program.source_text.encode()).hexdigest()[:16]


def dump_trace(tr: Trace, program: A.Program) -> str:
    header = {"test": tr.test, "status": tr.status, "reason": tr.reason,
              "program": program_hash(program), "value_count": tr.value_count,
              "oversized": tr.oversized, "truncated": tr.truncated,
              "warning": tr.warning}
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(e.to_record(), sort_keys=True) for e in tr.events)
    return "\n".join(lines) + "\n"
