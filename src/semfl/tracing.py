"""Test execution under two instrumentation modes.

`profile` runs every test with lightweight coverage recording; `trace` runs a
single test with full value-level event recording, collapsing calls into
untraced functions to atomic call summaries.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import MalformedTrace, NoTests
from .lang import ast as A

DEFAULT_STEP_BUDGET = 10 ** 6

# MiniImp calls nest at most this deep below a test; a call past it throws
# a catchable `stack_overflow`.
MAX_CALL_DEPTH = 100
# The interpreter recurses in Python: a few frames per MiniImp call plus two
# per level of statement or expression nesting. Tests run with Python's
# recursion limit raised by this much per call.
_PY_FRAMES_PER_CALL = 100

# MiniImp integers are checked 64-bit: results outside this range throw.
INT_MAX = 2 ** 63 - 1
INT_MIN = -(2 ** 63)

EXEC = "exec"
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

    @property
    def failing(self):
        return self.status == "fail"

    def size(self):
        return len(self.events)


@dataclass
class TestCoverage:
    test: str
    status: str
    functions: set
    statements: set
    reason: str = ""


@dataclass
class CoverageProfile:
    tests: dict  # test name -> TestCoverage, in test order

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


@dataclass(frozen=True)
class ArrayRef:
    addr: int


@dataclass(frozen=True)
class ExcValue:
    tag: str  # e.g. "div_by_zero", "index_out_of_bounds", "type_error"


class _Timeout(Exception):
    pass


class _AssertFailure(Exception):
    def __init__(self, vid):
        super().__init__("assertion failed")
        self.vid = vid


class _Return(Exception):
    def __init__(self, value, vid):
        super().__init__()
        self.value = value
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
    __slots__ = ("fn", "env", "traced")

    def __init__(self, fn, traced):
        self.fn = fn
        self.env = {}
        self.traced = traced


class _Executor:
    def __init__(self, program, traced_functions, step_budget):
        self.program = program
        self.traced = traced_functions
        self.step_budget = step_budget
        self.steps = 0
        self.events = []
        self.vid_counter = 0
        self.heap = {}
        self.next_addr = 0
        self.frames = []
        self.cov_functions = set()
        self.cov_statements = set()

    # --- bookkeeping ---

    def new_vid(self):
        vid = self.vid_counter
        self.vid_counter += 1
        return vid

    def emit(self, event):
        if self.frames and self.frames[-1].traced:
            self.events.append(event)

    def emit_exec(self, stmt, reads):
        vid = self.new_vid()
        self.emit(TraceEvent(EXEC, stmt.sid, tuple(reads), (vid,)))
        return vid

    def step(self, stmt, frame):
        self.steps += 1
        if self.steps > self.step_budget:
            raise _Timeout()
        self.cov_functions.add(frame.fn)
        self.cov_statements.add(stmt.sid)

    def throw(self, tag, stmt, reads, frame):
        value = ExcValue(tag)
        if frame.traced:
            vid = self.emit_exec(stmt, reads)
            produced = True
        else:
            vid = self.new_vid()
            produced = False
        raise MiniThrow(value, vid, produced, stmt.sid)

    # --- expression evaluation ---
    # eval returns (python value, list of read vids).

    def eval(self, expr, frame, stmt):
        if isinstance(expr, A.IntLit):
            return expr.value, []
        if isinstance(expr, A.BoolLit):
            return expr.value, []
        if isinstance(expr, A.Var):
            value, vid = frame.env[expr.name]
            if isinstance(value, ArrayRef):
                return value, [self.heap[value.addr]["version"]]
            return value, [vid]
        if isinstance(expr, A.ArrayLit):
            items, reads = [], []
            for e in expr.items:
                v, r = self.eval(e, frame, stmt)
                items.append(v)
                reads.extend(r)
            addr = self.next_addr
            self.next_addr += 1
            version = self.new_vid()
            self.emit(TraceEvent(EXEC, stmt.sid, tuple(reads), (version,)))
            self.heap[addr] = {"items": items, "version": version}
            return ArrayRef(addr), [version]
        if isinstance(expr, A.Index):
            base, base_reads = self.eval(expr.base, frame, stmt)
            idx, idx_reads = self.eval(expr.index, frame, stmt)
            reads = base_reads + idx_reads
            if not isinstance(base, ArrayRef) or not isinstance(idx, int) or isinstance(idx, bool):
                self.throw("type_error", stmt, reads, frame)
            items = self.heap[base.addr]["items"]
            if idx < 0 or idx >= len(items):
                self.throw("index_out_of_bounds", stmt, reads, frame)
            return items[idx], reads
        if isinstance(expr, A.Unary):
            v, reads = self.eval(expr.operand, frame, stmt)
            if expr.op == "-":
                if not isinstance(v, int) or isinstance(v, bool):
                    self.throw("type_error", stmt, reads, frame)
                return -v, reads
            if not isinstance(v, bool):
                self.throw("type_error", stmt, reads, frame)
            return (not v), reads
        if isinstance(expr, A.Binary):
            return self.eval_binary(expr, frame, stmt)
        if isinstance(expr, A.Call):
            return self.eval_call(expr, frame, stmt)
        raise MalformedTrace(f"unknown expression {expr!r}")

    def check_int(self, value, stmt, reads, frame):
        # Checked 64-bit arithmetic: overflow throws a catchable error.
        if value > INT_MAX or value < INT_MIN:
            self.throw("overflow", stmt, reads, frame)
        return value

    def eval_binary(self, expr, frame, stmt):
        op = expr.op
        left, lr = self.eval(expr.left, frame, stmt)
        # Short-circuit boolean operators.
        if op in ("&&", "||"):
            if not isinstance(left, bool):
                self.throw("type_error", stmt, lr, frame)
            if (op == "&&" and not left) or (op == "||" and left):
                return left, lr
            right, rr = self.eval(expr.right, frame, stmt)
            if not isinstance(right, bool):
                self.throw("type_error", stmt, lr + rr, frame)
            return right, lr + rr
        right, rr = self.eval(expr.right, frame, stmt)
        reads = lr + rr
        if op in ("==", "!="):
            eq = left == right
            return (eq if op == "==" else not eq), reads
        ints = (isinstance(left, int) and not isinstance(left, bool)
                and isinstance(right, int) and not isinstance(right, bool))
        if not ints:
            self.throw("type_error", stmt, reads, frame)
        if op == "<":
            return left < right, reads
        if op == "<=":
            return left <= right, reads
        if op == ">":
            return left > right, reads
        if op == ">=":
            return left >= right, reads
        if op == "+":
            return self.check_int(left + right, stmt, reads, frame), reads
        if op == "-":
            return self.check_int(left - right, stmt, reads, frame), reads
        if op == "*":
            return self.check_int(left * right, stmt, reads, frame), reads
        if op in ("/", "%"):
            if right == 0:
                self.throw("div_by_zero", stmt, reads, frame)
            q = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                q = -q
            return (q if op == "/" else left - q * right), reads

    def eval_arg(self, arg, frame, stmt):
        """Evaluate one call argument; returns (value, vid carried to the callee)."""
        if isinstance(arg, A.Var):
            value, reads = self.eval(arg, frame, stmt)
            return value, reads[0]
        if isinstance(arg, (A.IntLit, A.BoolLit)) and frame.fn.startswith("test_"):
            # Literal test inputs are root values with no producer.
            return (arg.value, self.new_vid())
        if isinstance(arg, A.Call):
            value, reads = self.eval(arg, frame, stmt)
            if len(reads) == 1:
                return value, reads[0]
            # void callee: fall through to an auxiliary evaluation event
            vid = self.emit_exec(stmt, reads)
            return value, vid
        value, reads = self.eval(arg, frame, stmt)
        if isinstance(value, ArrayRef):
            return value, self.heap[value.addr]["version"]
        vid = self.emit_exec(stmt, reads)
        return value, vid

    def eval_call(self, expr, frame, stmt):
        fn = self.program.functions[expr.name]
        traced_call = expr.name in self.traced
        args = [self.eval_arg(a, frame, stmt) for a in expr.args]
        if len(self.frames) > MAX_CALL_DEPTH:
            self.throw("stack_overflow", stmt, [vid for _, vid in args], frame)
        if frame.traced and not traced_call:
            return self.run_untraced_call(fn, args, frame, stmt)
        if not frame.traced and traced_call:
            # Entered from untraced code: parameter values get fresh ids so
            # the enclosing call summary can claim them via virtual edges.
            fresh = []
            for value, _ in args:
                vid = self.new_vid()
                if isinstance(value, ArrayRef):
                    self.heap[value.addr]["version"] = vid
                fresh.append((value, vid))
            args = fresh
        return self.run_call(fn, args, traced_call, stmt)

    def run_call(self, fn, args, traced_call, stmt):
        callee_frame = _Frame(fn.name, traced_call)
        for name, (value, vid) in zip(fn.params, args):
            callee_frame.env[name] = (value, vid)
        arrays = [[value.addr, self.heap[value.addr]["version"]]
                  for value, _ in args if isinstance(value, ArrayRef)]
        enter = TraceEvent(CALL_ENTER, stmt.sid, aux={
            "callee": fn.name,
            "params": [vid for _, vid in args],
            "arrays": arrays,
        })
        if traced_call:
            self.events.append(enter)
        self.frames.append(callee_frame)
        try:
            ret_value, ret_vid = 0, None
            try:
                self.exec_block(fn.body, callee_frame)
            except _Return as r:
                ret_value, ret_vid = r.value, r.vid
        except (MiniThrow, _AssertFailure, _Timeout) as exc:
            self.frames.pop()
            if isinstance(exc, MiniThrow):
                exc.unwound += 1
            if traced_call:
                aux = {"callee": fn.name, "ret": None, "aborted": True,
                       "array_versions": []}
                if isinstance(exc, MiniThrow):
                    aux["thrown"] = exc.vid
                self.events.append(TraceEvent(CALL_EXIT, stmt.sid, aux=aux))
            raise
        self.frames.pop()
        if traced_call:
            versions = [[addr, self.heap[addr]["version"]] for addr, _ in arrays]
            self.events.append(TraceEvent(CALL_EXIT, stmt.sid, aux={
                "callee": fn.name, "ret": ret_vid, "aborted": False,
                "array_versions": versions,
            }))
        return ret_value, ([ret_vid] if ret_vid is not None else [])

    def run_untraced_call(self, fn, args, frame, stmt):
        """Execute an untraced callee and emit one atomic call summary.

        Reads: scalar arguments plus entry versions of array arguments.
        Writes: the return value plus a fresh version for each array argument.
        """
        scalar_reads = [vid for value, vid in args if not isinstance(value, ArrayRef)]
        array_args = [value.addr for value, _ in args if isinstance(value, ArrayRef)]
        entry_versions = [self.heap[addr]["version"] for addr in array_args]

        def finish(extra_writes, threw, ret_vid):
            new_versions = []
            for addr in array_args:
                nv = self.new_vid()
                self.heap[addr]["version"] = nv
                new_versions.append(nv)
            writes = tuple(extra_writes) + tuple(new_versions)
            self.emit(TraceEvent(
                CALL_SUMMARY, stmt.sid,
                reads=tuple(scalar_reads + entry_versions),
                writes=writes,
                aux={"callee": fn.name, "ret": ret_vid, "threw": threw}))

        try:
            value, _ = self.run_call(fn, args, traced_call=False, stmt=stmt)
        except MiniThrow as exc:
            extra = [] if exc.produced else [exc.vid]
            finish(extra, threw=True, ret_vid=None)
            exc.produced = True
            raise
        except _AssertFailure:
            finish([], threw=True, ret_vid=None)
            raise
        ret_vid = self.new_vid()
        finish([ret_vid], threw=False, ret_vid=ret_vid)
        return value, [ret_vid]

    # --- statement execution ---

    def exec_block(self, stmts, frame):
        for s in stmts:
            self.exec_stmt(s, frame)

    def exec_stmt(self, s, frame):
        if isinstance(s, A.Try):
            try:
                self.exec_block(s.body, frame)
            except MiniThrow as exc:
                self.emit(TraceEvent(EXCEPTION_CATCH, exc.origin_sid, aux={
                    "value": exc.vid, "unwound": exc.unwound}))
                frame.env[s.catch_name] = (exc.value, exc.vid)
                self.exec_block(s.handler, frame)
            return
        self.step(s, frame)
        if isinstance(s, A.Let) or isinstance(s, A.Assign):
            value, reads = self.eval(s.expr, frame, s)
            vid = self.emit_exec(s, reads)
            frame.env[s.name] = (value, vid)
        elif isinstance(s, A.IndexAssign):
            base, base_vid = frame.env[s.name]
            idx, idx_reads = self.eval(s.index, frame, s)
            value, val_reads = self.eval(s.expr, frame, s)
            if not isinstance(base, ArrayRef) or not isinstance(idx, int) or isinstance(idx, bool):
                self.throw("type_error", s, idx_reads + val_reads, frame)
            entry = self.heap[base.addr]
            reads = [entry["version"]] + idx_reads + val_reads
            if idx < 0 or idx >= len(entry["items"]):
                self.throw("index_out_of_bounds", s, reads, frame)
            if isinstance(value, ArrayRef):
                self.throw("type_error", s, reads, frame)
            vid = self.emit_exec(s, reads)
            entry["items"][idx] = value
            entry["version"] = vid
        elif isinstance(s, A.If):
            cond, reads = self.eval(s.cond, frame, s)
            if not isinstance(cond, bool):
                self.throw("type_error", s, reads, frame)
            self.emit_exec(s, reads)
            self.exec_block(s.then if cond else s.orelse, frame)
        elif isinstance(s, A.While):
            while True:
                self.step(s, frame)
                cond, reads = self.eval(s.cond, frame, s)
                if not isinstance(cond, bool):
                    self.throw("type_error", s, reads, frame)
                self.emit_exec(s, reads)
                if not cond:
                    break
                self.exec_block(s.body, frame)
        elif isinstance(s, A.Return):
            if s.expr is None:
                raise _Return(0, None)
            value, reads = self.eval(s.expr, frame, s)
            vid = self.emit_exec(s, reads)
            raise _Return(value, vid)
        elif isinstance(s, A.Assert):
            if isinstance(s.expr, (A.Var, A.Call)):
                value, reads = self.eval(s.expr, frame, s)
                vid = reads[0] if reads else self.emit_exec(s, reads)
            else:
                value, reads = self.eval(s.expr, frame, s)
                vid = self.emit_exec(s, reads)
            if not isinstance(value, bool):
                self.throw("type_error", s, [vid], frame)
            self.emit(TraceEvent(ASSERT_OUTCOME, s.sid,
                                 aux={"value": vid, "outcome": value}))
            if not value:
                raise _AssertFailure(vid)
        elif isinstance(s, A.Throw):
            value, reads = self.eval(s.expr, frame, s)
            if frame.traced:
                vid = self.emit_exec(s, reads)
                produced = True
            else:
                vid = self.new_vid()
                produced = False
            raise MiniThrow(value, vid, produced, s.sid)
        elif isinstance(s, A.ExprStmt):
            value, reads = self.eval(s.expr, frame, s)
            self.emit_exec(s, reads)
        else:
            raise MalformedTrace(f"unknown statement {s!r}")

    # --- test entry point ---

    def run_test(self, test_name, traced):
        frame = _Frame(test_name, traced)
        self.frames.append(frame)
        self.cov_functions.add(test_name)
        status, reason = "pass", ""
        truncated = False
        py_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(py_limit + MAX_CALL_DEPTH * _PY_FRAMES_PER_CALL)
        try:
            try:
                self.exec_block(self.program.functions[test_name].body, frame)
            except _Return:
                pass
        except _AssertFailure:
            status, reason = "fail", "assert"
        except MiniThrow as exc:
            status, reason = "fail", "exception"
            self.emit(TraceEvent(ASSERT_OUTCOME, exc.origin_sid, aux={
                "value": exc.vid, "outcome": False, "from_exception": True}))
        except _Timeout:
            status, reason = "fail", "timeout"
            truncated = True
            # The observable wrong output of a non-terminating test is the
            # last value it produced; clamp it incorrect, mirroring the
            # uncaught-exception evidence.
            for ev in reversed(self.events):
                if ev.writes:
                    self.emit(TraceEvent(ASSERT_OUTCOME, ev.stmt, aux={
                        "value": ev.writes[-1], "outcome": False,
                        "from_timeout": True}))
                    break
        finally:
            sys.setrecursionlimit(py_limit)
        self.frames.pop()
        return status, reason, truncated


def profile(program: A.Program, step_budget=DEFAULT_STEP_BUDGET) -> CoverageProfile:
    """Run every test once with coverage-only instrumentation."""
    tests = program.test_names
    if not tests:
        raise NoTests("program defines no test_ functions")
    records = {}
    for name in tests:
        ex = _Executor(program, traced_functions=frozenset(),
                       step_budget=step_budget)
        status, reason, _ = ex.run_test(name, traced=False)
        records[name] = TestCoverage(
            test=name, status=status, reason=reason,
            functions=set(ex.cov_functions), statements=set(ex.cov_statements))
    return CoverageProfile(tests=records)


def trace(program: A.Program, test: str, traced_functions,
          step_budget=DEFAULT_STEP_BUDGET, trace_limit=None) -> Trace:
    """Run one test with full event recording for `traced_functions`."""
    if test not in program.functions:
        raise MalformedTrace(f"unknown test {test!r}")
    traced = frozenset(traced_functions) | {test}
    ex = _Executor(program, traced_functions=traced,
                   step_budget=step_budget)
    status, reason, truncated = ex.run_test(test, traced=True)
    t = Trace(test=test, status=status, reason=reason, events=ex.events,
              value_count=ex.vid_counter, truncated=truncated)
    if trace_limit is not None and t.size() > trace_limit:
        t.oversized = True
    return t


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
