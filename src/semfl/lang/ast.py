"""AST node definitions and the parsed-program container."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property


# --- expressions ---

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class ArrayLit:
    items: tuple


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Index:
    base: object
    index: object


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


# --- expression grammar ---
# Binary operators by precedence level, loosest first; every level is
# left-associative. Unary operators bind tighter than any binary one, and
# an index tighter than a unary operator.
PRECEDENCE = {
    "||": 1, "&&": 2, "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}
UNARY_OPS = ("-", "!")
UNARY_PREC = 7

# MiniImp integers are checked 64-bit: a literal or a result outside this
# range is an error.
INT_MAX = 2 ** 63 - 1
INT_MIN = -(2 ** 63)


# Where each expression keeps its sub-expressions, left to right: a tuple
# of fields, or the name of one field holding them all.
_CHILD_FIELDS = {
    Binary: ("left", "right"), Unary: ("operand",), Index: ("base", "index"),
    Call: "args", ArrayLit: "items",
}


def children(expr) -> tuple:
    """An expression's sub-expressions, left to right."""
    fields = _CHILD_FIELDS.get(type(expr), ())
    if isinstance(fields, str):
        return getattr(expr, fields)
    return tuple(getattr(expr, f) for f in fields)


def with_child(expr, i, child):
    """`expr` with its i-th sub-expression (as `children` orders them)
    replaced by `child`."""
    fields = _CHILD_FIELDS[type(expr)]
    if isinstance(fields, str):
        items = list(getattr(expr, fields))
        items[i] = child
        return replace(expr, **{fields: tuple(items)})
    return replace(expr, **{fields[i]: child})


_ROOT_OPS = {
    Call: "call", Var: "var", Index: "index", IntLit: "lit",
    BoolLit: "boollit", ArrayLit: "array",
}


def root_op(expr) -> str:
    """Top-level operator label of an expression, used for p0 classification."""
    return expr.op if isinstance(expr, (Binary, Unary)) else _ROOT_OPS[type(expr)]


# --- statements ---
# Statements that evaluate an expression carry a statement id (sid) and a
# source line.  `Try` is purely structural and has no sid of its own.
# `slots` names the fields holding the expressions a statement evaluates,
# in evaluation order; the last one produces the statement's value.

@dataclass
class Let:
    name: str
    expr: object
    line: int = 0
    sid: int = -1
    kind = "let"
    slots = ("expr",)


@dataclass
class Assign:
    name: str
    expr: object
    line: int = 0
    sid: int = -1
    kind = "assign"
    slots = ("expr",)


@dataclass
class IndexAssign:
    name: str
    index: object
    expr: object
    line: int = 0
    sid: int = -1
    kind = "index_assign"
    slots = ("index", "expr")


@dataclass
class If:
    cond: object
    then: list
    orelse: list
    line: int = 0
    sid: int = -1
    kind = "if_cond"
    slots = ("cond",)


@dataclass
class While:
    cond: object
    body: list
    line: int = 0
    sid: int = -1
    kind = "while_cond"
    slots = ("cond",)


@dataclass
class Return:
    expr: object = None
    line: int = 0
    sid: int = -1
    kind = "return"
    slots = ("expr",)


@dataclass
class Assert:
    expr: object = None
    line: int = 0
    sid: int = -1
    kind = "assert"
    slots = ("expr",)


@dataclass
class Throw:
    expr: object = None
    line: int = 0
    sid: int = -1
    kind = "throw"
    slots = ("expr",)


@dataclass
class ExprStmt:
    expr: object = None
    line: int = 0
    sid: int = -1
    kind = "expr"
    slots = ("expr",)


@dataclass
class Try:
    body: list = field(default_factory=list)
    catch_name: str = ""
    handler: list = field(default_factory=list)
    line: int = 0
    kind = "try"
    slots = ()


def statement_slots(stmt) -> list:
    """A statement's (slot, expression) pairs, in evaluation order."""
    return [(slot, getattr(stmt, slot)) for slot in stmt.slots
            if getattr(stmt, slot) is not None]


def walk_statements(stmts):
    """Yield every sid-bearing statement in pre-order (Try is transparent)."""
    for s in stmts:
        if isinstance(s, Try):
            yield from walk_statements(s.body)
            yield from walk_statements(s.handler)
            continue
        yield s
        if isinstance(s, If):
            yield from walk_statements(s.then)
            yield from walk_statements(s.orelse)
        elif isinstance(s, While):
            yield from walk_statements(s.body)


@dataclass
class StatementInfo:
    function: str
    line: int
    kind: str
    root_op: str
    depth: int  # blocks open around the statement, its function's included


@dataclass
class FunctionDef:
    name: str
    params: list
    body: list

    @cached_property
    def ipostdom(self):
        """Map each statement id to its immediate post-dominator (`cfg.EXIT`
        for none), built on first use: only the dependency graph reads it,
        for the functions a trace enters."""
        from .cfg import immediate_postdominators  # cfg imports this module
        return immediate_postdominators(self)

    def loop_bodies(self):
        """Map while-cond sid -> set of sids syntactically inside the loop."""
        out = {}
        for s in walk_statements(self.body):
            if isinstance(s, While):
                out[s.sid] = {b.sid for b in walk_statements(s.body)}
        return out


def is_test(name) -> bool:
    """Whether function `name` is test code, which runs but is never a
    fault candidate: a function named `test_...`."""
    return name.startswith("test_")


@dataclass
class Program:
    functions: dict  # name -> FunctionDef, in source order
    source_path: str
    statement_table: dict  # sid -> StatementInfo
    statements: dict  # sid -> statement node
    source_text: str = ""
    # function name -> (params, body compiled to closures), filled by
    # `tracing` on the function's first call
    compiled: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def test_names(self):
        return [n for n in self.functions if is_test(n)]

    def app_statement_ids(self):
        """Fault-candidate statements: everything outside test functions."""
        return sorted(
            sid for sid, info in self.statement_table.items()
            if not is_test(info.function)
        )
