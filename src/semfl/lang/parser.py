"""Recursive-descent parser producing a Program with its statement table."""

from __future__ import annotations

from ..errors import DuplicateFunction, MiniImpSyntaxError, UndefinedNameAtParseScope
from . import ast as A
from .lexer import Token, tokenize

# Statements and expressions nest at most this deep. One level each: a
# block, an operator, an index, a call, an array literal and a pair of
# parentheses. The bound keeps the recursive-descent parser (at most 5
# Python frames per level) and the interpreter inside Python's recursion
# limit; the shipped corpus nests at most 6 deep.
MAX_NESTING = 40


class _Parser:
    """One pass over the tokens: builds the functions, numbers their
    statements in pre-order and checks the names they use."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]  # the current token; the parser never moves past eof
        self.depth = 0  # levels open around the current token
        self.statements = []  # by sid
        self.infos = []  # StatementInfo by sid
        # Scope checks follow source order: a name is defined after its
        # `let`, parameter or catch clause, anywhere earlier in the
        # function. Each statement expression is one slot; within a slot
        # reads are checked before calls. Syntax errors come first, so
        # scope errors wait for the end of the parse: `scope_error` is the
        # first failed read or assignment, as (slot, message), and `calls`
        # holds (slot, name, nargs, function) per call in source order,
        # checked once every function's arity is known.
        self.fn_name = ""
        self.defined = set()
        self.slot = 0
        self.scope_error = None
        self.calls = []

    def next(self) -> Token:
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.tok
        raise MiniImpSyntaxError(message, tok.line, tok.col)

    def expect(self, text) -> Token:
        if self.tok.text != text:
            self.fail(f"expected {text!r}, found {self.tok.text!r}")
        return self.next()

    def enter(self):
        """Open one nesting level; close it with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")

    def expect_name(self) -> Token:
        if self.tok.type != "name":
            self.fail(f"expected identifier, found {self.tok.text!r}")
        return self.next()

    def note_undefined(self, slot, message):
        if self.scope_error is None:
            self.scope_error = (slot, message)

    def check_scopes(self, functions):
        """Raise the first scope error in source order, if any."""
        arities = {fn.name: len(fn.params) for fn in functions}
        first_read = self.scope_error[0] if self.scope_error else self.slot + 1
        for slot, name, nargs, fn_name in self.calls:
            if slot >= first_read:
                break
            if name not in arities:
                raise UndefinedNameAtParseScope(
                    f"call to undefined function {name!r} in {fn_name!r}")
            if arities[name] != nargs:
                raise UndefinedNameAtParseScope(
                    f"function {name!r} takes {arities[name]} arguments, got {nargs}")
        if self.scope_error:
            raise UndefinedNameAtParseScope(self.scope_error[1])

    # --- top level ---

    def parse_program(self):
        functions = []
        while self.tok.type != "eof":
            functions.append(self.parse_function())
        return functions

    def parse_function(self):
        self.expect("fn")
        name = self.expect_name().text
        self.expect("(")
        params = []
        if self.tok.text != ")":
            params.append(self.expect_name().text)
            while self.tok.text == ",":
                self.next()
                params.append(self.expect_name().text)
        if len(set(params)) != len(params):
            self.fail(f"duplicate parameter in function {name!r}")
        self.expect(")")
        self.fn_name = name
        self.defined = set(params)
        body = self.parse_block()
        return A.FunctionDef(name=name, params=params, body=body)

    def parse_block(self):
        self.expect("{")
        self.enter()
        stmts = []
        while self.tok.text != "}":
            stmts.append(self.parse_statement())
        self.depth -= 1
        self.expect("}")
        return stmts

    def statement_expr(self):
        """A statement's expression, one slot: its levels count on top of
        the blocks around the statement."""
        tok = self.tok
        self.slot += 1
        expr, height = self.parse_expr()
        if self.depth + height > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", tok)
        return expr

    def check_target(self, name):
        """Check the target of an assignment, before its first slot."""
        if name not in self.defined:
            self.note_undefined(self.slot + 1, f"assignment to undeclared variable "
                                               f"{name!r} in {self.fn_name!r}")

    def index_assign_follows(self):
        """Whether `name[...]` at the current token is the target of an
        index assignment: the token after the matching `]` is `=`."""
        depth, j = 0, self.pos + 1
        while j < len(self.tokens):
            t = self.tokens[j].text
            if t == "[":
                depth += 1
            elif t == "]":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        return j + 1 < len(self.tokens) and self.tokens[j + 1].text == "="

    # --- statements ---

    def parse_statement(self):
        tok = self.tok
        if tok.text == "try":
            # structural only: no sid, its statements number in order
            self.next()
            body = self.parse_block()
            self.expect("catch")
            self.expect("(")
            name = self.expect_name().text
            self.expect(")")
            self.defined.add(name)
            handler = self.parse_block()
            return A.Try(body=body, catch_name=name, handler=handler, line=tok.line)
        # a statement's sid comes before those of the statements inside it
        sid = len(self.statements)
        self.statements.append(None)
        self.infos.append(None)
        ahead = self.tokens[self.pos + 1].text if tok.type == "name" else ""
        if tok.text == "let":
            self.next()
            name = self.expect_name().text
            self.expect("=")
            expr = self.statement_expr()
            self.expect(";")
            self.defined.add(name)
            stmt = A.Let(name=name, expr=expr, line=tok.line)
        elif tok.text == "if":
            self.next()
            self.expect("(")
            cond = self.statement_expr()
            self.expect(")")
            then = self.parse_block()
            orelse = []
            if self.tok.text == "else":
                self.next()
                orelse = self.parse_block()
            stmt = A.If(cond=cond, then=then, orelse=orelse, line=tok.line)
        elif tok.text == "while":
            self.next()
            self.expect("(")
            cond = self.statement_expr()
            self.expect(")")
            body = self.parse_block()
            stmt = A.While(cond=cond, body=body, line=tok.line)
        elif tok.text == "return":
            self.next()
            expr = None
            if self.tok.text != ";":
                expr = self.statement_expr()
            self.expect(";")
            stmt = A.Return(expr=expr, line=tok.line)
        elif tok.text == "assert":
            self.next()
            self.expect("(")
            expr = self.statement_expr()
            self.expect(")")
            self.expect(";")
            stmt = A.Assert(expr=expr, line=tok.line)
        elif tok.text == "throw":
            self.next()
            expr = self.statement_expr()
            self.expect(";")
            stmt = A.Throw(expr=expr, line=tok.line)
        elif ahead == "=":
            self.next()
            self.expect("=")
            self.check_target(tok.text)
            expr = self.statement_expr()
            self.expect(";")
            stmt = A.Assign(name=tok.text, expr=expr, line=tok.line)
        elif ahead == "[" and self.index_assign_follows():
            self.next()
            self.expect("[")
            self.check_target(tok.text)
            index = self.statement_expr()
            self.expect("]")
            self.expect("=")
            expr = self.statement_expr()
            self.expect(";")
            stmt = A.IndexAssign(name=tok.text, index=index, expr=expr, line=tok.line)
        else:
            expr = self.statement_expr()
            self.expect(";")
            stmt = A.ExprStmt(expr=expr, line=tok.line)
        stmt.sid = sid
        value = getattr(stmt, stmt.slots[-1])  # the expression giving its value
        self.statements[sid] = stmt
        self.infos[sid] = A.StatementInfo(
            function=self.fn_name, line=tok.line, kind=stmt.kind,
            root_op=A.root_op(value) if value is not None else "lit",
            depth=self.depth)
        return stmt

    # --- expressions (precedence climbing over `ast.PRECEDENCE`) ---
    # Each returns (expression, its nesting height in levels).

    def parse_expr(self, min_prec=1):
        """An expression whose binary operators bind at least as tightly as
        `min_prec`; operators of one level associate to the left."""
        tok = self.tok
        if tok.type == "op" and tok.text in A.UNARY_OPS:
            self.next()
            self.enter()
            operand, height = self.parse_expr(A.UNARY_PREC)
            self.depth -= 1
            left, height = A.Unary(op=tok.text, operand=operand), height + 1
        else:
            left, height = self.parse_primary()
            while self.tok.text == "[":
                self.next()
                index, index_height = self.nested_expr()
                self.expect("]")
                left = A.Index(base=left, index=index)
                height = max(height, index_height) + 1
        while (prec := A.PRECEDENCE.get(self.tok.text, 0)) >= min_prec:
            op = self.next().text
            right, right_height = self.parse_expr(prec + 1)
            left = A.Binary(op=op, left=left, right=right)
            height = max(height, right_height) + 1
        return left, height

    def nested_expr(self):
        """An expression one level below the current one."""
        self.enter()
        expr, height = self.parse_expr()
        self.depth -= 1
        return expr, height

    def parse_primary(self):
        tok = self.tok
        if tok.type == "int":
            value = int(tok.text)
            if value > A.INT_MAX:
                self.fail(f"integer literal {tok.text} is out of 64-bit range")
            self.next()
            return A.IntLit(value=value), 1
        if tok.text == "true":
            self.next()
            return A.BoolLit(value=True), 1
        if tok.text == "false":
            self.next()
            return A.BoolLit(value=False), 1
        if tok.text == "(":
            self.next()
            expr, height = self.nested_expr()
            self.expect(")")
            return expr, height + 1
        if tok.text == "[":
            self.next()
            items, height = self.expr_list("]")
            return A.ArrayLit(items=items), height
        if tok.type == "name":
            self.next()
            if self.tok.text == "(":
                self.next()
                # listed before the calls in its arguments
                at = len(self.calls)
                self.calls.append(None)
                args, height = self.expr_list(")")
                self.calls[at] = (self.slot, tok.text, len(args), self.fn_name)
                return A.Call(name=tok.text, args=args), height
            if tok.text not in self.defined:
                self.note_undefined(self.slot, f"undefined variable {tok.text!r} "
                                               f"in function {self.fn_name!r}")
            return A.Var(name=tok.text), 1
        self.fail(f"expected expression, found {tok.text!r}")

    def expr_list(self, close):
        """Comma-separated expressions up to `close`, one level down: the
        items and the height of the list."""
        items, height = [], 0
        if self.tok.text != close:
            while True:
                item, item_height = self.nested_expr()
                items.append(item)
                height = max(height, item_height)
                if self.tok.text != ",":
                    break
                self.next()
        self.expect(close)
        return tuple(items), height + 1


def parse_slot(text: str, depth: int):
    """Parse `text` as the expression of a statement `depth` blocks deep,
    with `parse`'s checks on syntax, literals and nesting; names are not
    checked."""
    parser = _Parser(tokenize(text))
    parser.depth = depth
    expr = parser.statement_expr()
    if parser.tok.type != "eof":
        parser.fail(f"expected end of expression, found {parser.tok.text!r}")
    return expr


def parse(source: str, source_path: str = "<string>") -> A.Program:
    parser = _Parser(tokenize(source))
    functions = parser.parse_program()
    seen = set()
    for fn in functions:
        if fn.name in seen:
            raise DuplicateFunction(f"function {fn.name!r} defined twice")
        seen.add(fn.name)
    parser.check_scopes(functions)
    return A.Program(
        functions={fn.name: fn for fn in functions},
        source_path=source_path,
        statement_table=dict(enumerate(parser.infos)),
        statements=dict(enumerate(parser.statements)),
        source_text=source,
    )
