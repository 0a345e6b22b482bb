"""Recursive-descent parser producing a Program with statement table and CFGs."""

from __future__ import annotations

from ..errors import DuplicateFunction, MiniImpSyntaxError, UndefinedNameAtParseScope
from . import ast as A
from .cfg import build_cfg
from .lexer import Token, tokenize

# Statements and expressions nest at most this deep. One level each: a
# block, an operator, an index, a call, an array literal and a pair of
# parentheses. The bound keeps the recursive-descent parser (at most 5
# Python frames per level) and the interpreter inside Python's recursion
# limit; the shipped corpus nests at most 6 deep.
MAX_NESTING = 40


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # levels open around the current token

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise MiniImpSyntaxError(message, tok.line, tok.col)

    def expect(self, text) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def enter(self):
        """Open one nesting level; close it with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")

    def expect_name(self) -> Token:
        tok = self.peek()
        if tok.type != "name":
            self.fail(f"expected identifier, found {tok.text!r}")
        return self.next()

    # --- top level ---

    def parse_program(self):
        functions = []
        while self.peek().type != "eof":
            functions.append(self.parse_function())
        return functions

    def parse_function(self):
        self.expect("fn")
        name = self.expect_name().text
        self.expect("(")
        params = []
        if self.peek().text != ")":
            params.append(self.expect_name().text)
            while self.peek().text == ",":
                self.next()
                params.append(self.expect_name().text)
        if len(set(params)) != len(params):
            self.fail(f"duplicate parameter in function {name!r}")
        self.expect(")")
        body = self.parse_block()
        return A.FunctionDef(name=name, params=params, body=body)

    def parse_block(self):
        self.expect("{")
        self.enter()
        stmts = []
        while self.peek().text != "}":
            stmts.append(self.parse_statement())
        self.depth -= 1
        self.expect("}")
        return stmts

    def statement_expr(self):
        """A statement's expression: its levels count on top of the
        blocks around the statement."""
        tok = self.peek()
        expr, height = self.parse_expr()
        if self.depth + height > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", tok)
        return expr

    # --- statements ---

    def parse_statement(self):
        tok = self.peek()
        if tok.text == "let":
            self.next()
            name = self.expect_name().text
            self.expect("=")
            expr = self.statement_expr()
            self.expect(";")
            return A.Let(name=name, expr=expr, line=tok.line)
        if tok.text == "if":
            self.next()
            self.expect("(")
            cond = self.statement_expr()
            self.expect(")")
            then = self.parse_block()
            orelse = []
            if self.peek().text == "else":
                self.next()
                orelse = self.parse_block()
            return A.If(cond=cond, then=then, orelse=orelse, line=tok.line)
        if tok.text == "while":
            self.next()
            self.expect("(")
            cond = self.statement_expr()
            self.expect(")")
            body = self.parse_block()
            return A.While(cond=cond, body=body, line=tok.line)
        if tok.text == "return":
            self.next()
            expr = None
            if self.peek().text != ";":
                expr = self.statement_expr()
            self.expect(";")
            return A.Return(expr=expr, line=tok.line)
        if tok.text == "assert":
            self.next()
            self.expect("(")
            expr = self.statement_expr()
            self.expect(")")
            self.expect(";")
            return A.Assert(expr=expr, line=tok.line)
        if tok.text == "throw":
            self.next()
            expr = self.statement_expr()
            self.expect(";")
            return A.Throw(expr=expr, line=tok.line)
        if tok.text == "try":
            self.next()
            body = self.parse_block()
            self.expect("catch")
            self.expect("(")
            name = self.expect_name().text
            self.expect(")")
            handler = self.parse_block()
            return A.Try(body=body, catch_name=name, handler=handler, line=tok.line)
        if tok.type == "name":
            if self.peek(1).text == "=":
                self.next()
                self.expect("=")
                expr = self.statement_expr()
                self.expect(";")
                return A.Assign(name=tok.text, expr=expr, line=tok.line)
            if self.peek(1).text == "[":
                # Could be `a[i] = e;` or an expression statement; scan for
                # the matching bracket and check the token after it.
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
                if j + 1 < len(self.tokens) and self.tokens[j + 1].text == "=":
                    self.next()
                    self.expect("[")
                    index = self.statement_expr()
                    self.expect("]")
                    self.expect("=")
                    expr = self.statement_expr()
                    self.expect(";")
                    return A.IndexAssign(name=tok.text, index=index, expr=expr, line=tok.line)
        expr = self.statement_expr()
        self.expect(";")
        return A.ExprStmt(expr=expr, line=tok.line)

    # --- expressions (precedence climbing over `ast.PRECEDENCE`) ---
    # Each returns (expression, its nesting height in levels).

    def parse_expr(self, min_prec=1):
        """An expression whose binary operators bind at least as tightly as
        `min_prec`; operators of one level associate to the left."""
        tok = self.peek()
        if tok.type == "op" and tok.text in A.UNARY_OPS:
            self.next()
            self.enter()
            operand, height = self.parse_expr(A.UNARY_PREC)
            self.depth -= 1
            left, height = A.Unary(op=tok.text, operand=operand), height + 1
        else:
            left, height = self.parse_postfix()
        while (prec := A.PRECEDENCE.get(self.peek().text, 0)) >= min_prec:
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

    def parse_postfix(self):
        expr, height = self.parse_primary()
        while self.peek().text == "[":
            self.next()
            index, index_height = self.nested_expr()
            self.expect("]")
            expr = A.Index(base=expr, index=index)
            height = max(height, index_height) + 1
        return expr, height

    def parse_primary(self):
        tok = self.peek()
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
            if self.peek().text == "(":
                self.next()
                args, height = self.expr_list(")")
                return A.Call(name=tok.text, args=args), height
            return A.Var(name=tok.text), 1
        self.fail(f"expected expression, found {tok.text!r}")

    def expr_list(self, close):
        """Comma-separated expressions up to `close`, one level down: the
        items and the height of the list."""
        items, height = [], 0
        if self.peek().text != close:
            while True:
                item, item_height = self.nested_expr()
                items.append(item)
                height = max(height, item_height)
                if self.peek().text != ",":
                    break
                self.next()
        self.expect(close)
        return tuple(items), height + 1


def _assign_ids(functions):
    table = {}
    stmt_map = {}
    next_id = 0
    for fn in functions:
        for stmt in A.walk_statements(fn.body):
            stmt.sid = next_id
            slots = A.statement_slots(stmt)
            table[next_id] = A.StatementInfo(
                function=fn.name,
                line=stmt.line,
                kind=stmt.kind,
                root_op=A.root_op(slots[-1][1]) if slots else "lit",
            )
            stmt_map[next_id] = stmt
            next_id += 1
    return table, stmt_map


def _expr_names(expr, reads, calls):
    if isinstance(expr, A.Var):
        reads.append(expr.name)
    elif isinstance(expr, A.Call):
        calls.append((expr.name, len(expr.args)))
    for child in A.children(expr):
        _expr_names(child, reads, calls)


def _check_scopes(functions):
    """Lexical-order definedness check for variable reads and call targets."""
    arities = {fn.name: len(fn.params) for fn in functions}

    def check_expr(expr, defined, fn_name):
        reads, calls = [], []
        _expr_names(expr, reads, calls)
        for name in reads:
            if name not in defined:
                raise UndefinedNameAtParseScope(
                    f"undefined variable {name!r} in function {fn_name!r}")
        for name, nargs in calls:
            if name not in arities:
                raise UndefinedNameAtParseScope(
                    f"call to undefined function {name!r} in {fn_name!r}")
            if arities[name] != nargs:
                raise UndefinedNameAtParseScope(
                    f"function {name!r} takes {arities[name]} arguments, got {nargs}")

    def check_block(stmts, defined, fn_name):
        for s in stmts:
            if isinstance(s, A.Try):
                check_block(s.body, defined, fn_name)
                defined.add(s.catch_name)
                check_block(s.handler, defined, fn_name)
                continue
            if isinstance(s, (A.Assign, A.IndexAssign)) and s.name not in defined:
                raise UndefinedNameAtParseScope(
                    f"assignment to undeclared variable {s.name!r} in {fn_name!r}")
            for _, expr in A.statement_slots(s):
                check_expr(expr, defined, fn_name)
            if isinstance(s, A.Let):
                defined.add(s.name)
            elif isinstance(s, A.If):
                check_block(s.then, defined, fn_name)
                check_block(s.orelse, defined, fn_name)
            elif isinstance(s, A.While):
                check_block(s.body, defined, fn_name)

    for fn in functions:
        check_block(fn.body, set(fn.params), fn.name)


def parse(source: str, source_path: str = "<string>") -> A.Program:
    tokens = tokenize(source)
    functions = _Parser(tokens).parse_program()
    seen = set()
    for fn in functions:
        if fn.name in seen:
            raise DuplicateFunction(f"function {fn.name!r} defined twice")
        seen.add(fn.name)
    table, stmt_map = _assign_ids(functions)
    _check_scopes(functions)
    for fn in functions:
        fn.cfg = build_cfg(fn)
    return A.Program(
        functions={fn.name: fn for fn in functions},
        source_path=source_path,
        statement_table=table,
        statements=stmt_map,
        source_text=source,
    )
