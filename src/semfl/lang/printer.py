"""Pretty-printer emitting canonical MiniImp source, one statement per line."""

from __future__ import annotations

from . import ast as A

def format_expr(expr, parent_prec=0) -> str:
    """Source text of an expression, parenthesised only where it binds
    more loosely than `parent_prec`, the level its context requires."""
    if isinstance(expr, A.IntLit):
        return str(expr.value)
    if isinstance(expr, A.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, A.Var):
        return expr.name
    if isinstance(expr, A.ArrayLit):
        return "[" + ", ".join(format_expr(e) for e in expr.items) + "]"
    if isinstance(expr, A.Index):
        return f"{format_expr(expr.base, A.UNARY_PREC + 1)}[{format_expr(expr.index)}]"
    if isinstance(expr, A.Call):
        return f"{expr.name}(" + ", ".join(format_expr(a) for a in expr.args) + ")"
    if isinstance(expr, A.Unary):
        prec = A.UNARY_PREC
        text = f"{expr.op}{format_expr(expr.operand, prec)}"
    elif isinstance(expr, A.Binary):
        prec = A.PRECEDENCE[expr.op]
        # Left-associative: right subtree needs parens at equal precedence.
        text = (f"{format_expr(expr.left, prec)} {expr.op} "
                f"{format_expr(expr.right, prec + 1)}")
    else:
        raise TypeError(f"not an expression: {expr!r}")
    return f"({text})" if prec < parent_prec else text


def format_head(s, indent) -> str:
    """The first line statement `s` prints as at `indent` levels, which
    holds every expression of it: all of a simple statement, a compound
    one's opening line. A rewrite of any of its expressions shows there
    alone."""
    pad = "    " * indent
    if isinstance(s, A.Let):
        return f"{pad}let {s.name} = {format_expr(s.expr)};"
    if isinstance(s, A.Assign):
        return f"{pad}{s.name} = {format_expr(s.expr)};"
    if isinstance(s, A.IndexAssign):
        return f"{pad}{s.name}[{format_expr(s.index)}] = {format_expr(s.expr)};"
    if isinstance(s, A.If):
        return f"{pad}if ({format_expr(s.cond)}) {{"
    if isinstance(s, A.While):
        return f"{pad}while ({format_expr(s.cond)}) {{"
    if isinstance(s, A.Return):
        return (f"{pad}return {format_expr(s.expr)};" if s.expr is not None
                else f"{pad}return;")
    if isinstance(s, A.Assert):
        return f"{pad}assert({format_expr(s.expr)});"
    if isinstance(s, A.Throw):
        return f"{pad}throw {format_expr(s.expr)};"
    if isinstance(s, A.ExprStmt):
        return f"{pad}{format_expr(s.expr)};"
    raise TypeError(f"not a statement: {s!r}")


def _format_block(stmts, indent, out, heads):
    pad = "    " * indent
    for s in stmts:
        if isinstance(s, A.Try):
            out.append(f"{pad}try {{")
            _format_block(s.body, indent + 1, out, heads)
            out.append(f"{pad}}} catch ({s.catch_name}) {{")
            _format_block(s.handler, indent + 1, out, heads)
            out.append(f"{pad}}}")
            continue
        heads[s.sid] = (len(out), indent)
        out.append(format_head(s, indent))
        if isinstance(s, A.If):
            _format_block(s.then, indent + 1, out, heads)
            if s.orelse:
                out.append(f"{pad}}} else {{")
                _format_block(s.orelse, indent + 1, out, heads)
            out.append(f"{pad}}}")
        elif isinstance(s, A.While):
            _format_block(s.body, indent + 1, out, heads)
            out.append(f"{pad}}}")


def format_lines(program) -> tuple:
    """The lines `format_program` joins, and where each statement prints:
    statement id -> (index of its first line, indent level)."""
    out, heads = [], {}
    for fn in program.functions.values():
        out.append(f"fn {fn.name}({', '.join(fn.params)}) {{")
        _format_block(fn.body, 1, out, heads)
        out.append("}")
        out.append("")
    return out, heads


def format_program(program: A.Program) -> str:
    return "\n".join(format_lines(program)[0])
