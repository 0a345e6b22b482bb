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


def _format_block(stmts, indent, out):
    pad = "    " * indent
    for s in stmts:
        if isinstance(s, A.Let):
            out.append(f"{pad}let {s.name} = {format_expr(s.expr)};")
        elif isinstance(s, A.Assign):
            out.append(f"{pad}{s.name} = {format_expr(s.expr)};")
        elif isinstance(s, A.IndexAssign):
            out.append(f"{pad}{s.name}[{format_expr(s.index)}] = {format_expr(s.expr)};")
        elif isinstance(s, A.If):
            out.append(f"{pad}if ({format_expr(s.cond)}) {{")
            _format_block(s.then, indent + 1, out)
            if s.orelse:
                out.append(f"{pad}}} else {{")
                _format_block(s.orelse, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(s, A.While):
            out.append(f"{pad}while ({format_expr(s.cond)}) {{")
            _format_block(s.body, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(s, A.Return):
            out.append(f"{pad}return {format_expr(s.expr)};" if s.expr is not None
                       else f"{pad}return;")
        elif isinstance(s, A.Assert):
            out.append(f"{pad}assert({format_expr(s.expr)});")
        elif isinstance(s, A.Throw):
            out.append(f"{pad}throw {format_expr(s.expr)};")
        elif isinstance(s, A.Try):
            out.append(f"{pad}try {{")
            _format_block(s.body, indent + 1, out)
            out.append(f"{pad}}} catch ({s.catch_name}) {{")
            _format_block(s.handler, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(s, A.ExprStmt):
            out.append(f"{pad}{format_expr(s.expr)};")
        else:
            raise TypeError(f"not a statement: {s!r}")


def format_program(program: A.Program) -> str:
    out = []
    for fn in program.functions.values():
        out.append(f"fn {fn.name}({', '.join(fn.params)}) {{")
        _format_block(fn.body, 1, out)
        out.append("}")
        out.append("")
    return "\n".join(out)
