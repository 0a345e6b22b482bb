"""Frontend tests: tokens, parsing, statement tables, pretty-print
round-trips, control-flow graphs, and post-dominators."""

import pytest
from hypothesis import example, given, strategies as st

from semfl.errors import (
    DuplicateFunction,
    MiniImpSyntaxError,
    UndefinedNameAtParseScope,
)
from semfl.lang import EXIT, format_program, parse
from semfl.lang import ast as A
from semfl.lang.lexer import tokenize
from semfl.lang.printer import format_expr

from helpers import statement_ids
from lexer_reference import tokenize as reference_tokenize

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


def test_cond_example_has_three_candidates():
    prog = parse(COND_TEST)
    assert list(prog.functions) == ["foo", "test_pass", "test_fail"]
    sids = prog.app_statement_ids()
    assert len(sids) == 3
    kinds = [prog.statement_table[s].kind for s in sids]
    assert kinds == ["if_cond", "assign", "return"]


def test_empty_source():
    prog = parse("")
    assert prog.functions == {}
    assert prog.statement_table == {}


def test_missing_expression_is_syntax_error():
    with pytest.raises(MiniImpSyntaxError) as err:
        parse("fn f() { let x = ; }")
    assert err.value.line == 1


def test_syntax_error_carries_position():
    with pytest.raises(MiniImpSyntaxError) as err:
        parse("fn f() {\n  let x = 1 +;\n}")
    assert err.value.line == 2


@pytest.mark.parametrize("source, line, col, message", [
    ("fn f() {\n  let y = 99999999999999999999999;\n}", 2, 11,
     "out of 64-bit range"),
    ("fn f() { return 9223372036854775808; }", 1, 17, "out of 64-bit range"),
    # only ASCII digits, letters and `_` make numbers and names
    ("fn f() {\n  return 2 + \u00b2;\n}", 2, 14, "unexpected character"),
    ("fn f(x) { return x\u00b2; }", 1, 19, "unexpected character"),
    ("fn f() { let \u00e9 = 1; }", 1, 14, "unexpected character"),
])
def test_rejected_token_carries_position(source, line, col, message):
    with pytest.raises(MiniImpSyntaxError, match=message) as err:
        parse(source)
    assert (err.value.line, err.value.col) == (line, col)


def _lexed(lex, text):
    """The tokens `lex` makes of `text`, or the error that rejects it."""
    try:
        return [(t.type, t.text, t.line, t.col) for t in lex(text)]
    except MiniImpSyntaxError as err:
        return (str(err), err.line, err.col)


# MiniImp's characters and words, the line endings and blanks it accepts,
# and characters it rejects: a lone `&` or `|`, non-ASCII letters and
# digits, and other blanks.
LEXER_PIECES = st.one_of(
    st.sampled_from(list("azAZ_09+-*/%<>!=(){}[],;&|#. \t\r\n")),
    st.sampled_from(["fn", "let", "while", "true", "x1", "_y", "007",
                     "//", "// note", "\r\n", "&&", "||", "<=", "==",
                     "\u00e9", "\u00b2", "\u0663", "\u00a0", "\x0b"]),
    st.characters())


@given(st.lists(LEXER_PIECES, max_size=40).map("".join))
@example("fn f() { return 1; } // ends the file")
@example("let x = a & b;")
@example("a |\r\n| b")
@example("x = 1; \t// note \r")
def test_lexer_matches_reference(text):
    assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)


# Syntax errors come first, then a duplicate function, then scope errors
# in source order: within one expression, its reads before its calls.
@pytest.mark.parametrize("source, error, message", [
    ("fn f() { return x; }\nfn g() { let y = ; }", MiniImpSyntaxError,
     "2:18: expected expression, found ';'"),
    ("fn f() { return x; }\nfn f() { return 1; }", DuplicateFunction,
     "function 'f' defined twice"),
    ("fn g() { return f(x); }", UndefinedNameAtParseScope,
     "undefined variable 'x' in function 'g'"),
    ("fn f(a) { return a; }\nfn g() { return f(1, 2); }\n"
     "fn h() { return z; }", UndefinedNameAtParseScope,
     "function 'f' takes 1 arguments, got 2"),
    # an index assignment's index is checked before its value
    ("fn f(a) { a[g(1)] = x; return a; }", UndefinedNameAtParseScope,
     "call to undefined function 'g' in 'f'"),
    # an assignment's target before its value, an outer call before an
    # inner one
    ("fn f() { y = g(x); }", UndefinedNameAtParseScope,
     "assignment to undeclared variable 'y' in 'f'"),
    ("fn f() { return g(h(1)); }\nfn h() { return 0; }",
     UndefinedNameAtParseScope, "call to undefined function 'g' in 'f'"),
])
def test_parse_errors_come_in_order(source, error, message):
    with pytest.raises(error) as err:
        parse(source)
    assert str(err.value) == message


def test_largest_literal_parses():
    ret = parse("fn f() { return 9223372036854775807; }").functions["f"].body[0]
    assert ret.expr == A.IntLit(2 ** 63 - 1)


@pytest.mark.parametrize("source", [
    # parentheses, past the recursive-descent parser's own stack
    "fn f() { return " + "(" * 200 + "1" + ")" * 200 + "; }",
    # a long operator chain, parsed by a loop into a deep tree
    "fn f() { return " + " + ".join(["1"] * 100) + "; }",
    "fn f(x) { " + "if (x) { " * 50 + "}" * 50 + " }",
    "fn f() { return " + "-" * 100 + "1; }",
])
def test_nesting_past_limit_is_syntax_error(source):
    with pytest.raises(MiniImpSyntaxError, match="nesting deeper than 40"):
        parse(source)


def test_duplicate_function_rejected():
    with pytest.raises(DuplicateFunction):
        parse("fn f() { return 1; }\nfn f() { return 2; }")


def test_undefined_variable_rejected():
    with pytest.raises(UndefinedNameAtParseScope):
        parse("fn f() { return x; }")


def test_assignment_requires_declaration():
    with pytest.raises(UndefinedNameAtParseScope):
        parse("fn f() { x = 1; return x; }")


def test_unknown_callee_rejected():
    with pytest.raises(UndefinedNameAtParseScope):
        parse("fn f() { return g(1); }")


def test_catch_binds_name():
    prog = parse("""
fn f() {
    try {
        throw 1;
    } catch (e) {
        return e;
    }
    return 0;
}
""")
    assert "f" in prog.functions


def test_statement_ids_dense_and_stable():
    src = "fn f(a) { let x = a + 1; if (x > 0) { x = 0; } return x; }"
    p1 = parse(src)
    p2 = parse(src)
    sids = sorted(p1.statement_table)
    assert sids == list(range(len(sids)))
    assert {s: (i.function, i.line, i.kind, i.root_op)
            for s, i in p1.statement_table.items()} == \
           {s: (i.function, i.line, i.kind, i.root_op)
            for s, i in p2.statement_table.items()}


def test_root_operators():
    prog = parse("""
fn f(a, b) {
    let x = a % 3;
    let y = a + b;
    let z = a < b;
    let w = f(a, b);
    return x;
}
""")
    ops = [prog.statement_table[s].root_op
           for s in statement_ids(prog.functions["f"])]
    assert ops == ["%", "+", "<", "call", "var"]


def test_roundtrip_statement_table():
    prog = parse(COND_TEST)
    printed = format_program(prog)
    reparsed = parse(printed)
    table = {s: (i.function, i.kind, i.root_op)
             for s, i in prog.statement_table.items()}
    rt = {s: (i.function, i.kind, i.root_op)
          for s, i in reparsed.statement_table.items()}
    assert table == rt
    assert format_program(reparsed) == printed


def _expressions(prog):
    return [A.statement_slots(s) for fn in prog.functions.values()
            for s in A.walk_statements(fn.body)]


def test_printer_preserves_precedence():
    prog = parse("""
fn f(a, b) {
    let x = (a + b) * a - b / (a - 1);
    let y = a - (b - a) - b;
    // a unary index base keeps its parentheses: `-a[0]` is `-(a[0])`
    let z = (-a)[0] + -a[0];
    return !(a < b) || -(a * b) == --a;
}
""")
    assert _expressions(parse(format_program(prog))) == _expressions(prog)


# --- control-flow graphs and post-dominators ---

def _fn(src, name="f"):
    return parse(src).functions[name]


def test_cfg_is_built_on_first_use():
    prog = parse(COND_TEST)
    assert [name for name, fn in prog.functions.items()
            if "ipostdom" in vars(fn)] == []
    fn = prog.functions["foo"]
    cond, assign, ret = statement_ids(fn)
    assert fn.ipostdom == {cond: ret, assign: ret, ret: EXIT}
    assert vars(fn)["ipostdom"] is fn.ipostdom


def test_straight_line_ipostdom():
    fn = _fn("fn f(a) { let x = a; let y = x; return y; }")
    s = statement_ids(fn)
    assert fn.ipostdom[s[0]] == s[1]
    assert fn.ipostdom[s[1]] == s[2]
    assert fn.ipostdom[s[2]] == EXIT


def test_branch_with_early_return_controls_rest():
    # The branch controls everything after it because one arm exits.
    fn = _fn("""
fn f(c, a, b) {
    if (c > 0) {
        return a;
    }
    let x = b + 1;
    return x;
}
""")
    cond, ret_a, let_x, ret_x = statement_ids(fn)
    assert fn.ipostdom[cond] == EXIT


def test_while_controls_body_only():
    fn = _fn("""
fn f(n) {
    let i = 0;
    while (i < n) {
        i = i + 1;
    }
    return i;
}
""")
    let_i, cond, body, ret = statement_ids(fn)
    assert fn.ipostdom[cond] == ret


def test_if_region_excludes_join():
    fn = _fn("""
fn f(c) {
    let x = 0;
    if (c > 0) {
        x = 1;
    } else {
        x = 2;
    }
    return x;
}
""")
    let_x, cond, a1, a2, ret = statement_ids(fn)
    assert fn.ipostdom[cond] == ret


def test_postdominators_form_tree():
    fn = _fn("""
fn f(n) {
    let i = 0;
    while (i < n) {
        if (i % 2 == 0) {
            i = i + 2;
        } else {
            i = i + 1;
        }
    }
    return i;
}
""")
    for sid in statement_ids(fn):
        seen = set()
        node = sid
        while node != EXIT:
            assert node not in seen
            seen.add(node)
            node = fn.ipostdom[node]


names = st.sampled_from(["a", "b", "c"])
# callees by arity, defined in the round-trip program
CALLEES = ("k", "g", "h")


@st.composite
def expressions(draw, depth=0):
    # literals stay non-negative: the parser reads `-1` as a unary minus
    if depth > 3 or draw(st.booleans()):
        return draw(st.one_of(
            st.integers(0, 99).map(A.IntLit),
            st.booleans().map(A.BoolLit),
            names.map(A.Var)))
    sub = expressions(depth + 1)
    kind = draw(st.sampled_from(["binary", "unary", "index", "call", "array"]))
    if kind == "binary":
        return A.Binary(draw(st.sampled_from(sorted(A.PRECEDENCE))),
                        draw(sub), draw(sub))
    if kind == "unary":
        return A.Unary(draw(st.sampled_from(A.UNARY_OPS)), draw(sub))
    if kind == "index":
        return A.Index(draw(sub), draw(sub))
    items = tuple(draw(st.lists(sub, max_size=len(CALLEES) - 1)))
    if kind == "call":
        return A.Call(CALLEES[len(items)], items)
    return A.ArrayLit(items)


@given(expressions())
@example(A.Index(A.Unary("-", A.Var("a")), A.IntLit(0)))
def test_expression_print_parse_roundtrip(expr):
    # printing then parsing gives back the same tree: every precedence,
    # associativity and parenthesis decision of the printer is the parser's
    src = ("fn k() { return 0; }\nfn g(x) { return x; }\n"
           "fn h(x, y) { return x; }\n"
           "fn f(a, b, c) { return %s; }" % format_expr(expr))
    assert parse(src).functions["f"].body[0].expr == expr
