"""The package's public names, its configuration surface and the fields
of its traces."""

import ast
from dataclasses import fields
from pathlib import Path

import semfl
from semfl.pipeline import RunConfig
from semfl.tracing import Trace

SRC = Path(semfl.__file__).parent


def test_public_names_resolve():
    assert [name for name in semfl.__all__ if not hasattr(semfl, name)] == []


class _AttributeReads(ast.NodeVisitor):
    """Names read as attributes (`x.name`), outside the class RunConfig."""

    def __init__(self):
        self.names = set()

    def visit_ClassDef(self, node):
        if node.name != "RunConfig":
            self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.attr)
        self.generic_visit(node)


def test_every_run_config_field_is_read():
    # A field that no stage reads is a knob that does nothing; its flag
    # would still be offered on the command line.
    reads = _AttributeReads()
    for path in sorted(SRC.rglob("*.py")):
        reads.visit(ast.parse(path.read_text(), str(path)))
    assert [f.name for f in fields(RunConfig)
            if f.name not in reads.names] == []


def test_test_code_is_defined_once():
    # `lang.ast.is_test` alone tells test code by its "test_" prefix.
    uses = []
    for path in sorted(SRC.rglob("*.py")):
        if path != SRC / "lang" / "ast.py":
            tree = ast.parse(path.read_text(), str(path))
            uses += [f"{path.relative_to(SRC)}:{node.lineno}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and node.value == "test_"]
    assert uses == []


def _tree(name):
    path = SRC / name
    return ast.parse(path.read_text(), str(path))


def _strings(nodes):
    return {n.value for n in nodes
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _aux_keys_written(tree):
    """The keys of the aux mappings given to `TraceEvent(...)`: a dict
    literal passed as aux, or one built in a name that is passed, with
    the keys its function then stores in it."""
    keys = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = set()
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "TraceEvent"):
                aux = [k.value for k in node.keywords if k.arg == "aux"]
                for arg in node.args[4:] + aux:
                    if isinstance(arg, ast.Dict):
                        keys |= _strings(arg.keys)
                    elif isinstance(arg, ast.Name):
                        names.add(arg.id)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                if any(getattr(t, "id", None) in names for t in node.targets):
                    keys |= _strings(node.value.keys)
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, ast.Store)
                  and getattr(node.value, "id", None) in names):
                keys |= _strings([node.slice])
    return keys


def _keys_read(tree):
    """The string keys a module reads a mapping by: `m["k"]` and
    `m.get("k")`."""
    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            keys.append(node.slice)
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "attr", None) == "get"):
            keys.append(node.args[0])
    return _strings(keys)


def test_every_aux_key_the_interpreter_writes_is_read():
    # Traces are the model's whole input: an aux key that neither the
    # reducers nor the graph builder read is carried by every call event
    # for nothing.
    written = _aux_keys_written(_tree("tracing.py"))
    assert {"callee", "ret", "thrown", "array_versions"} <= written
    read = _keys_read(_tree("reduction.py")) | _keys_read(_tree("ddg.py"))
    assert sorted(written - read) == []


def test_every_trace_field_is_read_outside_the_interpreter():
    reads = _AttributeReads()
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "tracing.py":
            reads.visit(ast.parse(path.read_text(), str(path)))
    assert [f.name for f in fields(Trace) if f.name not in reads.names] == []
