"""The package's public names, its configuration surface and the fields
of its traces."""

import ast
import math
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

import semfl
import semfl.pipeline
from semfl.config import RunConfig
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


def _imports_pipeline(node):
    if isinstance(node, ast.Import):
        return any(a.name == "semfl.pipeline" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module in ("pipeline", "semfl.pipeline") or (
            node.module in (None, "semfl")
            and any(a.name == "pipeline" for a in node.names))
    return False


def test_pipeline_is_imported_only_at_module_level():
    # `RunConfig` lives in `config`, which imports no stage, so no stage
    # defers importing `pipeline` to a function or to type checking.
    nested = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        top = set(map(id, tree.body))
        nested += [f"{path.relative_to(SRC)}:{node.lineno}"
                   for node in ast.walk(tree)
                   if _imports_pipeline(node) and id(node) not in top]
    assert nested == []


def test_pipeline_run_config_is_the_config_module_one():
    # perfbench builds its config as `semfl.pipeline.RunConfig`
    assert semfl.pipeline.RunConfig is RunConfig
    assert semfl.RunConfig is RunConfig


@pytest.mark.parametrize("name,value,message", [
    ("p0_moderate", 0.0, "p0_moderate must be in (0, 1], got 0.0"),
    ("p0_low", 1.5, "p0_low must be in (0, 1], got 1.5"),
    ("statement_prior", math.nan, "statement_prior must be in (0, 1], got nan"),
    ("trace_limit", 0, "trace_limit must be positive, got 0"),
    ("model_limit", -5, "model_limit must be positive, got -5"),
    ("step_budget", 0, "step_budget must be positive, got 0"),
    ("max_iterations", 0, "max_iterations must be positive, got 0"),
    ("convergence_eps", 0.0, "convergence_eps must be positive, got 0.0"),
    ("convergence_eps", math.nan, "convergence_eps must be positive, got nan"),
    ("loop_period", -1, "loop_period must be non-negative, got -1"),
    ("max_passing_tests", -1, "max_passing_tests must be non-negative, got -1"),
])
def test_run_config_rejects_an_out_of_range_value(name, value, message):
    with pytest.raises(ValueError) as made:
        RunConfig(**{name: value})
    with pytest.raises(ValueError) as replaced:
        replace(RunConfig(), **{name: value})
    assert str(made.value) == str(replaced.value) == message


def test_run_config_cannot_change():
    cfg = RunConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.trace_limit = 10
    assert cfg == RunConfig()


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
