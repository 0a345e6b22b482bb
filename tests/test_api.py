"""The package's public names and its configuration surface."""

import ast
from dataclasses import fields
from pathlib import Path

import semfl
from semfl.pipeline import RunConfig


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
    for path in sorted(Path(semfl.__file__).parent.rglob("*.py")):
        reads.visit(ast.parse(path.read_text(), str(path)))
    assert [f.name for f in fields(RunConfig)
            if f.name not in reads.names] == []
