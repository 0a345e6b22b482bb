from .ast import FunctionDef, Program, StatementInfo
from .cfg import EXIT, ControlFlowGraph, build_cfg
from .parser import parse
from .printer import format_program

__all__ = [
    "EXIT",
    "ControlFlowGraph",
    "FunctionDef",
    "Program",
    "StatementInfo",
    "build_cfg",
    "format_program",
    "parse",
]
