from .ast import FunctionDef, Program, StatementInfo
from .cfg import EXIT
from .parser import parse
from .printer import format_program

__all__ = [
    "EXIT",
    "FunctionDef",
    "Program",
    "StatementInfo",
    "format_program",
    "parse",
]
