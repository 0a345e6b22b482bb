"""semfl: probabilistic, semantics-aware fault localization for MiniImp.

The pipeline executes a program's tests, records value-level traces,
builds a dynamic dependency graph, converts it into a Bayesian network of
correctness variables, and ranks statements by their posterior probability
of being faulty via loopy belief propagation.
"""

from .ddg import DepGraph, build_ddg
from .inference import InferenceResult, run_lbp
from .lang import parse
from .model import FaultNet, build_net, classify_p0
from .pipeline import LocalizeResult, RunConfig, localize
from .ranking import (
    DSTAR,
    OCHIAI,
    Report,
    export_combine_scores,
    method_level,
    rank,
    sbfl_report,
    sbfl_scores,
)
from .tracing import CoverageProfile, Trace, profile, trace

__version__ = "0.1.0"

__all__ = [
    "CoverageProfile",
    "DepGraph",
    "DSTAR",
    "FaultNet",
    "InferenceResult",
    "LocalizeResult",
    "OCHIAI",
    "Report",
    "RunConfig",
    "Trace",
    "build_ddg",
    "build_net",
    "classify_p0",
    "export_combine_scores",
    "localize",
    "method_level",
    "parse",
    "profile",
    "rank",
    "run_lbp",
    "sbfl_report",
    "sbfl_scores",
    "trace",
]
