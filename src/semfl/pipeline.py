"""End-to-end localization pipeline: profile, trace, reduce, model, infer,
rank. Shared by the command-line interface and the benchmark harness."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from . import reduction, tracing
from .ddg import build_ddg
from .inference import InferenceConfig, InferenceResult, exact_marginals, run_lbp
from .model import ModelParams, build_net
from .ranking import Report, rank


@dataclass
class RunConfig:
    # reducers
    max_passing_tests: int = 50
    trace_limit: int = 1_200_000
    model_limit: int = 1_000_000
    loop_compression: bool = True
    adaptive_folding: bool = True
    test_reduction: bool = True
    # inference
    mode: str = "optimized"  # "optimized" | "naive"
    exact: bool = False
    exact_cap: int = 20
    max_iterations: int = 100
    convergence_eps: float = 1e-6
    naive_degree_cap: int = 20
    # model
    p0_moderate: float = 0.5
    p0_low: float = 0.01
    statement_prior: float = 0.5
    # graph construction toggles
    virtual_call_edges: bool = True
    exception_control: bool = True
    # execution
    step_budget: int = 1_000_000
    jobs: int = 1
    seed: int = 0

    def validate(self):
        for name in ("p0_moderate", "p0_low", "statement_prior"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")

    def reduction_config(self) -> reduction.ReductionConfig:
        return reduction.ReductionConfig(
            max_passing_tests=self.max_passing_tests,
            trace_limit=self.trace_limit,
            model_limit=self.model_limit,
            loop_compression=self.loop_compression,
            adaptive_folding=self.adaptive_folding,
            test_reduction=self.test_reduction)

    def inference_config(self) -> InferenceConfig:
        return InferenceConfig(
            mode=self.mode, max_iterations=self.max_iterations,
            convergence_eps=self.convergence_eps,
            naive_degree_cap=self.naive_degree_cap)

    def model_params(self) -> ModelParams:
        return ModelParams(statement_prior=self.statement_prior,
                           p0_moderate=self.p0_moderate, p0_low=self.p0_low)


@dataclass
class LocalizeResult:
    profile: tracing.CoverageProfile
    selected_tests: list
    traces: list
    ddg: object
    net: object
    inference: InferenceResult
    report: Report
    timings: dict  # stage name -> seconds; never written into result files
    log: list = field(default_factory=list)


def traced_function_set(program, profile):
    """Partial tracing: record details only inside application functions
    covered by at least one failing test."""
    covered = set()
    for t in profile.failing:
        covered |= t.functions
    return frozenset(f for f in covered if not f.startswith("test_"))


def localize(program, cfg: RunConfig | None = None) -> LocalizeResult:
    cfg = cfg or RunConfig()
    cfg.validate()
    log = []
    timings = {}

    t0 = time.perf_counter()
    prof = tracing.profile(program, step_budget=cfg.step_budget)
    timings["profile"] = time.perf_counter() - t0

    rcfg = cfg.reduction_config()
    selected = reduction.select_tests(prof, rcfg)
    log.append(f"selected {len(selected)} of {len(prof.tests)} tests")
    traced = traced_function_set(program, prof)
    log.append(f"tracing {len(traced)} functions: {sorted(traced)}")

    t0 = time.perf_counter()

    def run_one(test):
        return tracing.trace(program, test, traced,
                             step_budget=cfg.step_budget,
                             trace_limit=cfg.trace_limit)

    if cfg.jobs > 1 and len(selected) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            traces = list(pool.map(run_one, selected))
    else:
        traces = [run_one(t) for t in selected]

    dropped = [t.test for t in traces if t.oversized and not t.failing]
    if dropped:
        # Oversized traces are only worth folding when the test failed.
        traces = [t for t in traces if t.failing or not t.oversized]
        log.append(f"dropped oversized passing traces: {dropped}")

    if cfg.loop_compression:
        traces = [reduction.compress_loops(t, program, log) for t in traces]
    if cfg.adaptive_folding:
        traces = [reduction.adaptive_fold(t, rcfg, log) for t in traces]
    budgeted = reduction.budget_traces(traces, rcfg, log)
    timings["trace"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ddg = build_ddg(program, budgeted,
                    virtual_call_edges=cfg.virtual_call_edges,
                    exception_control=cfg.exception_control)
    timings["ddg"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    net = build_net(ddg, program, cfg.model_params())
    timings["net"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if cfg.exact:
        marg = exact_marginals(net, cap=cfg.exact_cap)
        inf = InferenceResult(marginals=marg, converged=True, iterations=0,
                              log=["exact enumeration"])
    else:
        inf = run_lbp(net, cfg.inference_config())
    timings["lbp"] = time.perf_counter() - t0
    log.extend(inf.log)
    if not cfg.exact:
        log.append(f"belief propagation: {inf.fallbacks} zero-sum "
                   "normalisations")
        log.append("belief propagation residuals: "
                   + " ".join(f"{r:.3e}" for r in inf.residuals))

    metadata = {
        "config": asdict(cfg),
        "program": tracing.program_hash(program),
        "tests": {"total": len(prof.tests), "failing": prof.num_failing,
                  "selected": len(selected), "modeled": len(budgeted)},
        "trace_events": sum(t.size() for t in budgeted),
        "graph": {"statements": len(ddg.statement_nodes),
                  "values": len(ddg.value_nodes),
                  "edges": ddg.edge_count()},
        "inference": {"converged": inf.converged,
                      "iterations": inf.iterations},
        "warnings": [t.warning for t in budgeted if t.warning],
    }
    report = rank(inf.marginals, net, program, metadata)
    return LocalizeResult(prof, selected, budgeted, ddg, net, inf, report,
                          timings, log)
