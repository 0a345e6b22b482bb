"""End-to-end localization pipeline: profile, trace, reduce, model, infer,
rank. Shared by the command-line interface and the benchmark harness."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from . import reduction, tracing
from .ddg import build_ddg
from .inference import InferenceResult, run_lbp
from .lang.ast import is_test
from .model import build_net
from .ranking import Report, rank


def _option(default, flag, help, **metadata):
    """A config field, the command-line flag that sets it and the flag's
    help (`cli.add_config_args` reads them)."""
    return field(default=default,
                 metadata={"flag": flag, "help": help, **metadata})


@dataclass
class RunConfig:
    """Every pipeline parameter with its paper or artifact default. Each
    stage reads the fields it needs; a command has a flag per field it reads."""

    # reducers; max_passing_tests None keeps every passing test
    max_passing_tests: int | None = _option(
        50, "--max-passing-tests",
        "passing tests kept by test reduction (paper default 50)")
    trace_limit: int = _option(
        1_200_000, "--trace-limit",
        "per-trace event budget (paper default 1.2M)")
    model_limit: int = _option(
        1_000_000, "--model-limit",
        "total modeled event budget (paper default 1M)")
    loop_period: int = _option(
        3, "--loop-period",
        "longest period of loop iterations that compression removes "
        "(paper: 1; 0 keeps every iteration)")
    # ablation switches, in the order `semfl bench --ablations` runs them
    # (`cli.ABLATIONS`)
    adaptive_folding: bool = _option(
        True, "--no-adaptive-folding", "keep failing traces whole at any length",
        ablation=True)
    virtual_call_edges: bool = _option(
        True, "--no-virtual-call-edges",
        "no edges from traced calls inside untraced ones to their caller",
        ablation=True)
    exception_control: bool = _option(
        True, "--no-exception-control",
        "caught exceptions control no later statement", ablation=True)
    # inference
    max_iterations: int = _option(
        100, "--max-iters",
        "belief propagation iteration cap (artifact decision)")
    convergence_eps: float = _option(
        1e-6, "--eps", "message convergence threshold (artifact decision)")
    # model
    p0_moderate: float = _option(
        0.5, "--p0-moderate",
        "p0 for boolean-range statements (paper default 0.5)")
    p0_low: float = _option(
        0.01, "--p0-low", "p0 for wide-range statements (paper default 0.01)")
    statement_prior: float = _option(
        0.5, "--prior", "statement prior (paper default 0.5)")
    # execution
    step_budget: int = _option(
        tracing.DEFAULT_STEP_BUDGET, "--step-budget",
        "interpreter steps per test (artifact decision)")

    def validate(self):
        for name in ("p0_moderate", "p0_low", "statement_prior"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        for name in ("trace_limit", "model_limit", "step_budget",
                     "max_iterations", "convergence_eps"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        for name in ("loop_period", "max_passing_tests"):
            v = getattr(self, name)
            if v is None and name == "max_passing_tests":
                continue  # no limit
            if not v >= 0:
                raise ValueError(f"{name} must be non-negative, got {v}")


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


def traced_function_set(profile):
    """Partial tracing: record details only inside application functions
    entered by at least one failing test."""
    entered = set()
    for t in profile.failing:
        entered |= t.functions
    return frozenset(f for f in entered if not is_test(f))


def localize(program, cfg: RunConfig | None = None, given=None,
             given_trace=None) -> LocalizeResult:
    """Rank `program`'s statements by their probability of being faulty.
    `given` holds `CoverageRecord`s of tests that the profile takes as run
    (`tracing.profile`), each one that a run at `cfg.step_budget` makes.
    `given_trace(test, traced)`, when passed, returns the trace of a
    passing test of `given` that `tracing.trace` records with the traced
    set `traced` at `cfg`'s step budget and loop period; it is called
    instead of tracing that test again, and no stage changes the trace."""
    cfg = cfg or RunConfig()
    cfg.validate()
    log = []
    timings = {}

    # Loops are compressed while the tests run, so no raw trace is held.
    t0 = time.perf_counter()
    recorded = {}  # failing test -> its trace from the profile run
    prof = tracing.profile(program, step_budget=cfg.step_budget,
                           failing_traces=recorded,
                           period=cfg.loop_period, given=given)
    timings["profile"] = time.perf_counter() - t0
    stopped = [t.stopped_at for t in prof.failing if t.stopped_at]
    log.append(f"repeated loop state: {len(stopped)} timeout tests stopped "
               f"after {sum(stopped)} steps in all")

    selected = reduction.select_tests(prof, cfg)
    log.append(f"selected {len(selected)} of {len(prof.tests)} tests")
    traced = traced_function_set(prof)
    log.append(f"tracing {len(traced)} functions: {sorted(traced)}")

    t0 = time.perf_counter()
    # A failing test's trace from the profile run, which traced every
    # non-test function, is the one `traced` gives: each call is traced or
    # not when it is made, and `traced` holds every function the test
    # entered.
    traces, dropped, raw = [], [], 0
    for test in selected:
        if test in recorded:
            t = recorded[test]
        elif given_trace is not None and test in given:
            t = given_trace(test, traced)
        else:
            t = tracing.trace(program, test, traced,
                              step_budget=cfg.step_budget,
                              period=cfg.loop_period)
        raw += t.raw_events
        # Only a failing trace over the event limit is worth folding; an
        # oversized passing one is freed before the next test runs.
        if not t.failing and t.raw_events > cfg.trace_limit:
            dropped.append(test)
            del t
        else:
            traces.append(t)
    events = [raw]
    if dropped:
        log.append(f"dropped oversized passing traces: {dropped}")
    timings["trace"] = time.perf_counter() - t0
    for t in traces:
        reduction.log_compression(t, log)
    events.append(sum(t.size() for t in traces))

    t0 = time.perf_counter()
    if cfg.adaptive_folding:
        traces = [reduction.adaptive_fold(t, cfg, log) for t in traces]
    timings["fold"] = time.perf_counter() - t0
    events.append(sum(t.size() for t in traces))

    t0 = time.perf_counter()
    budgeted = reduction.budget_traces(traces, cfg, log)
    timings["budget"] = time.perf_counter() - t0
    events.append(sum(t.size() for t in budgeted))
    log.append("events: raw {}, after compress {}, after fold {}, "
               "modelled {}".format(*events))

    t0 = time.perf_counter()
    ddg = build_ddg(program, budgeted,
                    virtual_call_edges=cfg.virtual_call_edges,
                    exception_control=cfg.exception_control)
    timings["ddg"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    net = build_net(ddg, program, cfg)
    timings["net"] = time.perf_counter() - t0
    log.append(f"graph: {len(ddg.statement_nodes)} statements, "
               f"{len(ddg.value_nodes)} values, {ddg.edge_count()} edges, "
               f"{len(net.p0)} factors, max factor degree "
               f"{net.max_factor_degree()}")

    t0 = time.perf_counter()
    inf = run_lbp(net, cfg)
    timings["lbp"] = time.perf_counter() - t0
    log.extend(inf.log)
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
    t0 = time.perf_counter()
    report = rank(inf.marginals, net, program, metadata)
    timings["rank"] = time.perf_counter() - t0
    return LocalizeResult(prof, selected, budgeted, ddg, net, inf, report,
                          timings, log)
