"""End-to-end localization pipeline: profile, trace, reduce, model, infer,
rank, as one `config.RunConfig` sets them. Shared by the command-line
interface and the benchmark harness."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from . import reduction, tracing
from .config import RunConfig
from .ddg import build_ddg
from .inference import InferenceResult, run_lbp
from .lang.ast import is_test
from .model import build_net
from .ranking import Report, rank


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


def localize(program, cfg: RunConfig | None = None,
             given=None) -> LocalizeResult:
    """Rank `program`'s statements by their probability of being faulty.
    `given`, when passed, holds tests taken as run (`bench.Given`): the
    profile takes its `records` as run (`tracing.profile`), and the trace
    stage takes a selected test's trace from `given.trace(test, traced)`
    when the test is one of them. No stage changes a given trace."""
    cfg = cfg or RunConfig()
    log = []
    timings = {}

    # Loops are compressed while the tests run, so no raw trace is held.
    t0 = time.perf_counter()
    recorded = {}  # failing test -> its trace from the profile run
    prof = tracing.profile(program, step_budget=cfg.step_budget,
                           failing_traces=recorded,
                           period=cfg.loop_period,
                           given=given and given.records)
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
        elif given and test in given.records:
            t = given.trace(test, traced)
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
