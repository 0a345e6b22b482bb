#!/usr/bin/env python3
"""semfl benchmark: seeded-fault localization passes over the corpus.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 10 --trace 0

Set-up draws the workload's mutants through `bench.seed_faults` (which
profiles every candidate mutant) and checks them against the case list in
perfbench/workloads.json. A pass then runs every case through
`bench.run_case` (semfl's `pipeline.localize` plus the Ochiai and DStar
baselines) as a closed loop with one client: each case starts when the
previous one returns, in an order drawn from --seed. Every report is
checked and digested.

--trace 0 times set-up three times, runs one pass, spends --seconds
running the short cases again (half between the cases of the pass, half
after it), and prints the end-to-end metrics from each case's median
run. --trace 1 runs every case once untraced and once traced and prints
the per-layer metrics; the two runs of each case must produce identical
report digests. The last stdout line is the result as JSON; per-case
records and spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import namedtuple
from pathlib import Path

from tracer import COUNT_SPAN, Tracer, rebind, restore

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

END_TO_END_UNITS = {
    "pass_s": "s", "case_p50_s": "s", "case_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "top1_hits": "count", "top5_hits": "count",
    "ochiai_top5_hits": "count", "passed_share": "share",
}
PER_LAYER_UNITS = {
    "tracing.profile_s": "s", "tracing.trace_s": "s",
    "tracing.events_raw": "count",
    "reduction.compress_s": "s", "reduction.events_after_compress": "count",
    "reduction.fold_s": "s", "reduction.folded_traces": "count",
    "reduction.budget_s": "s", "reduction.events_modelled": "count",
    "ddg.build_s": "s", "ddg.value_nodes": "count", "ddg.edges": "count",
    "model.build_s": "s", "model.factors": "count",
    "model.max_factor_degree": "count",
    "inference.lbp_s": "s", "inference.iterations": "count",
    "inference.messages": "count", "inference.ns_per_message": "ns",
    "inference.unconverged": "count",
    "ranking.rank_s": "s", "ranking.sbfl_s": "s", "lang.parse_s": "s",
    "pipeline.self_s": "s", "bench.case_self_s": "s",
    "bench.traced_pass_s": "s", "bench.trace_overhead_s": "s",
    "bench.unaccounted_s": "s",
}
# per-layer self-time metric -> span name
SELF_TIME_SPANS = {
    "tracing.profile_s": "tracing.profile", "tracing.trace_s": "tracing.trace",
    "reduction.compress_s": "reduction.compress",
    "reduction.fold_s": "reduction.fold",
    "reduction.budget_s": "reduction.budget", "ddg.build_s": "ddg.build",
    "model.build_s": "model.build", "inference.lbp_s": "inference.lbp",
    "ranking.rank_s": "ranking.rank", "ranking.sbfl_s": "ranking.sbfl",
    "lang.parse_s": "lang.parse", "pipeline.self_s": "pipeline.localize",
    "bench.case_self_s": "bench.case",
}

Outcome = namedtuple("Outcome", "case latency digest problems hits")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_semfl():
    """Import semfl from this checkout's source tree and nowhere else."""
    src = ROOT / "src"
    if not (src / "semfl" / "__init__.py").is_file():
        fail(f"no semfl sources under {src}")
    sys.path.insert(0, str(src))
    import semfl.bench
    import semfl.pipeline
    if Path(semfl.__file__).resolve().parent != (src / "semfl").resolve():
        fail(f"semfl was imported from {semfl.__file__}, not {src}")
    return semfl.bench, semfl.pipeline


def case_name(seed):
    return f"{seed.base_path}#s{seed.sid}[{seed.rewrite}]"


def seed_cases(bench, spec, names):
    """Draw the mutants of every program the cases come from and check
    that they are exactly the recorded ones. Returns {case name: seed}."""
    programs = {n.split("#")[0] for n in names}
    seeds = {}
    for entry in bench.load_manifest():
        if entry["file"] not in programs:
            continue
        program = bench.load_corpus_program(entry["name"])
        drawn = bench.seed_faults(program, spec["per_program"],
                                  spec["mutation_seed"],
                                  step_budget=spec["step_budget"])
        if [case_name(s) for s in drawn] != spec["cases"][entry["file"]]:
            fail(f"the mutants drawn for {entry['file']} differ from "
                 "workloads.json; the workload is no longer the recorded one")
        seeds.update((case_name(s), s) for s in drawn)
    return seeds


class Capture:
    """Keeps the last `localize` result so a case's report can be checked."""

    def __init__(self, localize):
        self.last = None
        self._localize = localize

    def __call__(self, program, *args, **kwargs):
        res = self._localize(program, *args, **kwargs)
        self.last = (program, res)
        return res

    def take(self):
        last, self.last = self.last, None
        return last or (None, None)


def check_report(seed, result, program, res) -> list:
    """Problems with one case's output; empty when it is correct."""
    if result.error:
        return [result.error]
    if res is None:
        return ["localize returned no result"]
    entries = res.report.entries
    problems = []
    sids = [e.sid for e in entries]
    if len(set(sids)) != len(sids):
        problems.append("a statement is listed more than once")
    modelled = set(res.net.stmt_vars) & set(program.app_statement_ids())
    if {e.sid for e in entries if e.executed} != modelled:
        problems.append("listed statements differ from the modelled ones")
    for pos, e in enumerate(entries):
        if not (math.isfinite(e.probability) and 0.0 <= e.probability <= 1.0):
            problems.append(f"s{e.sid} has probability {e.probability!r}")
        if e.rank != pos + 1:
            problems.append(f"s{e.sid} at position {pos + 1} has rank {e.rank}")
    keys = [(-e.probability, e.sid) for e in entries]
    if keys != sorted(keys):
        problems.append("statements are not in rank order")
    if result.ranks.get("semfl") != res.report.rank_of(seed.sid):
        problems.append("bench rank differs from the report's rank")
    if set(result.hits) != {"semfl", "ochiai", "dstar"}:
        problems.append(f"rankers evaluated: {sorted(result.hits)}")
    return problems


def digest(result, res):
    h = hashlib.sha256(res.report.to_json().encode())
    h.update(json.dumps(result.to_record(), sort_keys=True).encode())
    return h.hexdigest()


def run_checked(bench, seed, cfg, capture, tracer=None) -> Outcome:
    """Run one case and check its report."""
    name = case_name(seed)
    start = time.perf_counter()
    if tracer is None:
        result = bench.run_case(seed, cfg)
    else:
        result = tracer.case_span(name, bench.run_case, seed, cfg)
    latency = time.perf_counter() - start
    program, res = capture.take()
    problems = check_report(seed, result, program, res)
    if result.case != name:
        problems.append(f"bench names the case {result.case!r}")
    ok = not problems
    hits = {"top1_hits": ok and result.hits["semfl"][1],
            "top5_hits": ok and result.hits["semfl"][5],
            "ochiai_top5_hits": ok and result.hits["ochiai"][5]}
    return Outcome(name, latency, digest(result, res) if ok else "",
                   problems, hits)


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND of n samples
    above it, as (percentile, index into the sorted samples)."""
    if n <= TAIL_BEYOND:
        return 100, n - 1
    q = math.floor(100 * (n - TAIL_BEYOND) / n)
    return q, math.ceil(q * n / 100) - 1


def report_problems(outcomes):
    bad = [o for o in outcomes if o.problems]
    for o in bad:
        print(f"FAILED {o.case}: {'; '.join(o.problems)}")
    return len(bad)


def short_cases(order, first, n):
    """The cases run so far that may end up at the median or the tail of
    all n: those within twice the tail of the first runs so far, since
    one run of a case can take up to about twice another on a busy host.
    None until the first runs are enough to place the tail."""
    if len(first) <= TAIL_BEYOND:
        return []
    costs = sorted(o.latency for o in first)
    limit = 2 * costs[math.ceil(tail_percentile(n)[0] * len(costs) / 100) - 1]
    return [s for s, o in zip(order, first) if o.latency <= limit]


def measure(bench, order, cfg, capture, seconds, rng):
    """Run one pass in `order` and spend `seconds` running the short cases
    again, in rounds that each take them in a fresh order from `rng`. The
    host's speed swings over tens of seconds, so half of the repeat time
    is spread evenly between the cases of the pass and the rest follows
    it: the runs of each short case span the whole measurement."""
    first, repeats, queue = [], [], []
    spent = 0.0

    def repeat_until(budget):
        nonlocal spent
        short = short_cases(order, first, len(order))
        while short and spent < budget:
            if not queue:
                queue.extend(rng.sample(short, len(short)))
            start = time.perf_counter()
            repeats.append(run_checked(bench, queue.pop(), cfg, capture))
            spent += time.perf_counter() - start

    for i, seed in enumerate(order):
        first.append(run_checked(bench, seed, cfg, capture))
        repeat_until(seconds / 2 * (i + 1) / len(order))
    repeat_until(seconds)
    return first, repeats


def end_to_end(bench, spec, names, cfg, order_seed, seconds):
    capture = Capture(bench.localize)
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        seeds = seed_cases(bench, spec, names)
        setup.append(time.perf_counter() - start)
    order = [seeds[n] for n in names]
    rng = random.Random(order_seed)
    rng.shuffle(order)

    undo = rebind(bench.localize, capture)
    try:
        first, repeats = measure(bench, order, cfg, capture, seconds, rng)
    finally:
        restore(undo)

    outcomes = first + repeats
    failed = report_problems(outcomes)
    digests = {o.case: o.digest for o in first}
    deterministic = all(o.digest == digests[o.case] for o in outcomes)
    if not deterministic:
        print("FAILED: a repeated case produced a different report")
    by_case = {}
    for o in outcomes:
        by_case.setdefault(o.case, []).append(o.latency)
    # The host's fastest moments come and go over minutes, so a case's
    # median run is steadier from one run of the benchmark to the next
    # than its fastest.
    typical = sorted(statistics.median(v) for v in by_case.values())
    q, idx = tail_percentile(len(typical))
    metrics = {
        "pass_s": sum(typical),
        "case_p50_s": statistics.median(typical),
        "case_tail_s": typical[idx],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_share": (len(outcomes) - failed) / len(outcomes),
    }
    for key in ("top1_hits", "top5_hits", "ochiai_top5_hits"):
        metrics[key] = sum(bool(o.hits[key]) for o in first)
    runs = f"{len(outcomes)} runs of {len(typical)} cases"
    notes = {"pass_s": f"sum of each case's median run; first pass "
                       f"{sum(o.latency for o in first):.3f} s",
             "case_p50_s": f"median run per case; {runs}",
             "case_tail_s": f"p{q} of the median run per case; {runs}",
             "setup_s": f"median of {len(setup)} set-ups"}
    record = {"first_pass_s": sum(o.latency for o in first),
              "setup_s": setup,
              "cases": [{"case": o.case, "digest": o.digest,
                         "latency_s": by_case[o.case], "problems": o.problems}
                        for o in first]}
    return (metrics, END_TO_END_UNITS, notes, record,
            failed == 0 and deterministic, len(outcomes), failed)


def per_layer(bench, spec, names, cfg, order_seed):
    seeds = seed_cases(bench, spec, names)
    order = [seeds[n] for n in names]
    random.Random(order_seed).shuffle(order)
    capture = Capture(bench.localize)
    undo = rebind(bench.localize, capture)
    tracer = Tracer()
    plain, traced = [], []
    try:
        # Each case runs untraced, then traced, so the two runs of a case
        # see the same machine load.
        for seed in order:
            plain.append(run_checked(bench, seed, cfg, capture))
            with tracer:
                traced.append(run_checked(bench, seed, cfg, capture, tracer))
    finally:
        restore(undo)

    failed = report_problems(plain) + report_problems(traced)
    mismatched = [a.case for a, b in zip(plain, traced) if a.digest != b.digest]
    for case in mismatched:
        print(f"FAILED {case}: traced and untraced report digests differ")

    own = tracer.self_times()
    by_layer = {}
    case_layers = {}
    for span, t in zip(tracer.spans, own):
        by_layer[span.name] = by_layer.get(span.name, 0.0) + t
        layers = case_layers.setdefault(span.case, {})
        layers[span.name] = layers.get(span.name, 0.0) + t
    metrics = {m: by_layer.get(s, 0.0) for m, s in SELF_TIME_SPANS.items()}
    for name in (n for n, unit in PER_LAYER_UNITS.items() if unit == "count"):
        values = [c.get(name, 0) for c in tracer.counts.values()]
        metrics[name] = (max(values) if name == "model.max_factor_degree"
                         else sum(values))
    metrics["inference.ns_per_message"] = (
        metrics["inference.lbp_s"] * 1e9 / max(metrics["inference.messages"], 1))
    traced_pass = sum(o.latency for o in traced)
    plain_pass = sum(o.latency for o in plain)
    metrics["bench.traced_pass_s"] = traced_pass
    metrics["bench.trace_overhead_s"] = traced_pass - plain_pass
    metrics["bench.unaccounted_s"] = traced_pass - sum(
        metrics[m] for m in SELF_TIME_SPANS)
    notes = {"bench.unaccounted_s":
             f"{metrics['bench.unaccounted_s'] / traced_pass:.2%} of the "
             f"traced pass; {by_layer.get(COUNT_SPAN, 0.0):.4f} s of it "
             "is the tracer reading counts",
             "bench.trace_overhead_s": f"untraced pass {plain_pass:.3f} s"}
    record = {"untraced_pass_s": plain_pass, "traced_pass_s": traced_pass,
              "cases": [{"case": b.case, "digest": b.digest,
                         "untraced_latency_s": a.latency,
                         "traced_latency_s": b.latency,
                         "counts": tracer.counts.get(b.case, {}),
                         "self_s": case_layers.get(b.case, {}),
                         "problems": b.problems}
                        for a, b in zip(plain, traced)]}
    spans = [{"name": s.name, "start": s.start, "end": s.end,
              "parent": s.parent, "case": s.case} for s in tracer.spans]
    slowest = sorted(record["cases"], key=lambda c: -c["traced_latency_s"])[:3]
    for c in slowest:
        print(f"slow case {c['case']}: {c['traced_latency_s']:.3f} s, "
              + ", ".join(f"{k}={v}" for k, v in sorted(c["counts"].items())))
    return (metrics, PER_LAYER_UNITS, notes, record, spans,
            failed == 0 and not mismatched, 2 * len(names), failed)


def main(argv=None):
    spec = json.loads((HERE / "workloads.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    p.add_argument("--seed", type=int, required=True,
                   help="orders the cases of a pass and of each round")
    p.add_argument("--seconds", type=float, required=True,
                   help="time spent repeating short cases")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--cases", type=int, default=None,
                   help="run only the first N cases (smoke test)")
    args = p.parse_args(argv)

    bench, pipeline = import_semfl()
    workload = spec["workloads"][args.workload]
    names = [c for cases in spec["cases"].values() for c in cases]
    names = names[:args.cases]
    cfg = pipeline.RunConfig(step_budget=spec["step_budget"],
                             **workload["config"])
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"

    if args.trace:
        (metrics, units, notes, record, spans, correct, attempted,
         failed) = per_layer(bench, spec, names, cfg, args.seed)
        with open(f"{stem}-spans.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
        stem = Path(f"{stem}-trace")
    else:
        (metrics, units, notes, record, correct, attempted,
         failed) = end_to_end(bench, spec, names, cfg, args.seed, args.seconds)
    Path(f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, **record},
        indent=1) + "\n")

    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<34} {metrics[name]:>16.6f} {unit}{note}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
