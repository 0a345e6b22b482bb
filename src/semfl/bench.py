"""Benchmark harness: mutation-based fault seeding over the shipped corpus
and end-to-end comparison against the spectrum baselines."""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from importlib import resources

from .errors import NoViableMutants
from .lang import ast as A
from .lang import format_program, parse
from .pipeline import RunConfig, localize
from .ranking import DSTAR, OCHIAI, sbfl_report, topk_eval
from .tracing import DEFAULT_STEP_BUDGET, run_test

# operator -> replacement; both directions listed explicitly
OP_SWAPS = {
    "<=": "<", "<": "<=",
    ">=": ">", ">": ">=",
    "==": "!=", "!=": "==",
    "+": "-", "-": "+",
    "*": "/", "/": "*",
    "&&": "||", "||": "&&",
}


@dataclass(frozen=True)
class MutationPoint:
    sid: int
    slot: str  # which expression of the statement ("expr", "cond", "index")
    path: tuple  # child indices from the slot root to the mutated node
    rewrite: str  # human-readable description, e.g. "<= -> <"


@dataclass
class FaultSeed:
    base_path: str
    sid: int
    rewrite: str
    source: str  # full mutant program text
    rng_seed: int

    @property
    def ground_truth(self):
        return {self.sid}


def _points_in_expr(expr, path):
    points = []
    if isinstance(expr, A.Binary) and expr.op in OP_SWAPS:
        points.append((path, f"{expr.op} -> {OP_SWAPS[expr.op]}"))
    if isinstance(expr, A.IntLit):
        points.append((path, f"{expr.value} -> {expr.value + 1}"))
        points.append((path, f"{expr.value} -> {expr.value - 1}"))
    for i, child in enumerate(A.children(expr)):
        points.extend(_points_in_expr(child, path + (i,)))
    return points


def enumerate_mutations(program) -> list:
    points = []
    for fn in program.functions.values():
        if fn.name.startswith("test_"):
            continue
        for stmt in A.walk_statements(fn.body):
            for slot, expr in A.statement_slots(stmt):
                for path, rewrite in _points_in_expr(expr, ()):
                    points.append(MutationPoint(stmt.sid, slot, path, rewrite))
    return points


def _mutate_node(expr, path, rewrite):
    if not path:
        if isinstance(expr, A.Binary):
            return replace(expr, op=OP_SWAPS[expr.op])
        if isinstance(expr, A.IntLit):
            target = rewrite.split(" -> ")[1]
            if target not in (str(expr.value + 1), str(expr.value - 1)):
                raise ValueError(f"bad literal rewrite {rewrite!r}")
            return A.IntLit(int(target))
        raise TypeError(f"cannot mutate {expr!r}")
    child = A.children(expr)[path[0]]
    return A.with_child(expr, path[0], _mutate_node(child, path[1:], rewrite))


def apply_mutation(program, point: MutationPoint) -> str:
    """Return mutant source text; statement ids are preserved because the
    mutation never changes program shape. The mutated slot is swapped on
    the program's own statement for formatting and restored afterwards."""
    stmt = program.statements[point.sid]
    original = getattr(stmt, point.slot)
    setattr(stmt, point.slot, _mutate_node(original, point.path, point.rewrite))
    try:
        return format_program(program)
    finally:
        setattr(stmt, point.slot, original)


def _mixed_outcomes(mutant, step_budget) -> bool:
    """Whether some test of `mutant` passes and another fails.

    Every test first runs on a tenth of the step budget: a test that ends
    there ends the same way on the whole budget. Only when those outcomes
    are not mixed do the others run on the whole budget, one at a time.
    """
    seen = set()
    unfinished = []
    for test in mutant.test_names:
        status, reason = run_test(mutant, test, max(1, step_budget // 10))
        if reason == "timeout":
            unfinished.append(test)
        else:
            seen.add(status)
        if len(seen) == 2:
            return True
    for test in unfinished:
        seen.add(run_test(mutant, test, step_budget)[0])
        if len(seen) == 2:
            return True
    return False


def seed_faults(program, n, rng_seed, step_budget=DEFAULT_STEP_BUDGET) -> list:
    """Draw up to n single-statement mutants with mixed test outcomes."""
    points = enumerate_mutations(program)
    rng = random.Random(rng_seed)
    rng.shuffle(points)
    seeds = []
    for point in points:
        if len(seeds) >= n:
            break
        source = apply_mutation(program, point)
        try:
            viable = _mixed_outcomes(parse(source, program.source_path),
                                     step_budget)
        except Exception:
            continue
        if viable:
            seeds.append(FaultSeed(program.source_path, point.sid,
                                   point.rewrite, source, rng_seed))
    if not seeds:
        raise NoViableMutants(
            f"no mutation of {program.source_path} flips some tests "
            "while keeping others passing")
    return seeds


# --- corpus ---

def corpus_dir():
    return resources.files("semfl") / "corpus"


def load_manifest() -> list:
    """Manifest entries: {"name", "file", "tests"} per shipped program."""
    text = (corpus_dir() / "manifest.json").read_text()
    return json.loads(text)


def load_corpus_program(name):
    for entry in load_manifest():
        if entry["name"] == name:
            path = corpus_dir() / entry["file"]
            return parse(path.read_text(), entry["file"])
    raise KeyError(f"no corpus program named {name!r}")


def corpus_seeds(per_program, rng_seed, names=None,
                 step_budget=DEFAULT_STEP_BUDGET) -> list:
    """Mutants of the named corpus programs (default all), per_program
    each, in manifest order unless names gives another."""
    seeds = []
    for name in names or [e["name"] for e in load_manifest()]:
        seeds.extend(seed_faults(load_corpus_program(name), per_program,
                                 rng_seed, step_budget=step_budget))
    return seeds


# --- batch runs ---

RANKERS = ("semfl", "ochiai", "dstar")
# How the fault's rank reads ties: its position in the report, where ties
# break by statement id; the average position over its ties; the last
# position among its ties.
TIE_POLICIES = ("id", "average", "worst")
REASONS = ("assert", "exception", "timeout")


@dataclass
class CaseResult:
    case: str
    config: str
    error: str = ""
    hits: dict = field(default_factory=dict)  # ranker -> {k: bool}
    ranks: dict = field(default_factory=dict)  # ranker -> best rank
    timings: dict = field(default_factory=dict)
    reason: str = ""  # why the mutant fails, one of REASONS
    tie_ranks: dict = field(default_factory=dict)  # ranker -> {policy: rank}

    def to_record(self):
        return {"case": self.case, "config": self.config, "error": self.error,
                "hits": {r: {str(k): v for k, v in h.items()}
                         for r, h in self.hits.items()},
                "ranks": self.ranks}


def _best_rank(report, ground_truth):
    ranks = [e.rank for e in report.entries if e.sid in ground_truth]
    return min(ranks) if ranks else None


def _tie_ranks(report, ground_truth) -> dict:
    """The best rank of a ground-truth statement under each tie policy."""
    best = {}
    for e in report.entries:
        if e.sid in ground_truth:
            worst = sum(1 for x in report.entries
                        if x.probability >= e.probability)
            for policy, r in zip(TIE_POLICIES, (e.rank, e.avg_rank, worst)):
                best[policy] = min(best.get(policy, r), r)
    return best


def _failure_reason(profile) -> str:
    """A mutant fails by timeout if any failing test timed out, else by
    exception if any threw, else by assert."""
    reasons = {t.reason for t in profile.failing}
    return next((r for r in ("timeout", "exception") if r in reasons),
                "assert")


def run_case(seed: FaultSeed, cfg: RunConfig, ks=(1, 3, 5, 10)) -> CaseResult:
    case = f"{seed.base_path}#s{seed.sid}[{seed.rewrite}]"
    result = CaseResult(case=case, config="")
    t0 = time.perf_counter()
    try:
        program = parse(seed.source, seed.base_path)
        res = localize(program, cfg)
        gt = seed.ground_truth
        reports = [("semfl", res.report)] + [
            (name, sbfl_report(res.profile, formula, program))
            for name, formula in (("ochiai", OCHIAI), ("dstar", DSTAR))]
        for name, report in reports:
            result.hits[name] = topk_eval(report, gt, ks)
            result.ranks[name] = _best_rank(report, gt)
            result.tie_ranks[name] = _tie_ranks(report, gt)
        result.reason = _failure_reason(res.profile)
        result.timings = dict(res.timings)
    except Exception as exc:  # record, never abort the batch
        result.error = f"{type(exc).__name__}: {exc}"
    result.timings["total"] = time.perf_counter() - t0
    return result


def run_benchmark(seeds, configs, ks=(1, 3, 5, 10)) -> dict:
    """configs: list of (name, RunConfig). Returns rows plus aggregate
    top-k hit counts per (config, ranker)."""
    rows = []
    for name, cfg in configs:
        for seed in seeds:
            r = run_case(seed, cfg, ks)
            r.config = name
            rows.append(r)
    aggregate = {}
    for name, _ in configs:
        for ranker in RANKERS:
            counts = {k: 0 for k in ks}
            for r in rows:
                if r.config == name and not r.error:
                    for k in ks:
                        counts[k] += bool(r.hits.get(ranker, {}).get(k))
            aggregate[(name, ranker)] = counts
    return {"rows": rows, "aggregate": aggregate, "ks": list(ks),
            "ties": _tie_tables(rows, [name for name, _ in configs], ks)}


def _tie_tables(rows, configs, ks) -> list:
    """Top-k hits and mean fault rank per tie policy, config, ranker and
    failure reason ("all" first), over the rows that ran."""
    records = []
    for policy in TIE_POLICIES:
        for name in configs:
            ran = [r for r in rows if r.config == name and not r.error]
            for ranker in RANKERS:
                for reason in ("all",) + REASONS:
                    ranks = [r.tie_ranks[ranker][policy] for r in ran
                             if reason in ("all", r.reason)]
                    records.append({
                        "policy": policy, "config": name, "ranker": ranker,
                        "reason": reason, "cases": len(ranks),
                        "hits": {str(k): sum(x <= k for x in ranks)
                                 for k in ks},
                        "mean_rank": (round(sum(ranks) / len(ranks), 4)
                                      if ranks else None)})
    return records


def format_results(results) -> str:
    ks = results["ks"]
    lines = [f"{'config':<24} {'ranker':<8} " +
             " ".join(f"top-{k:<3}" for k in ks) + " cases"]
    seen_configs = []
    for (cfg, ranker), counts in results["aggregate"].items():
        if cfg not in seen_configs:
            seen_configs.append(cfg)
        n = sum(1 for r in results["rows"] if r.config == cfg and not r.error)
        lines.append(f"{cfg:<24} {ranker:<8} " +
                     " ".join(f"{counts[k]:<7}" for k in ks) + f" {n}")
    for policy in TIE_POLICIES:
        lines.append("")
        lines.append(f"ties: {policy}")
        lines.append(f"{'config':<24} {'ranker':<8} {'reason':<10} " +
                     " ".join(f"top-{k:<3}" for k in ks) + " mean   cases")
        for t in results["ties"]:
            if t["policy"] == policy:
                mean = ("-" if t["mean_rank"] is None
                        else f"{t['mean_rank']:.2f}")
                lines.append(
                    f"{t['config']:<24} {t['ranker']:<8} {t['reason']:<10} "
                    + " ".join(f"{t['hits'][str(k)]:<7}" for k in ks)
                    + f" {mean:<6} {t['cases']}")
    errors = [r for r in results["rows"] if r.error]
    for r in errors:
        lines.append(f"error: {r.case} [{r.config}]: {r.error}")
    return "\n".join(lines) + "\n"


def results_to_json(results) -> str:
    doc = {
        "ks": results["ks"],
        "rows": [{**r.to_record(), "reason": r.reason,
                  "tie_ranks": r.tie_ranks} for r in results["rows"]],
        "aggregate": [
            {"config": cfg, "ranker": ranker,
             "hits": {str(k): v for k, v in counts.items()}}
            for (cfg, ranker), counts in results["aggregate"].items()
        ],
        "ties": results["ties"],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
