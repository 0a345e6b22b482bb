"""Benchmark harness: mutation-based fault seeding over the shipped corpus
and end-to-end comparison against the spectrum baselines."""

from __future__ import annotations

import json
import random
from collections import Counter, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from importlib import resources

from . import tracing
from .errors import MiniImpSyntaxError, NoViableMutants
from .lang import ast as A
from .lang import parse
from .lang.parser import parse_slot
from .lang.printer import format_expr, format_head, format_lines
from .pipeline import RunConfig, localize
from .ranking import DSTAR, OCHIAI, sbfl_report
from .tracing import DEFAULT_STEP_BUDGET, profile, run_test

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
    expr: object  # the slot's expression after the rewrite
    rewrite: str  # human-readable description, e.g. "<= -> <"


# What a case takes from its base program as run (`BaseProgram.given`), in
# the form `pipeline.localize` reads.
Given = namedtuple("Given", "records trace")


class BaseProgram:
    """A program's printed `text`, parsed on first use: the one program
    that the cases of its seeds run on, mutated. A mutant's text has the
    printed text's lines, not those of the program's file at `path`.
    `records` maps each test to its `CoverageRecord` from one coverage-only
    run of the unmutated program at `step_budget`; the printed program has
    the same statement ids and runs each test alike. `traces` memoises the
    given traces of its cases (`trace`)."""

    def __init__(self, text, path, records, step_budget):
        self.text = text
        self.path = path
        self.records = records
        self.step_budget = step_budget
        self.traces = {}

    @cached_property
    def program(self):
        return parse(self.text, self.path)

    def given(self, sid, cfg) -> Given:
        """What a case at `cfg` of a mutant at statement `sid` takes as run,
        in place of running it: the record of each test that passed here
        without stepping `sid`, if `cfg.step_budget` is the one it ran at,
        else none, and such a test's trace from `trace`.

        Such a test runs on the mutant as it ran here: MiniImp is
        deterministic, and the mutant differs only in an expression
        evaluated after `sid`'s step, so its steps, coverage, outcome and
        any stop at a repeated loop state are the same. Each call is
        traced or not when it is made, and value ids do not depend on
        tracing, so its trace depends on the traced set only through the
        functions it entered: one kept by an earlier case is this case's."""
        records = {} if cfg.step_budget != self.step_budget else {
            test: r for test, r in self.records.items()
            if r.status == "pass" and sid not in r.statements}
        return Given(records, partial(self.trace, cfg=cfg))

    def trace(self, test, traced, cfg):
        """The trace of given test `test` with `traced` and `cfg`'s loop
        period: the one kept under (test, `traced` ∩ the functions it
        entered, loop period), else one recorded now and kept, sharing its
        graph segments, if within `cfg.trace_limit`. One over the limit is
        not held here, so the pipeline frees it as it would any other."""
        key = (test, traced & self.records[test].functions, cfg.loop_period)
        tr = self.traces.get(key)
        if tr is None:
            tr = tracing.trace(self.program, test, traced,
                               step_budget=self.step_budget,
                               period=cfg.loop_period)
            if tr.raw_events <= cfg.trace_limit:
                tr.segments = {}
                self.traces[key] = tr
        elif tr.raw_events > cfg.trace_limit:
            del self.traces[key]
        return tr


@dataclass
class FaultSeed:
    base_path: str
    rewrite: str
    source: str  # full mutant program text
    point: MutationPoint
    base: BaseProgram = field(repr=False, compare=False)

    @property
    def sid(self):
        return self.point.sid


def _rewrites(expr):
    """(rewritten `expr`, description) of each mutation in `expr`, in
    pre-order: the node's own swap, literal +1 before -1, then its
    children left to right."""
    if isinstance(expr, A.Binary) and expr.op in OP_SWAPS:
        op = OP_SWAPS[expr.op]
        yield replace(expr, op=op), f"{expr.op} -> {op}"
    if isinstance(expr, A.IntLit):
        for value in (expr.value + 1, expr.value - 1):
            yield A.IntLit(value), f"{expr.value} -> {value}"
    for i, child in enumerate(A.children(expr)):
        for mutant, rewrite in _rewrites(child):
            yield A.with_child(expr, i, mutant), rewrite


def enumerate_mutations(program) -> list:
    points = []
    for fn in program.functions.values():
        if A.is_test(fn.name):
            continue
        for stmt in A.walk_statements(fn.body):
            for slot, expr in A.statement_slots(stmt):
                for mutant, rewrite in _rewrites(expr):
                    points.append(MutationPoint(stmt.sid, slot, mutant, rewrite))
    return points


@contextmanager
def mutated(program, point: MutationPoint, source_text=None):
    """`program` as the mutant at `point`: the slot rewritten in place, its
    function's compiled closures stashed, so that the interpreter compiles
    the mutant's and every other function keeps its own, and `source_text`,
    when given, as the program's text. All are put back on exit. Statement
    ids and control flow are the program's, as the mutation never changes
    its shape, so `ipostdom` stays valid. The statement table is not
    rewritten; its `root_op` stays the base's, which `classify_p0` reads as
    it would the parsed mutant's: a swap never crosses `BOOLEAN_OPS` and a
    rewritten literal is never boolean. Tests run as on the parsed mutant
    text, where a literal -1 parses back as `-` applied to 1."""
    stmt = program.statements[point.sid]
    function = program.statement_table[point.sid].function
    original = getattr(stmt, point.slot)
    text = program.source_text
    stashed = program.compiled.pop(function, None)
    setattr(stmt, point.slot, point.expr)
    if source_text is not None:
        program.source_text = source_text
    try:
        yield program
    finally:
        setattr(stmt, point.slot, original)
        program.source_text = text
        if stashed is None:
            program.compiled.pop(function, None)
        else:
            program.compiled[function] = stashed


def _parses(program, point) -> bool:
    """Whether `parse` takes the mutant's text. Every other slot prints
    with no more nesting than its source had, so only the rewritten one
    can fail: a literal rewritten past INT_MAX, or a `-1` or a swap that
    needs parentheses nesting it past the parser's limit."""
    try:
        parse_slot(format_expr(point.expr),
                   program.statement_table[point.sid].depth)
    except MiniImpSyntaxError:
        return False
    return True


def _mixed_outcomes(mutant, sid, records, step_budget) -> bool:
    """Whether some test of `mutant`, a mutant at statement `sid`, passes
    and another fails. Only the tests whose base run, in `records`,
    stepped `sid` run; every other one has its base outcome
    (`BaseProgram.given` says why)."""
    seen = {r.status for r in records.values() if sid not in r.statements}
    for test, r in records.items():
        if len(seen) == 2:
            break
        if sid in r.statements:
            seen.add(run_test(mutant, test, step_budget)[0])
    return len(seen) == 2


def _spliced(lines, heads, stmt) -> str:
    """The text of a program printed as `lines`, with `heads` from
    `format_lines`, in which `stmt` has been rewritten: only its first line
    is printed again, since every mutation slot sits on it."""
    at, indent = heads[stmt.sid]
    text = lines.copy()
    text[at] = format_head(stmt, indent)
    return "\n".join(text)


def seed_faults(program, n, rng_seed, step_budget=DEFAULT_STEP_BUDGET) -> list:
    """Draw up to n single-statement mutants with mixed test outcomes. A
    candidate runs on `program` itself, `mutated`. `program` is printed
    once, unmutated, and a drawn mutant's text is that one with its
    statement's first line printed again (`_spliced`). Every test first
    runs once on `program` unmutated, and a candidate runs only the tests
    whose run stepped its statement. Two drawn mutants with the same
    statement and rewrite get the rewrite's occurrence in that statement
    as a suffix, "== -> != (2)", so no two share a case name. The seeds
    share one `BaseProgram` of `program`, which their cases run on and
    which keeps the unmutated runs' records."""
    points = []  # (point, its occurrence among the statement's alike)
    occurrences = Counter()
    for point in enumerate_mutations(program):
        occurrences[point.sid, point.rewrite] += 1
        points.append((point, occurrences[point.sid, point.rewrite]))
    rng = random.Random(rng_seed)
    rng.shuffle(points)
    records = (profile(program, step_budget).tests if program.test_names
               else {})
    lines, heads = format_lines(program)
    drawn = []  # (point, occurrence, mutant text)
    for point, occurrence in points:
        if len(drawn) >= n:
            break
        if not _parses(program, point):
            continue
        with mutated(program, point):
            if _mixed_outcomes(program, point.sid, records, step_budget):
                drawn.append((point, occurrence, _spliced(
                    lines, heads, program.statements[point.sid])))
    if not drawn:
        raise NoViableMutants(
            f"no mutation of {program.source_path} flips some tests "
            "while keeping others passing")
    alike = Counter((point.sid, point.rewrite) for point, _, _ in drawn)
    base = BaseProgram("\n".join(lines), program.source_path, records,
                       step_budget)
    return [FaultSeed(program.source_path,
                      point.rewrite if alike[point.sid, point.rewrite] == 1
                      else f"{point.rewrite} ({occurrence})", source, point,
                      base)
            for point, occurrence, source in drawn]


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
    raise ValueError(f"no corpus program named {name!r}")


def corpus_seeds(per_program, rng_seed, names=None,
                 step_budget=DEFAULT_STEP_BUDGET) -> list:
    """Mutants of the named corpus programs (default all), per_program
    each, in manifest order unless names gives another. Every program is
    loaded, so every name checked, before any mutant is drawn."""
    programs = [load_corpus_program(name)
                for name in names or [e["name"] for e in load_manifest()]]
    return [seed for program in programs
            for seed in seed_faults(program, per_program, rng_seed,
                                    step_budget=step_budget)]


# --- batch runs ---

RANKERS = ("semfl", "ochiai", "dstar")
# How the fault's rank reads ties: its position in the report, where ties
# break by statement id; the average position over its ties; the last
# position among its ties.
TIE_POLICIES = ("id", "average", "worst")
REASONS = ("assert", "exception", "timeout")
KS = (1, 3, 5, 10)  # the top-k cut-offs every table reports


@dataclass
class CaseResult:
    case: str
    config: str
    error: str = ""
    reason: str = ""  # why the mutant fails, one of REASONS
    tie_ranks: dict = field(default_factory=dict)  # ranker -> {policy: rank}

    @property
    def ranks(self):
        """ranker -> the fault's position in its report (ties by id)"""
        return {r: t["id"] for r, t in self.tie_ranks.items()}

    @property
    def hits(self):
        """ranker -> {k: whether the fault is within the first k}"""
        return {r: {k: rank <= k for k in KS} for r, rank in self.ranks.items()}

    def to_record(self):
        return {"case": self.case, "config": self.config, "error": self.error,
                "hits": {r: {str(k): v for k, v in h.items()}
                         for r, h in self.hits.items()},
                "ranks": self.ranks}


def _tie_ranks(report, sid) -> dict:
    """The rank of statement `sid` under each tie policy."""
    e = next(e for e in report.entries if e.sid == sid)
    worst = sum(1 for x in report.entries if x.probability >= e.probability)
    return dict(zip(TIE_POLICIES, (e.rank, e.avg_rank, worst)))


def _failure_reason(profile) -> str:
    """A mutant fails by timeout if any failing test timed out, else by
    exception if any threw, else by assert."""
    reasons = {t.reason for t in profile.failing}
    return next((r for r in ("timeout", "exception") if r in reasons),
                "assert")


def run_case(seed: FaultSeed, cfg: RunConfig) -> CaseResult:
    """Rank the seed's fault by every ranker, on its base program `mutated`
    with the mutant's text, taking the tests the base gives as run
    (`BaseProgram.given`): the reports are those of the parsed text."""
    result = CaseResult(case=f"{seed.base_path}#s{seed.sid}[{seed.rewrite}]",
                        config="")
    try:
        base = seed.base
        program = base.program
        with mutated(program, seed.point, seed.source):
            res = localize(program, cfg, base.given(seed.sid, cfg))
            reports = [("semfl", res.report)] + [
                (name, sbfl_report(res.profile, formula, program))
                for name, formula in (("ochiai", OCHIAI), ("dstar", DSTAR))]
        result.tie_ranks = {name: _tie_ranks(report, seed.sid)
                            for name, report in reports}
        result.reason = _failure_reason(res.profile)
    except Exception as exc:  # record, never abort the batch
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_benchmark(seeds, configs) -> dict:
    """configs: list of (name, RunConfig). Returns rows, the tie tables,
    and top-k hit counts per (config, ranker)."""
    rows = []
    for name, cfg in configs:
        for seed in seeds:
            r = run_case(seed, cfg)
            r.config = name
            rows.append(r)
    ties = _tie_tables(rows, [name for name, _ in configs])
    # the first table is the `ties: id` table over all failure reasons
    aggregate = {(t["config"], t["ranker"]): {k: t["hits"][str(k)] for k in KS}
                 for t in ties if t["policy"] == "id" and t["reason"] == "all"}
    return {"rows": rows, "aggregate": aggregate, "ties": ties}


def _tie_tables(rows, configs) -> list:
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
                                 for k in KS},
                        "mean_rank": (round(sum(ranks) / len(ranks), 4)
                                      if ranks else None)})
    return records


def format_results(results) -> str:
    lines = [f"{'config':<24} {'ranker':<8} " +
             " ".join(f"top-{k:<3}" for k in KS) + " cases"]
    for (cfg, ranker), counts in results["aggregate"].items():
        n = sum(1 for r in results["rows"] if r.config == cfg and not r.error)
        lines.append(f"{cfg:<24} {ranker:<8} " +
                     " ".join(f"{counts[k]:<7}" for k in KS) + f" {n}")
    for policy in TIE_POLICIES:
        lines.append("")
        lines.append(f"ties: {policy}")
        lines.append(f"{'config':<24} {'ranker':<8} {'reason':<10} " +
                     " ".join(f"top-{k:<3}" for k in KS) + " mean   cases")
        for t in results["ties"]:
            if t["policy"] == policy:
                mean = ("-" if t["mean_rank"] is None
                        else f"{t['mean_rank']:.2f}")
                lines.append(
                    f"{t['config']:<24} {t['ranker']:<8} {t['reason']:<10} "
                    + " ".join(f"{t['hits'][str(k)]:<7}" for k in KS)
                    + f" {mean:<6} {t['cases']}")
    errors = [r for r in results["rows"] if r.error]
    for r in errors:
        lines.append(f"error: {r.case} [{r.config}]: {r.error}")
    return "\n".join(lines) + "\n"


def results_to_json(results) -> str:
    doc = {
        "ks": list(KS),
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
