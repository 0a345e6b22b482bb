"""Ranked fault reports, spectrum-based baselines, and method-level scores."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

OCHIAI = "ochiai"
DSTAR = "dstar"


def _ochiai(ef, ep, failing):
    denom = math.sqrt(failing * (ef + ep))
    return ef / denom if denom > 0 else 0.0


def _dstar(ef, ep, failing):
    if ef == 0:
        return 0.0
    denom = ep + (failing - ef)
    return (ef * ef) / denom if denom > 0 else math.inf


# Spectrum-based formulas by name: the suspiciousness of a statement that
# `ef` failing and `ep` passing tests ran, with `failing` failing tests.
SBFL = {OCHIAI: _ochiai, DSTAR: _dstar}


@dataclass
class ReportEntry:
    sid: int
    line: int
    function: str
    probability: float  # P(statement is faulty)
    rank: int
    avg_rank: float  # average position over ties, secondary metric
    executed: bool


@dataclass
class Report:
    entries: list
    metadata: dict = field(default_factory=dict)

    def rank_of(self, sid):
        for e in self.entries:
            if e.sid == sid:
                return e.rank
        return None

    def to_json(self) -> str:
        doc = {
            "metadata": self.metadata,
            "statements": [
                {"id": e.sid, "location": f"{e.function}:{e.line}",
                 "probability": None if e.probability == math.inf
                 else round(e.probability, 12), "rank": e.rank,
                 "avg_rank": e.avg_rank, "executed": e.executed}
                for e in self.entries
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def to_table(self) -> str:
        lines = [f"{'rank':>4}  {'prob':>8}  {'avg':>7}  location"]
        for e in self.entries:
            lines.append(f"{e.rank:>4}  {e.probability:>8.4f}  "
                         f"{e.avg_rank:>7.1f}  {e.function}:{e.line}"
                         f"{'' if e.executed else '  (not executed)'}")
        return "\n".join(lines) + "\n"


def _attach_ranks(scored, program):
    """scored: list of (sid, probability) sorted descending with sid
    tie-break already applied. Returns ReportEntry list."""
    entries = []
    # average rank within groups of equal probability
    i = 0
    while i < len(scored):
        j = i
        while j < len(scored) and scored[j][1] == scored[i][1]:
            j += 1
        avg = (i + 1 + j) / 2.0  # mean of positions i+1 .. j
        for pos in range(i, j):
            sid, prob, executed = scored[pos]
            info = program.statement_table[sid]
            entries.append(ReportEntry(sid, info.line, info.function,
                                       prob, pos + 1, avg, executed))
        i = j
    return entries


def rank(marginals, net, program, metadata=None) -> Report:
    """Order candidate statements by posterior fault probability.

    Statements never executed by any considered trace trail the list with
    probability zero; ties break by statement id.
    """
    candidates = program.app_statement_ids()
    scored = []
    for sid in candidates:
        idx = net.stmt_vars.get(sid)
        if idx is None:
            scored.append((sid, 0.0, False))
        else:
            # a Python float: report.json rounds with Python's `round`
            scored.append((sid, 1.0 - float(marginals[idx]), True))
    scored.sort(key=lambda x: (-x[1], x[0]))
    return Report(_attach_ranks(scored, program), dict(metadata or {}))


def sbfl_scores(profile, formula, program) -> dict:
    """Suspiciousness per candidate statement from coverage counts alone."""
    score = SBFL.get(formula)
    if score is None:
        raise ValueError(f"unknown formula {formula!r}")
    failing = profile.num_failing
    e_f = {}
    e_p = {}
    for t in profile.tests.values():
        bucket = e_f if t.status == "fail" else e_p
        for sid in t.statements:
            bucket[sid] = bucket.get(sid, 0) + 1
    return {sid: score(e_f.get(sid, 0), e_p.get(sid, 0), failing)
            for sid in program.app_statement_ids()}


def sbfl_report(profile, formula, program) -> Report:
    scores = sbfl_scores(profile, formula, program)
    executed = set()
    for t in profile.tests.values():
        executed |= t.statements
    scored = sorted(((sid, s, sid in executed) for sid, s in scores.items()),
                    key=lambda x: (-x[1], x[0]))
    return Report(_attach_ranks(scored, program), {"formula": formula})


def method_level(report: Report) -> list:
    """Functions scored by their most suspicious statement."""
    scores = {}
    for e in report.entries:
        scores[e.function] = max(scores.get(e.function, 0.0), e.probability)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def export_combine_scores(report: Report) -> list:
    """Normalized rank scores: the i-th of n entries scores (n - i + 1)/n."""
    n = len(report.entries)
    return [(e.sid, (n - e.rank + 1) / n) for e in report.entries]
