"""Probabilistic model: one Bernoulli correctness variable per executed
statement and per runtime value, tied together by noisy-conjunction factors.

A produced value is correct with probability 1 when its statement and every
parent value are correct, and with a small leak probability p0 otherwise.
The leak is chosen by the producing statement's kind and root operator, not
by the values it produced. Conditions, asserts, boolean literals and the
operators in BOOLEAN_OPS (comparisons, logical operators and `%`) get the
moderate leak 0.5: a broken result with few possible values is still often
right. Every other statement, such as arithmetic, a call or a plain
`return s`, gets the low leak 0.01.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ConflictingEvidence

if TYPE_CHECKING:
    from .pipeline import RunConfig

BOOLEAN_OPS = frozenset({"<", "<=", ">", ">=", "==", "!=", "%", "&&", "||", "!"})
BOOLEAN_KINDS = frozenset({"if_cond", "while_cond", "assert"})


@dataclass
class Variable:
    name: str
    kind: str  # "stmt" | "value"
    prior: float = 0.5  # P(correct)
    evidence: bool | None = None


@dataclass
class Factor:
    child: int
    parents: list  # variable indices; the statement variable comes first
    p0: float

    @property
    def variables(self):
        return [self.child] + self.parents


@dataclass
class FaultNet:
    variables: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    stmt_vars: dict = field(default_factory=dict)  # sid -> var index
    value_vars: dict = field(default_factory=dict)  # (test, vid) -> var index

    def add_variable(self, name, kind, prior=0.5, evidence=None) -> int:
        self.variables.append(Variable(name, kind, prior, evidence))
        return len(self.variables) - 1

    def add_factor(self, child, parents, p0):
        self.factors.append(Factor(child, list(parents), p0))

    def set_evidence(self, idx, value: bool):
        var = self.variables[idx]
        if var.evidence is not None and var.evidence != value:
            raise ConflictingEvidence(
                f"{var.name} observed both correct and incorrect")
        var.evidence = value

    def max_factor_degree(self):
        return max((len(f.variables) for f in self.factors), default=0)


def classify_p0(sid, program, cfg: RunConfig) -> float:
    """Leak probability for values produced by this statement."""
    info = program.statement_table[sid]
    if info.kind in BOOLEAN_KINDS or info.root_op in BOOLEAN_OPS:
        return cfg.p0_moderate
    if info.root_op == "boollit":
        return cfg.p0_moderate
    return cfg.p0_low


def build_net(ddg, program, cfg: RunConfig | None = None) -> FaultNet:
    if cfg is None:
        from .pipeline import RunConfig  # pipeline imports this module
        cfg = RunConfig()
    net = FaultNet()
    for sid in ddg.statement_nodes:
        info = program.statement_table[sid]
        net.stmt_vars[sid] = net.add_variable(
            f"S{sid}@{info.function}:{info.line}", "stmt",
            prior=cfg.statement_prior)
    for key in ddg.value_nodes:
        test, vid = key
        producer = ddg.producer.get(key)
        # Test inputs are correct by construction.
        prior = 1.0 if producer is None else 0.5
        net.value_vars[key] = net.add_variable(f"V{vid}@{test}", "value",
                                               prior=prior)
    for key in ddg.value_nodes:
        producer = ddg.producer.get(key)
        if producer is None:
            continue
        parents = [net.stmt_vars[producer]]
        parents.extend(net.value_vars[p] for p in ddg.value_parents[key])
        net.add_factor(net.value_vars[key], parents, classify_p0(
            producer, program, cfg))
    for key, outcome in ddg.evidence_anchors:
        net.set_evidence(net.value_vars[key], outcome)
    return net


def dump_net(net: FaultNet) -> str:
    doc = {
        "variables": [
            {"name": v.name, "kind": v.kind, "prior": v.prior,
             "evidence": v.evidence}
            for v in net.variables
        ],
        "factors": [
            {"child": f.child, "parents": f.parents, "p0": f.p0}
            for f in net.factors
        ],
        "stmt_vars": [[sid, idx] for sid, idx in net.stmt_vars.items()],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_net(text: str) -> FaultNet:
    doc = json.loads(text)
    net = FaultNet()
    for v in doc["variables"]:
        net.add_variable(v["name"], v["kind"], v["prior"], v["evidence"])
    for f in doc["factors"]:
        net.add_factor(f["child"], f["parents"], f["p0"])
    net.stmt_vars = dict(doc["stmt_vars"])
    return net
