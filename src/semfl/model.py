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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConflictingEvidence

if TYPE_CHECKING:
    from .pipeline import RunConfig

BOOLEAN_OPS = frozenset({"<", "<=", ">", ">=", "==", "!=", "%", "&&", "||", "!"})
BOOLEAN_KINDS = frozenset({"if_cond", "while_cond", "assert"})


class Factor(NamedTuple):
    child: int
    parents: list  # variable indices; the statement variable comes first
    p0: float


class Factors:
    """A net's factors, built as they are iterated, so the view costs
    nothing until then. No pipeline stage reads it: the tests and perfbench
    count and walk a net's factors through it."""

    def __init__(self, net):
        self._net = net

    def __len__(self):
        return len(self._net.p0)

    def __iter__(self):
        edge_var = self._net.edge_var.tolist()
        offsets = self._net.offsets.tolist()
        for lo, hi, p0 in zip(offsets, offsets[1:], self._net.p0.tolist()):
            yield Factor(edge_var[lo], edge_var[lo + 1:hi], p0)


@dataclass
class FaultNet:
    """The network as the arrays inference runs on. Factor a joins the
    variables edge_var[offsets[a]:offsets[a + 1]]: its child, then its
    parents, the statement variable first."""

    prior: np.ndarray  # float64 P(correct) per variable
    evidence: np.ndarray  # int8 per variable: 1 correct, 0 not, -1 unobserved
    offsets: np.ndarray  # int64, one more than there are factors
    edge_var: np.ndarray  # int64 variable index per edge
    p0: np.ndarray  # float64 leak per factor
    stmt_vars: dict = field(default_factory=dict)  # sid -> var index

    @property
    def factors(self):
        return Factors(self)

    def max_factor_degree(self):
        return int(np.diff(self.offsets).max(initial=0))


def classify_p0(sid, program, cfg: RunConfig) -> float:
    """Leak probability for values produced by this statement."""
    info = program.statement_table[sid]
    if info.kind in BOOLEAN_KINDS or info.root_op in BOOLEAN_OPS:
        return cfg.p0_moderate
    if info.root_op == "boollit":
        return cfg.p0_moderate
    return cfg.p0_low


def build_net(ddg, program, cfg: RunConfig | None = None) -> FaultNet:
    """Statement variables come first, in sid order, then one variable per
    value in value order. Each produced value is the child of one factor,
    in value order, whose parents are its statement and its parent values."""
    if cfg is None:
        from .pipeline import RunConfig  # pipeline imports this module
        cfg = RunConfig()
    n_stmts = len(ddg.statement_nodes)
    produced = ddg.producer >= 0
    # Test inputs are correct by construction.
    prior = np.concatenate((np.full(n_stmts, cfg.statement_prior),
                            np.where(produced, 0.5, 1.0)))
    children = np.flatnonzero(produced)
    stmts = np.searchsorted(np.array(ddg.statement_nodes, np.int64),
                            ddg.producer[children])
    arity = np.diff(ddg.parent_start)[children] + 2
    offsets = np.zeros(len(children) + 1, np.int64)
    np.cumsum(arity, out=offsets[1:])
    edge_var = np.empty(offsets[-1], np.int64)
    is_parent = np.ones(len(edge_var), bool)
    is_parent[offsets[:-1]] = is_parent[offsets[:-1] + 1] = False
    edge_var[offsets[:-1]] = n_stmts + children
    edge_var[offsets[:-1] + 1] = stmts
    # input values have no parents, so the flat parent array is exactly
    # the factors' value parents, factor by factor
    edge_var[is_parent] = n_stmts + ddg.parents
    p0_by_stmt = np.array([classify_p0(sid, program, cfg)
                           for sid in ddg.statement_nodes], np.float64)

    evidence = np.full(len(prior), -1, np.int8)
    for idx, outcome in ddg.evidence_anchors:
        if evidence[n_stmts + idx] == (not outcome):
            test, vid = ddg.value_key(idx)
            raise ConflictingEvidence(
                f"V{vid}@{test} observed both correct and incorrect")
        evidence[n_stmts + idx] = outcome
    return FaultNet(prior, evidence, offsets, edge_var, p0_by_stmt[stmts],
                    dict(zip(ddg.statement_nodes, range(n_stmts))))
