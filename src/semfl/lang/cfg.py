"""Per-function control-flow graphs and post-dominators."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast as A

EXIT = -1  # synthetic exit node shared by return/throw/fall-through paths


@dataclass
class ControlFlowGraph:
    entry: int
    nodes: list = field(default_factory=list)  # statement ids plus EXIT
    succ: dict = field(default_factory=dict)  # node -> list of successor nodes
    ipostdom: dict = field(default_factory=dict)  # node -> immediate post-dominator


def build_cfg(fn: A.FunctionDef) -> ControlFlowGraph:
    succ = {}

    def link_block(stmts, follow, catch_target):
        entry = follow
        for s in reversed(stmts):
            entry = link_stmt(s, entry, catch_target)
        return entry

    def link_stmt(s, follow, catch_target):
        if isinstance(s, A.Try):
            handler_entry = link_block(s.handler, follow, catch_target)
            return link_block(s.body, follow, handler_entry)
        if isinstance(s, A.Return):
            succ[s.sid] = [EXIT]
        elif isinstance(s, A.Throw):
            succ[s.sid] = [catch_target if catch_target is not None else EXIT]
        elif isinstance(s, A.If):
            then_entry = link_block(s.then, follow, catch_target)
            else_entry = link_block(s.orelse, follow, catch_target)
            succ[s.sid] = [then_entry] if then_entry == else_entry else [then_entry, else_entry]
        elif isinstance(s, A.While):
            body_entry = link_block(s.body, s.sid, catch_target)
            succ[s.sid] = [body_entry, follow] if body_entry != follow else [follow]
        else:
            succ[s.sid] = [follow]
        return s.sid

    entry = link_block(fn.body, EXIT, None)
    succ[EXIT] = []
    cfg = ControlFlowGraph(entry=entry, nodes=sorted(succ), succ=succ)
    return compute_postdominators(cfg)


def compute_postdominators(cfg: ControlFlowGraph) -> ControlFlowGraph:
    """Iterative post-dominance fixed point; fills ipostdom."""
    nodes = [n for n in cfg.nodes if n != EXIT]
    pdom = {EXIT: {EXIT}}
    for n in nodes:
        pdom[n] = set(cfg.nodes)
    changed = True
    while changed:
        changed = False
        for n in nodes:
            succ_sets = [pdom[s] for s in cfg.succ[n]]
            new = set.intersection(*succ_sets) if succ_sets else set()
            new = new | {n}
            if new != pdom[n]:
                pdom[n] = new
                changed = True

    cfg.ipostdom = {}
    for n in nodes:
        strict = pdom[n] - {n}
        # Strict post-dominators are totally ordered; the immediate one has
        # the largest post-dominator set.
        cfg.ipostdom[n] = max(strict, key=lambda c: len(pdom[c]))

    return cfg
