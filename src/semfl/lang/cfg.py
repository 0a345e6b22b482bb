"""Immediate post-dominators over a function's control flow."""

from __future__ import annotations

from . import ast as A

EXIT = -1  # synthetic exit node shared by return/throw/fall-through paths


def immediate_postdominators(fn: A.FunctionDef) -> dict:
    """Map each statement id of `fn` to its immediate post-dominator, EXIT
    for none: an iterative post-dominance fixed point over the function's
    control-flow graph."""
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

    link_block(fn.body, EXIT, None)
    nodes = sorted(succ)
    pdom = {n: {EXIT, *nodes} for n in nodes}
    pdom[EXIT] = {EXIT}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            new = set.intersection(*[pdom[s] for s in succ[n]]) | {n}
            if new != pdom[n]:
                pdom[n] = new
                changed = True
    # Strict post-dominators are totally ordered; the immediate one has the
    # largest post-dominator set.
    return {n: max(pdom[n] - {n}, key=lambda c: len(pdom[c])) for n in nodes}
