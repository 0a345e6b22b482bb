"""Loopy belief propagation over the fault network.

The network is bipartite: variables on one side, noisy-conjunction factors
on the other. The engine runs on the network's own arrays (`FaultNet`):
priors, evidence, factor offsets, one variable per factor edge and one
leak per factor. Messages are length-2 vectors over (correct, incorrect),
normalized after every update. Each side of an iteration is one flat pass
over the edge arrays that multiplies messages as sums of logarithms, so no
degree makes a product underflow. Factor messages have a closed form that
is linear in the factor degree (`_factor_messages`). The enumeration
oracles it is checked against live in the tests (`tests/lbp_reference.py`).

What a net fixes is built once per run: the factor of each edge, 1 - p0,
the prior log-odds and the exact zeros that priors and evidence set. A
round does only the work that depends on the messages; exact zeros in
messages are still counted apart, but only in rounds that have them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .model import FaultNet

if TYPE_CHECKING:
    from .pipeline import RunConfig


@dataclass
class InferenceResult:
    marginals: np.ndarray  # float64 P(correct) per variable
    converged: bool
    iterations: int
    log: list = field(default_factory=list)
    # Normalisations that fell back to (0.5, 0.5) because both entries
    # were zero.
    fallbacks: int = 0
    # the largest change of any message, per iteration
    residuals: list = field(default_factory=list)


class _Factors:
    """A net's factor structure, built once per net: factor a has the edges
    starts[a]:starts[a + 1] (the last up to the end), its child first, and
    `factor` names the factor of every edge. q is 1 - p0."""

    def __init__(self, offsets, p0):
        self.starts, self.p0, self.q = offsets[:-1], p0, 1.0 - p0
        self.factor = np.repeat(np.arange(len(p0)), np.diff(offsets))


def _factor_messages(fs: _Factors, v2f_t, v2f_f):
    """Closed-form messages of the noisy-conjunction factors `fs` on the
    flat edge arrays, whose variables send v2f_t and v2f_f. Returns the
    unnormalised messages back, two arrays with one entry per edge, and
    overwrites v2f_t.

    Summed over parent assignments, the message to the child depends only
    on the product of the parents' correct-components. For a parent,
    every assignment of the others but the all-correct one gives the same
    constant b, so it needs only the product of the other parents'. Both
    come from one sum of logarithms per factor, less the edge's own term;
    parents' exact zeros are masked and counted apart, only when some
    parent sends one."""
    starts, factor = fs.starts, fs.factor
    child_t = v2f_t[starts]
    b = fs.p0 * child_t + fs.q * v2f_f[starts]
    log_t = v2f_t
    log_t[starts] = 1.0  # the child is not a parent: its logarithm is 0
    zero = None if log_t.all() else log_t == 0.0
    # a zero's logarithm stays 0: the zero is counted apart
    np.log(log_t, out=log_t, where=True if zero is None else ~zero)
    total = np.add.reduceat(log_t, starts)
    all_true = np.exp(total)
    # each parent's product of the other parents, in its logarithm's buffer
    others = np.subtract(total[factor], log_t, out=log_t)
    np.exp(others, out=others)
    if zero is not None:  # a zero makes every product it is in zero
        zeros = np.add.reduceat(zero, starts, dtype=np.int64)
        all_true[zeros > 0] = 0.0
        others[zeros[factor] > zero] = 0.0
    to_f = b[factor]
    to_t = (child_t - b)[factor]
    to_t *= others
    to_t += to_f
    to_t[starts] = fs.q * all_true + fs.p0
    to_f[starts] = fs.q * (1.0 - all_true)
    return to_t, to_f


def _log_odds(t, f):
    """log t - log f per message, 0 where t or f is exactly zero; those
    entries are flagged in the two masks returned with it instead."""
    zt, zf = t == 0.0, f == 0.0
    finite = ~(zt | zf)
    odds = np.log(t, out=np.zeros_like(t), where=finite)
    odds -= np.log(f, out=np.zeros_like(f), where=finite)
    return odds, zt, zf


def _logistic(odds):
    """Normalised (t, f) with log-odds `odds`: (1, 0) at +inf and (0, 1) at
    -inf. Overwrites odds; it makes three more arrays of its length."""
    up = odds >= 0.0
    # e^-|x| / (1 + e^-|x|) and 1 / (1 + e^-|x|) never overflow
    small = np.abs(odds, out=odds)
    np.negative(small, out=small)
    np.exp(small, out=small)
    large = np.add(small, 1.0)
    np.divide(1.0, large, out=large)
    small *= large
    # t is the larger where up, f the smaller
    t = np.where(up, large, small)
    np.copyto(large, small, where=up)
    return t, large


class _Engine:
    """Flooding LBP on the network's edge arrays, used as they are.

    Edge e = offsets[a] + pos joins factor a to its variable edge_var[e]
    at `pos` (0 is the child). Each edge has a message each way, over
    (correct, incorrect), in float64 arrays (the variables' only for one
    iteration), and each side of an iteration is one pass over all edges.
    A free variable's message on an edge is the log-odds sum of its prior
    and incoming messages (`np.bincount` on `edge_var`) less the edge's
    own term, through the logistic function; the marginals come from the
    same sums. Exact zeros are counted apart, so certain messages stay
    certain, and a message falls back to (0.5, 0.5), counted in
    `fallbacks`, only where certain messages contradict each other.
    Results are float64-close to, not bit-identical with, the probability
    products of the reference engine kept in the tests.

    What does not change between rounds is built once per net: the factor
    structure (`_Factors`), the prior log-odds, and the zeros that priors
    and evidence fix, as counts per variable (`fixed`) and as the
    variables they make certain (`certain`). A round whose factor
    messages hold no exact zero uses those: each edge of a certain
    variable inherits its certainty from the variable's sum, so the round
    masks and counts nothing per edge. Only a round with an exact zero
    counts the zeros of every message, and the factor side counts its
    parents' zeros only when a parent sends one.
    """

    def __init__(self, net: FaultNet, cfg: RunConfig):
        self.cfg = cfg
        self.factors = _Factors(net.offsets, net.p0)
        self.edge_var, self.n = net.edge_var, len(net.prior)
        self.observed = net.evidence >= 0
        bt = np.where(self.observed, net.evidence, net.prior)
        self.base_odds, *zeros = _log_odds(bt, 1.0 - bt)
        # Evidence holds whatever the messages say: an observed variable
        # counts more zeros than it has edges on the side it rules out.
        clamp = len(self.edge_var) + 1
        self.fixed = [np.where(self.observed, z * clamp, z) for z in zeros]
        self.certain = [z > 0 for z in self.fixed]
        self.f2v_t = np.full(len(self.edge_var), 0.5)
        self.f2v_f = np.full(len(self.edge_var), 0.5)
        self.fallbacks = 0

    def _normalize(self, t, f):
        """t / (t + f) and f / (t + f); (0.5, 0.5), counted, if both are 0.
        Overwrites t and f and returns them."""
        s = t + f
        zero = s <= 0.0
        fallbacks = int(np.count_nonzero(zero))
        if fallbacks:
            self.fallbacks += fallbacks
            np.copyto(t, 0.5, where=zero)
            np.copyto(f, 0.5, where=zero)
            np.copyto(s, 1.0, where=zero)
        t /= s
        f /= s
        return t, f

    def _pin(self, odds, zt, zf):
        """Log-odds -inf where zt and +inf where zf; where both, certain
        messages contradict each other, and the log-odds is 0, the counted
        fallback (0.5, 0.5)."""
        np.copyto(odds, np.inf, where=zf)
        np.copyto(odds, -np.inf, where=zt)
        both = np.logical_and(zt, zf)
        fallbacks = int(np.count_nonzero(both))
        if fallbacks:
            self.fallbacks += fallbacks
            np.copyto(odds, 0.0, where=both)

    def _total(self, odds):
        """Per variable, the log-odds of its prior times all its incoming
        messages, from the messages' log-odds."""
        return np.bincount(self.edge_var, odds, self.n) + self.base_odds

    def _sums(self):
        """The log-odds of each factor-to-variable message with its zero
        masks, and per variable the log-odds of its prior times all its
        incoming messages, with counts of the zero components."""
        odds, zt, zf = _log_odds(self.f2v_t, self.f2v_f)
        counts = [np.where(self.observed, fixed,
                           np.bincount(self.edge_var, z, self.n) + fixed)
                  for z, fixed in zip((zt, zf), self.fixed)]
        return (odds, zt, zf), (self._total(odds), *counts)

    def _v2f(self):
        t, f, ev = self.f2v_t, self.f2v_f, self.edge_var
        if t.all() and f.all():
            # no certain message: only priors and evidence make a
            # variable certain, and then on all its edges
            odds = np.log(t)
            odds -= np.log(f)
            total = self._total(odds)
            self._pin(total, *self.certain)
            np.subtract(total[ev], odds, out=odds)
        else:
            (odds, zt, zf), (total, nzt, nzf) = self._sums()
            # each edge's sums less its own term, in the buffers of its term
            np.subtract(total[ev], odds, out=odds)
            self._pin(odds, np.greater(nzt[ev], zt, out=zt),
                      np.greater(nzf[ev], zf, out=zf))
        return _logistic(odds)

    def _iterate(self) -> float:
        """One flooding round; returns the largest message change."""
        new_t, new_f = self._normalize(*_factor_messages(
            self.factors, *self._v2f()))
        delta = max(np.abs(new_t - self.f2v_t).max(initial=0.0),
                    np.abs(new_f - self.f2v_f).max(initial=0.0))
        self.f2v_t, self.f2v_f = new_t, new_f
        return float(delta)

    def _marginals(self) -> np.ndarray:
        _, (total, nzt, nzf) = self._sums()
        self._pin(total, nzt > 0, nzf > 0)
        return _logistic(total)[0]

    def run(self) -> InferenceResult:
        converged = False
        iterations = 0
        residuals = []
        for it in range(1, self.cfg.max_iterations + 1):
            iterations = it
            residuals.append(self._iterate())
            if residuals[-1] < self.cfg.convergence_eps:
                converged = True
                break
        marginals = self._marginals()
        log = [f"belief propagation: {iterations} iterations, "
               f"{'converged' if converged else 'did not converge'}"]
        return InferenceResult(marginals, converged, iterations, log,
                               self.fallbacks, residuals)


def run_lbp(net: FaultNet, cfg: RunConfig | None = None) -> InferenceResult:
    """Flooding LBP with cfg's iteration cap and convergence threshold
    (RunConfig's defaults when cfg is None)."""
    if cfg is None:
        from .pipeline import RunConfig  # pipeline imports this module
        cfg = RunConfig()
    return _Engine(net, cfg).run()
