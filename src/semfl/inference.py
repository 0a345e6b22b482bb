"""Loopy belief propagation over the fault network.

The network is bipartite: variables on one side, noisy-conjunction factors
on the other. The engine runs on the network's own arrays (`FaultNet`):
priors, evidence, factor offsets, one variable per factor edge and one
leak per factor. Messages are length-2 vectors over (correct, incorrect),
normalized after every update. Each side of an iteration is one flat pass
over the edge arrays that multiplies messages as sums of logarithms, so no
degree makes a product underflow. Factor messages have a closed form that
is linear in the factor degree (`factor_messages`). The enumeration
oracles it is checked against live in the tests (`tests/lbp_reference.py`).
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


def factor_messages(p0, offsets, v2f_t, v2f_f):
    """Closed-form messages of noisy-conjunction factors on the flat edge
    arrays: factor a, with leak p0[a], has the edges offsets[a]:offsets[a +
    1], its child first, whose variables send v2f_t and v2f_f. Returns the
    unnormalised messages back, two arrays with one entry per edge.

    Summed over parent assignments, the message to the child depends only
    on the product of the parents' correct-components. For a parent,
    every assignment of the others but the all-correct one gives the same
    constant b, so it needs only the product of the other parents'. Both
    come from one sum of logarithms per factor, less the edge's own term,
    with exact zeros counted apart."""
    starts, arity = offsets[:-1], np.diff(offsets)
    zero = v2f_t == 0.0
    log_t = np.log(v2f_t, out=np.zeros_like(v2f_t), where=~zero)
    log_t[starts] = 0.0  # the child is not a parent
    zero[starts] = False
    total = np.add.reduceat(log_t, starts)
    zeros = np.add.reduceat(zero, starts, dtype=np.int64)
    q = 1.0 - p0
    all_true = np.where(zeros > 0, 0.0, np.exp(total))
    others = np.repeat(total, arity)
    others -= log_t
    np.exp(others, out=others)
    others[np.repeat(zeros, arity) > zero] = 0.0
    del log_t, zero  # two edge arrays fewer while the messages are made
    child_t = v2f_t[starts]
    b = p0 * child_t + q * v2f_f[starts]
    to_f = np.repeat(b, arity)
    to_t = np.repeat(child_t - b, arity)
    to_t *= others
    to_t += to_f
    to_t[starts] = q * all_true + p0
    to_f[starts] = q * (1.0 - all_true)
    return to_t, to_f


def _log_odds(t, f):
    """log t - log f per message, 0 where t or f is exactly zero; those
    entries are flagged in the two masks returned with it instead."""
    zt, zf = t == 0.0, f == 0.0
    finite = ~(zt | zf)
    odds = np.log(t, out=np.zeros_like(t), where=finite)
    odds -= np.log(f, out=np.zeros_like(f), where=finite)
    return odds, zt, zf


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
    """

    def __init__(self, net: FaultNet, cfg: RunConfig):
        self.cfg = cfg
        self.offsets, self.p0 = net.offsets, net.p0
        self.prior, self.edge_var = net.prior, net.edge_var
        self.observed = net.evidence >= 0
        bt = np.where(self.observed, net.evidence, self.prior)
        self.base = _log_odds(bt, 1.0 - bt)
        # Evidence holds whatever the messages say: an observed variable
        # counts more zeros than it has edges on the side it rules out.
        self.clamp = [np.where(z, len(self.edge_var) + 1, 0)[self.observed]
                      for z in self.base[1:]]
        self.f2v_t = np.full(len(self.edge_var), 0.5)
        self.f2v_f = np.full(len(self.edge_var), 0.5)
        self.fallbacks = 0

    def _normalize(self, t, f):
        """t / (t + f) and f / (t + f); (0.5, 0.5), counted, if both are 0.
        Overwrites t and f."""
        s = t + f
        zero = s <= 0.0
        self.fallbacks += int(np.count_nonzero(zero))
        np.copyto(t, 0.5, where=zero)
        np.copyto(f, 0.5, where=zero)
        np.copyto(s, 1.0, where=zero)
        return t / s, f / s

    def _logistic(self, odds, zt, zf):
        """Normalised (t, f) with log-odds `odds`: (0, 1) where zt, (1, 0)
        where zf, and the counted fallback (0.5, 0.5) where both.
        Overwrites all three; it makes two more arrays of their length."""
        np.copyto(odds, np.inf, where=zf)
        np.copyto(odds, -np.inf, where=zt)
        both = np.logical_and(zt, zf, out=zf)
        self.fallbacks += int(np.count_nonzero(both))
        np.copyto(odds, 0.0, where=both)
        up = np.greater_equal(odds, 0.0, out=zt)
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

    def _sums(self):
        """The log-odds of each factor-to-variable message with its zero
        masks, and per variable the log-odds of its prior times all its
        incoming messages, with counts of the zero components."""
        odds, zt, zf = _log_odds(self.f2v_t, self.f2v_f)
        base_odds, base_zt, base_zf = self.base
        ev, n = self.edge_var, len(self.prior)
        total = np.bincount(ev, odds, n) + base_odds
        nzt = np.bincount(ev, zt, n) + base_zt
        nzf = np.bincount(ev, zf, n) + base_zf
        nzt[self.observed], nzf[self.observed] = self.clamp
        return (odds, zt, zf), (total, nzt, nzf)

    def _v2f(self):
        (odds, zt, zf), (total, nzt, nzf) = self._sums()
        ev = self.edge_var
        # each edge's sums less its own term, in the buffers of its term
        np.subtract(total[ev], odds, out=odds)
        np.greater(nzt[ev], zt, out=zt)
        np.greater(nzf[ev], zf, out=zf)
        return self._logistic(odds, zt, zf)

    def _iterate(self) -> float:
        """One flooding round; returns the largest message change."""
        new_t, new_f = self._normalize(*factor_messages(
            self.p0, self.offsets, *self._v2f()))
        delta = max(np.abs(new_t - self.f2v_t).max(initial=0.0),
                    np.abs(new_f - self.f2v_f).max(initial=0.0))
        self.f2v_t, self.f2v_f = new_t, new_f
        return float(delta)

    def _marginals(self) -> np.ndarray:
        _, (total, nzt, nzf) = self._sums()
        t, _ = self._logistic(total, nzt > 0, nzf > 0)
        return t

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
