"""Loopy belief propagation over the fault network.

The network is bipartite: variables on one side, noisy-conjunction factors
on the other. The engine runs on the network's own arrays (`FaultNet`):
priors, evidence, factor offsets, one variable per factor edge and one
leak per factor. Messages are length-2 vectors over (correct, incorrect),
normalized after every update. Factor messages have a closed form that is
linear in the factor degree (`factor_messages`); a naive enumeration
variant and an exact joint-enumeration oracle exist for cross-checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegreeTooLarge, TooLarge
from .model import FaultNet

if TYPE_CHECKING:
    from .pipeline import RunConfig

_HALF = (0.5, 0.5)
# Largest factor naive mode enumerates: 2**19 assignments per message.
NAIVE_DEGREE_CAP = 20


@dataclass
class InferenceResult:
    marginals: dict  # variable index -> P(correct)
    converged: bool
    iterations: int
    log: list = field(default_factory=list)
    # Normalisations that fell back to (0.5, 0.5) because both entries
    # were zero. Naive mode's enumerated factor messages are not counted.
    fallbacks: int = 0
    # the largest change of any message, per iteration
    residuals: list = field(default_factory=list)

    def p_faulty(self, idx):
        return 1.0 - self.marginals[idx]


def _normalize(t, f):
    s = t + f
    if s <= 0.0:
        return _HALF
    return (t / s, f / s)


def _cpd(p0, child_val, parent_vals):
    if all(parent_vals):
        return 1.0 if child_val else 0.0
    return p0 if child_val else 1.0 - p0


def factor_to_var_naive(p0, msgs, target_pos) -> tuple:
    """Brute-force message: enumerate every assignment of the other
    variables attached to the factor. msgs[0] is the child's message."""
    n = len(msgs)
    others = [i for i in range(n) if i != target_pos]
    out = [0.0, 0.0]
    for combo in itertools.product((True, False), repeat=len(others)):
        weight = 1.0
        for i, val in zip(others, combo):
            weight *= msgs[i][0] if val else msgs[i][1]
        vals = [None] * n
        for i, val in zip(others, combo):
            vals[i] = val
        for target_val in (True, False):
            vals[target_pos] = target_val
            p = _cpd(p0, vals[0], vals[1:])
            out[0 if target_val else 1] += weight * p
    return _normalize(out[0], out[1])


def _running_products(msgs):
    """Per row of a 2-D array, pre[:, i] is the product of msgs[:, :i] and
    suf[:, i] the product of msgs[:, i:]. Each is a running product from
    1.0, one factor at a time (suffixes from the right end)."""
    ones = np.ones((len(msgs), 1))
    pre = np.cumprod(np.concatenate((ones, msgs), axis=1), axis=1)
    suf = np.cumprod(np.concatenate((ones, msgs[:, ::-1]), axis=1),
                     axis=1)[:, ::-1]
    return pre, suf


def factor_messages(p0, child_t, child_f, parent_t):
    """Closed-form messages of noisy-conjunction factors with k parents,
    one factor per row. p0 has shape (m,), child_t and child_f are the
    (m,) messages the children send, and parent_t holds the (m, k)
    correct-components the parents send. Returns the unnormalised
    messages to the children, two (m,) arrays, and to the parents, two
    (m, k) arrays.

    Summed over parent assignments, the message to the child depends only
    on the product of the parents' correct-components. For a parent,
    every assignment of the others but the all-correct one gives the same
    constant b."""
    q = 1.0 - p0
    pre, suf = _running_products(parent_t)
    all_true = pre[:, -1]
    b = (p0 * child_t + q * child_f)[:, None]
    to_parent_t = (child_t[:, None] - b) * pre[:, :-1] * suf[:, 1:] + b
    return (q * all_true + p0, q * (1.0 - all_true),
            to_parent_t, np.broadcast_to(b, to_parent_t.shape))


class _Engine:
    """Flooding LBP on the network's edge arrays, used as they are.

    Edge e = offsets[a] + pos joins factor a to its variable edge_var[e]
    at `pos` (0 is the child), so a variable's edges in increasing order
    are its incident edges by factor, then position. Each edge has a
    message each way, over (correct, incorrect), in four float64 arrays.
    Factors are grouped by arity and free variables by degree into (m, k)
    matrices of edge indices, so an iteration is a few numpy calls per
    group.

    The arithmetic is that of a tuple-per-message engine, in the same
    order: exclude-one products as prefix times suffix running products,
    (0.5, 0.5) when a normalisation sums to zero, and marginals multiplied
    in edge by edge with a normalisation after each. Posteriors, iteration
    counts and logs therefore match that engine, kept in the tests as the
    reference, bit for bit, underflow on high-degree variables included.
    """

    def __init__(self, net: FaultNet, cfg: RunConfig):
        self.cfg = cfg
        if cfg.mode == "naive":
            deg = net.max_factor_degree()
            if deg > NAIVE_DEGREE_CAP:
                raise DegreeTooLarge(
                    f"factor of degree {deg} exceeds the naive-mode cap "
                    f"of {NAIVE_DEGREE_CAP}")
        self.offsets, self.p0 = net.offsets, net.p0
        self.prior, self.evidence = net.prior, net.evidence
        edge_var = net.edge_var
        arity = np.diff(self.offsets)
        self.factor_groups = []
        for k in np.unique(arity):
            rows = np.flatnonzero(arity == k)
            edges = self.offsets[rows, None] + np.arange(k)
            self.factor_groups.append((edges, self.p0[rows]))

        observed = self.evidence >= 0
        bt = np.where(observed, self.evidence, self.prior)
        bf = 1.0 - bt
        degree = np.bincount(edge_var, minlength=len(self.prior))
        # the edges of variable v are incident[start[v]:start[v + 1]]
        self.incident = np.argsort(edge_var, kind="stable")
        self.start = np.zeros(len(self.prior) + 1, np.int64)
        np.cumsum(degree, out=self.start[1:])
        free = ~observed & (degree > 0)
        self.var_groups = []
        for d in np.unique(degree[free]):
            vs = np.flatnonzero(free & (degree == d))
            edges = self.incident[self.start[vs, None] + np.arange(d)]
            self.var_groups.append((edges, bt[vs, None], bf[vs, None]))

        self.f2v_t = np.full(len(edge_var), 0.5)
        self.f2v_f = np.full(len(edge_var), 0.5)
        # Observed variables send their clamped evidence on every edge.
        self.v2f_t = np.where(observed, bt, 0.5)[edge_var]
        self.v2f_f = np.where(observed, bf, 0.5)[edge_var]
        self.fallbacks = 0

    def _normalize(self, t, f):
        s = t + f
        zero = s <= 0.0
        n = int(np.count_nonzero(zero))
        if not n:
            return t / s, f / s
        self.fallbacks += n
        s = np.where(zero, 1.0, s)
        return np.where(zero, 0.5, t / s), np.where(zero, 0.5, f / s)

    def _update_v2f(self):
        for edges, bt, bf in self.var_groups:
            t_pre, t_suf = _running_products(self.f2v_t[edges])
            f_pre, f_suf = _running_products(self.f2v_f[edges])
            self.v2f_t[edges], self.v2f_f[edges] = self._normalize(
                bt * t_pre[:, :-1] * t_suf[:, 1:],
                bf * f_pre[:, :-1] * f_suf[:, 1:])

    def _factor_messages(self):
        new_t = np.empty_like(self.f2v_t)
        new_f = np.empty_like(self.f2v_f)
        v2f_t, v2f_f = self.v2f_t, self.v2f_f
        for edges, p0 in self.factor_groups:
            child, parents = edges[:, 0], edges[:, 1:]
            ct, cf, pt, pf = factor_messages(p0, v2f_t[child], v2f_f[child],
                                             v2f_t[parents])
            new_t[child], new_f[child] = self._normalize(ct, cf)
            new_t[parents], new_f[parents] = self._normalize(pt, pf)
        return new_t, new_f

    def _naive_factor_messages(self):
        vt, vf = self.v2f_t.tolist(), self.v2f_f.tolist()
        offsets = self.offsets.tolist()
        new_t, new_f = [], []
        for lo, hi, p0 in zip(offsets, offsets[1:], self.p0.tolist()):
            inbox = list(zip(vt[lo:hi], vf[lo:hi]))
            for pos in range(hi - lo):
                t, f = factor_to_var_naive(p0, inbox, pos)
                new_t.append(t)
                new_f.append(f)
        return np.array(new_t, np.float64), np.array(new_f, np.float64)

    def _iterate(self) -> float:
        """One flooding round; returns the largest message change."""
        self._update_v2f()
        if self.cfg.mode == "naive":
            new_t, new_f = self._naive_factor_messages()
        else:
            new_t, new_f = self._factor_messages()
        delta = max(np.abs(new_t - self.f2v_t).max(initial=0.0),
                    np.abs(new_f - self.f2v_f).max(initial=0.0))
        self.f2v_t, self.f2v_f = new_t, new_f
        return float(delta)

    def _marginals(self) -> dict:
        f2v_t, f2v_f = self.f2v_t.tolist(), self.f2v_f.tolist()
        incident, start = self.incident.tolist(), self.start.tolist()
        marginals = {}
        for v, (prior, evidence) in enumerate(zip(self.prior.tolist(),
                                                  self.evidence.tolist())):
            if evidence >= 0:
                marginals[v] = 1.0 if evidence else 0.0
                continue
            t, f = prior, 1.0 - prior
            for e in incident[start[v]:start[v + 1]]:
                t *= f2v_t[e]
                f *= f2v_f[e]
                if t + f > 0.0:
                    t, f = _normalize(t, f)
            if t + f <= 0.0:
                self.fallbacks += 1
            marginals[v] = _normalize(t, f)[0]
        return marginals

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
    """Flooding LBP with cfg's mode, iteration cap and convergence
    threshold (RunConfig's defaults when cfg is None)."""
    if cfg is None:
        from .pipeline import RunConfig  # pipeline imports this module
        cfg = RunConfig()
    return _Engine(net, cfg).run()


def exact_marginals(net: FaultNet, cap: int = 20) -> dict:
    """Exact posterior P(correct) per variable by joint enumeration."""
    n = len(net.prior)
    if n > cap:
        raise TooLarge(f"{n} variables exceed the exact-enumeration cap {cap}")
    prior, evidence = net.prior.tolist(), net.evidence.tolist()
    factors = list(net.factors)
    children = {f.child for f in factors}
    total = 0.0
    acc = [0.0] * n
    for bits in itertools.product((True, False), repeat=n):
        weight = 1.0
        ok = True
        for v in range(n):
            if evidence[v] >= 0 and bits[v] != evidence[v]:
                ok = False
                break
            if v not in children:
                weight *= prior[v] if bits[v] else 1.0 - prior[v]
        if not ok or weight == 0.0:
            continue
        for f in factors:
            weight *= _cpd(f.p0, bits[f.child], [bits[p] for p in f.parents])
            if weight == 0.0:
                break
        if weight == 0.0:
            continue
        total += weight
        for v in range(n):
            if bits[v]:
                acc[v] += weight
    if total == 0.0:
        raise TooLarge("evidence has zero probability under the model")
    return {v: acc[v] / total for v in range(n)}
