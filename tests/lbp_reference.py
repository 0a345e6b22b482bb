"""Oracles for the inference tests.

`run_reference` is the tuple-per-message flooding engine semfl shipped
before the edge-array engine in `semfl.inference`, kept unchanged. Each
message is a (correct, incorrect) tuple updated by plain Python
arithmetic, one variable and one factor at a time. The array engine sums
logarithms instead, so it must reproduce the marginals to within float64
rounding (the tests allow 1e-9) and the iteration counts and convergence
flags exactly. Its raw products underflow on variables of high degree, so
it is an oracle for small nets only. With `naive=True` its factor messages
enumerate every assignment of the factor's other variables
(`factor_to_var_naive`) instead of using the closed form.

`exact_marginals` enumerates every joint state of a net's variables: the
exact posteriors, for nets of at most about 20 variables.
"""

from __future__ import annotations

import itertools

import numpy as np

from semfl.inference import InferenceResult
from semfl.model import FaultNet
from semfl.pipeline import RunConfig

_HALF = (0.5, 0.5)
# Largest factor the naive messages enumerate: 2**19 assignments each.
NAIVE_DEGREE_CAP = 20


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


def exact_marginals(net: FaultNet, cap: int = 20) -> np.ndarray:
    """Exact posterior P(correct) per variable by joint enumeration."""
    n = len(net.prior)
    if n > cap:
        raise ValueError(
            f"{n} variables exceed the exact-enumeration cap {cap}")
    prior, evidence = net.prior.tolist(), net.evidence.tolist()
    edge_var, offsets = net.edge_var.tolist(), net.offsets.tolist()
    factors = [(edge_var[lo], edge_var[lo + 1:hi], p0)
               for lo, hi, p0 in zip(offsets, offsets[1:], net.p0.tolist())]
    children = {child for child, _, _ in factors}
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
        for child, parents, p0 in factors:
            weight *= _cpd(p0, bits[child], [bits[p] for p in parents])
            if weight == 0.0:
                break
        if weight == 0.0:
            continue
        total += weight
        for v in range(n):
            if bits[v]:
                acc[v] += weight
    if total == 0.0:
        raise ValueError("evidence has zero probability under the model")
    return np.array(acc) / total


def _base_message(prior, evidence):
    if evidence >= 0:
        return (1.0, 0.0) if evidence else (0.0, 1.0)
    return (prior, 1.0 - prior)


class _Engine:
    def __init__(self, net: FaultNet, cfg: RunConfig, naive: bool):
        self.cfg = cfg
        self.naive = naive
        if naive:
            deg = net.max_factor_degree()
            if deg > NAIVE_DEGREE_CAP:
                raise ValueError(
                    f"factor of degree {deg} exceeds the naive-mode cap "
                    f"of {NAIVE_DEGREE_CAP}")
        self.factors = net.factors
        self.evidence = net.evidence.tolist()
        # incident[v] = [(factor index, position in [child] + parents)]
        self.incident = [[] for _ in self.evidence]
        for a, fac in enumerate(self.factors):
            for pos, v in enumerate([fac.child] + fac.parents):
                self.incident[v].append((a, pos))
        self.f2v = [[_HALF] * (len(f.parents) + 1) for f in self.factors]
        self.v2f = [[_HALF] * (len(f.parents) + 1) for f in self.factors]
        self.base = [_base_message(p, e)
                     for p, e in zip(net.prior.tolist(), self.evidence)]

    def _update_v2f(self):
        for v, inc in enumerate(self.incident):
            if not inc:
                continue
            if self.evidence[v] >= 0:
                msg = self.base[v]
                for a, pos in inc:
                    self.v2f[a][pos] = msg
                continue
            msgs = [self.f2v[a][pos] for a, pos in inc]
            n = len(msgs)
            # Exclude-one products via prefix/suffix sweeps.
            pre = [(1.0, 1.0)] * (n + 1)
            for i, (mt, mf) in enumerate(msgs):
                pre[i + 1] = (pre[i][0] * mt, pre[i][1] * mf)
            suf = [(1.0, 1.0)] * (n + 1)
            for i in range(n - 1, -1, -1):
                mt, mf = msgs[i]
                suf[i] = (suf[i + 1][0] * mt, suf[i + 1][1] * mf)
            bt, bf = self.base[v]
            for i, (a, pos) in enumerate(inc):
                t = bt * pre[i][0] * suf[i + 1][0]
                f = bf * pre[i][1] * suf[i + 1][1]
                self.v2f[a][pos] = _normalize(t, f)

    def _update_f2v(self):
        delta = 0.0
        for a, fac in enumerate(self.factors):
            inbox = self.v2f[a]
            old = self.f2v[a]
            new = [None] * len(inbox)
            if self.naive:
                for pos in range(len(inbox)):
                    new[pos] = factor_to_var_naive(fac.p0, inbox, pos)
            else:
                parents = inbox[1:]
                n = len(parents)
                pre = [1.0] * (n + 1)
                for i, (mt, _) in enumerate(parents):
                    pre[i + 1] = pre[i] * mt
                suf = [1.0] * (n + 1)
                for i in range(n - 1, -1, -1):
                    suf[i] = suf[i + 1] * parents[i][0]
                p0 = fac.p0
                t = (1.0 - p0) * pre[n] + p0
                f = (1.0 - p0) * (1.0 - pre[n])
                new[0] = _normalize(t, f)
                ct, cf = inbox[0]
                b = p0 * ct + (1.0 - p0) * cf
                for i in range(n):
                    t = (ct - b) * pre[i] * suf[i + 1] + b
                    new[i + 1] = _normalize(t, b)
            for pos, msg in enumerate(new):
                delta = max(delta, abs(msg[0] - old[pos][0]),
                            abs(msg[1] - old[pos][1]))
                old[pos] = msg
        return delta

    def run(self) -> InferenceResult:
        converged = False
        iterations = 0
        for it in range(1, self.cfg.max_iterations + 1):
            iterations = it
            self._update_v2f()
            delta = self._update_f2v()
            if delta < self.cfg.convergence_eps:
                converged = True
                break
        marginals = []
        for v, evidence in enumerate(self.evidence):
            if evidence >= 0:
                marginals.append(1.0 if evidence else 0.0)
                continue
            t, f = self.base[v]
            for a, pos in self.incident[v]:
                mt, mf = self.f2v[a][pos]
                t *= mt
                f *= mf
                if t + f > 0.0:
                    t, f = _normalize(t, f)
            marginals.append(_normalize(t, f)[0])
        log = [f"belief propagation: {iterations} iterations, "
               f"{'converged' if converged else 'did not converge'}"]
        return InferenceResult(np.array(marginals), converged, iterations,
                               log)


def run_reference(net: FaultNet, cfg: RunConfig | None = None,
                  naive: bool = False) -> InferenceResult:
    """The reference engine's result with cfg's iteration cap and
    convergence threshold; `naive` enumerates its factor messages."""
    return _Engine(net, cfg or RunConfig(), naive).run()
