"""Reference LBP engine for the equivalence tests.

This is the tuple-per-message flooding engine semfl shipped before the
edge-array engine in `semfl.inference`, kept unchanged. Each message is a
(correct, incorrect) tuple updated by plain Python arithmetic, one
variable and one factor at a time. The array engine sums logarithms
instead, so it must reproduce the marginals to within float64 rounding
(the tests allow 1e-9) and the iteration counts and convergence flags
exactly. Its raw products underflow on variables of high degree, so it is
an oracle for small nets only.
"""

from __future__ import annotations

import numpy as np

from semfl.errors import DegreeTooLarge
from semfl.inference import NAIVE_DEGREE_CAP, InferenceResult, factor_to_var_naive
from semfl.model import FaultNet
from semfl.pipeline import RunConfig

_HALF = (0.5, 0.5)


def _normalize(t, f):
    s = t + f
    if s <= 0.0:
        return _HALF
    return (t / s, f / s)


def _base_message(prior, evidence):
    if evidence >= 0:
        return (1.0, 0.0) if evidence else (0.0, 1.0)
    return (prior, 1.0 - prior)


class _Engine:
    def __init__(self, net: FaultNet, cfg: RunConfig):
        self.cfg = cfg
        if cfg.mode == "naive":
            deg = net.max_factor_degree()
            if deg > NAIVE_DEGREE_CAP:
                raise DegreeTooLarge(
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
        naive = self.cfg.mode == "naive"
        for a, fac in enumerate(self.factors):
            inbox = self.v2f[a]
            old = self.f2v[a]
            new = [None] * len(inbox)
            if naive:
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


def run_reference(net: FaultNet, cfg: RunConfig | None = None) -> InferenceResult:
    return _Engine(net, cfg or RunConfig()).run()
