"""Belief-propagation tests: message-level oracles, equivalence of the
linear-time and enumeration message updates, agreement of the edge-array
engine with the tuple-per-message reference engine, tree exactness against
the joint-enumeration oracle, high-degree exactness against rational
arithmetic, rounds with and without exact-zero messages, and guard
rails."""

import copy
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semfl.inference import _Engine, run_lbp
from semfl import pipeline
from semfl.lang import parse
from semfl.model import build_net
from semfl.pipeline import RunConfig, localize

from helpers import NetBuilder, factor_messages
from lbp_reference import exact_marginals, factor_to_var_naive, run_reference


# --- message-level oracles (hand-computed) ---

def _message(p0, msgs, pos):
    """The engine's closed-form message from one factor to its variable at
    `pos` (0 is the child), on the edge arrays of that one factor,
    normalised. msgs[0] is the child's message, as for
    factor_to_var_naive."""
    to_t, to_f = factor_messages(
        np.array([p0]), np.array([0, len(msgs)]),
        np.array([t for t, _ in msgs]), np.array([f for _, f in msgs]))
    t, f = to_t[pos], to_f[pos]
    return (t / (t + f), f / (t + f))


def test_child_message_all_parents_correct():
    # all parents certainly correct: the child is certainly correct
    assert _message(0.5, [(0.5, 0.5), (1.0, 0.0)], 0) == (1.0, 0.0)


def test_child_message_parent_certainly_wrong():
    # a wrong parent leaves only the leak: (p0, 1 - p0)
    t, f = _message(0.01, [(0.5, 0.5), (0.0, 1.0)], 0)
    assert (t, f) == (pytest.approx(0.01), pytest.approx(0.99))


def test_parent_message_from_correct_child():
    # child certainly correct, p0 = 0.5, no co-parents:
    # unnormalized (1, 0.5) -> (2/3, 1/3)
    t, f = _message(0.5, [(1.0, 0.0), (0.5, 0.5)], 1)
    assert t == pytest.approx(2 / 3)
    assert f == pytest.approx(1 / 3)


def test_parent_message_indifferent_child_is_uninformative():
    for p0 in (0.01, 0.5, 0.9):
        t, f = _message(p0, [(0.5, 0.5), (0.5, 0.5), (0.7, 0.3)], 1)
        assert (t, f) == (0.5, 0.5)


msg = st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)).map(
    lambda p: (p[0] / (p[0] + p[1]), p[1] / (p[0] + p[1])))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.01, 0.5]),
       st.lists(msg, min_size=1, max_size=12),
       st.data())
def test_optimized_messages_match_naive(p0, msgs, data):
    pos = data.draw(st.integers(0, len(msgs) - 1))
    naive = factor_to_var_naive(p0, msgs, pos)
    fast = _message(p0, msgs, pos)
    assert math.isclose(fast[0], naive[0], abs_tol=1e-9)
    assert math.isclose(fast[1], naive[1], abs_tol=1e-9)


# --- random networks ---

def _random_net(seed, n_values=8, n_stmts=3, loopy=True):
    rng = random.Random(seed)
    net = NetBuilder()
    stmts = [net.add_variable(0.5)
             for i in range(n_stmts)]
    values = [net.add_variable(1.0)]
    for i in range(1, n_values):
        v = net.add_variable(0.5)
        stmt = rng.choice(stmts) if loopy else stmts[i % n_stmts]
        k = rng.randint(1, min(3, len(values)))
        parents = [stmt] + rng.sample(values, k)
        net.add_factor(v, parents, rng.choice([0.01, 0.5]))
        values.append(v)
    net.set_evidence(values[-1], rng.random() < 0.5)
    return net.build()


def _chain(seed, length=6):
    """A chain is a tree-shaped factor graph: belief propagation is exact."""
    rng = random.Random(seed)
    net = NetBuilder()
    prev = net.add_variable(1.0)
    for i in range(length):
        s = net.add_variable(rng.uniform(0.2, 0.8))
        v = net.add_variable(0.5)
        net.add_factor(v, [s, prev], rng.choice([0.01, 0.5]))
        prev = v
    net.set_evidence(prev, seed % 2 == 0)
    return net


def _chain_net(seed):
    return _chain(seed).build()


@pytest.mark.parametrize("seed", range(20))
def test_naive_equals_optimized_on_random_nets(seed):
    net = _random_net(seed)
    fast = run_lbp(net, RunConfig())
    slow = run_reference(net, RunConfig(), naive=True)
    assert fast.iterations == slow.iterations
    for v in range(len(fast.marginals)):
        assert math.isclose(fast.marginals[v], slow.marginals[v],
                            abs_tol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_lbp_exact_on_trees(seed):
    net = _chain_net(seed)
    res = run_lbp(net, RunConfig())
    assert res.converged
    exact = exact_marginals(net, cap=20)
    for v in range(len(res.marginals)):
        assert math.isclose(res.marginals[v], exact[v], abs_tol=1e-6)


def test_evidence_marginals_are_clamped():
    net = _chain_net(3)
    res = run_lbp(net)
    for v, evidence in enumerate(net.evidence.tolist()):
        if evidence >= 0:
            assert res.marginals[v] == float(evidence)


def test_inference_is_deterministic():
    a = run_lbp(_random_net(7)).marginals
    b = run_lbp(_random_net(7)).marginals
    assert a.tolist() == b.tolist()


def test_marginals_are_probabilities():
    for seed in range(5):
        res = run_lbp(_random_net(seed, n_values=12))
        for p in res.marginals.tolist():
            assert 0.0 <= p <= 1.0


def test_exact_enumeration_cap():
    net = _random_net(0, n_values=19)
    with pytest.raises(ValueError, match="exceed the exact-enumeration cap"):
        exact_marginals(net, cap=10)


def test_exact_rejects_impossible_evidence():
    net = NetBuilder()
    s = net.add_variable(1.0)
    v0 = net.add_variable(1.0)
    v1 = net.add_variable(0.5)
    net.add_factor(v1, [s, v0], 0.01)
    net.set_evidence(v1, False)  # all parents certain: child cannot be wrong
    with pytest.raises(ValueError, match="zero probability"):
        exact_marginals(net.build())


# --- the edge-array engine against the reference engine ---

def _assert_same_as_reference(net, cfg=None, naive=False):
    """The array engine sums logarithms where the reference multiplies
    probabilities, so marginals agree to float64 rounding, well within
    1e-9 on nets this small, and iteration counts agree exactly. `naive`
    makes the reference enumerate its factor messages."""
    cfg = cfg or RunConfig()
    new, ref = run_lbp(net, cfg), run_reference(net, cfg, naive=naive)
    assert len(new.marginals) == len(ref.marginals)
    for v, p in enumerate(ref.marginals):
        assert math.isclose(new.marginals[v], p, rel_tol=0.0, abs_tol=1e-9)
    assert new.iterations == ref.iterations
    assert new.converged == ref.converged
    assert new.log == ref.log
    assert len(new.residuals) == new.iterations
    assert new.converged == (new.residuals[-1] < cfg.convergence_eps)
    return new


@st.composite
def loopy_nets(draw):
    """Statements shared between values and values shared between factors
    make loops; factor arities run from 1 (no parents) to 5."""
    net = NetBuilder()
    stmts = [net.add_variable(draw(st.floats(0.05, 1.0)))
             for i in range(draw(st.integers(1, 3)))]
    values = [net.add_variable(1.0)]
    for i in range(1, draw(st.integers(2, 10))):
        v = net.add_variable(draw(st.sampled_from([0.5, 1.0])))
        parents = draw(st.lists(st.sampled_from(stmts + values),
                                max_size=4, unique=True))
        net.add_factor(v, parents, draw(st.sampled_from([0.01, 0.5, 0.9])))
        values.append(v)
    for v in draw(st.lists(st.sampled_from(stmts + values), max_size=4,
                           unique=True)):
        net.set_evidence(v, draw(st.booleans()))
    return net.build()


@settings(max_examples=300, deadline=None)
@given(loopy_nets(), st.booleans())
def test_array_engine_equals_reference_on_loopy_nets(net, naive):
    _assert_same_as_reference(net, RunConfig(max_iterations=60), naive)


@pytest.mark.parametrize("seed", range(10))
def test_array_engine_equals_reference_on_random_nets(seed):
    net = _random_net(seed, n_values=30, n_stmts=4)
    _assert_same_as_reference(net)
    _assert_same_as_reference(net, naive=True)


# sums 0..n-1, but doubles every term
SUM_BUG = """
fn total(n) {
    let s = 0;
    let i = 0;
    while (i < n) {
        s = s + i * 2;
        i = i + 1;
    }
    return s;
}

fn test_one() {
    assert(total(1) == 0);
}

fn test_three() {
    assert(total(3) == 3);
}
"""


def test_array_engine_equals_reference_on_a_pipeline_net():
    program = parse(SUM_BUG)
    res = localize(program, RunConfig())
    assert len(res.net.factors) > 10
    _assert_same_as_reference(res.net)


def _star_posteriors(degree, p0):
    """A statement shared by `degree` observed-correct values and by one
    unobserved value w, each produced from the statement alone with leak
    p0. The factor graph is a tree, so belief propagation is exact. Returns
    the net, the statement and w, and their exact P(correct) computed in
    rational arithmetic: given the evidence, the statement is correct with
    odds 1 : p0**degree, and w is correct with probability 1 if it is and
    p0 if not."""
    net = NetBuilder()
    s = net.add_variable(0.5)
    for i in range(degree):
        v = net.add_variable(0.5)
        net.add_factor(v, [s], p0)
        net.set_evidence(v, True)
    w = net.add_variable(0.5)
    net.add_factor(w, [s], p0)
    leak = Fraction(p0)
    p_s = 1 / (1 + leak ** degree)
    p_w = p_s + (1 - p_s) * leak
    return net.build(), (s, w), (float(p_s), float(p_w))


def test_high_degree_statement_does_not_underflow():
    # The statement's message to w's factor is its prior times 2,100
    # messages of about (0.5, 0.5) each: as raw products both components
    # underflow to zero, so an engine that multiplies probabilities falls
    # back to (0.5, 0.5) and gets w's marginal wrong.
    net, variables, exact = _star_posteriors(2_100, 0.9995)
    res = run_lbp(net)
    assert res.converged
    assert res.fallbacks == 0
    for v, p in zip(variables, exact):
        assert math.isclose(res.marginals[v], p, rel_tol=0.0, abs_tol=1e-9)


def test_net_without_factors():
    net = NetBuilder()
    net.add_variable(0.3)
    net.set_evidence(net.add_variable(), False)
    res = _assert_same_as_reference(net.build())
    assert res.marginals.tolist() == [0.3, 0.0]
    assert res.residuals == [0.0]


def test_variable_without_factors():
    net = _chain(4)
    lone = net.add_variable(0.7)
    res = _assert_same_as_reference(net.build())
    assert res.marginals[lone] == 0.7


def test_all_evidence_factors():
    net = NetBuilder()
    s = net.add_variable()
    v0 = net.add_variable(1.0)
    v1 = net.add_variable()
    v2 = net.add_variable()
    net.add_factor(v1, [s, v0], 0.01)
    net.add_factor(v2, [s, v1], 0.5)
    for v, outcome in ((s, True), (v0, True), (v1, False), (v2, True)):
        net.set_evidence(v, outcome)
    net = net.build()
    _assert_same_as_reference(net)
    _assert_same_as_reference(net, naive=True)


# --- exact zeros: rounds that count them and rounds that need not ---

def _run_counting_zeros(monkeypatch, net):
    """run_lbp on net, checked against the reference, and per round
    whether the variable side counted exact zeros: it does once a factor
    message holds one."""
    rounds, sums = [], []
    counting, v2f = _Engine._sums, _Engine._v2f

    def counted_sums(self):
        sums.append(None)
        return counting(self)

    def recorded_v2f(self):
        before = len(sums)
        out = v2f(self)
        rounds.append(len(sums) > before)
        return out

    monkeypatch.setattr(_Engine, "_sums", counted_sums)
    monkeypatch.setattr(_Engine, "_v2f", recorded_v2f)
    return _assert_same_as_reference(net), rounds


def test_zero_factor_message_in_the_first_round(monkeypatch):
    # v1 is observed incorrect and its co-parent v0 is certainly correct,
    # so round 1 tells s it is certainly incorrect: (0, 1). From round 2
    # s sends that zero on to w's factor as a parent, and w is correct
    # only by the leak.
    net = NetBuilder()
    s = net.add_variable(0.5)
    v0 = net.add_variable(1.0)
    v1 = net.add_variable(0.5)
    w = net.add_variable(0.5)
    net.add_factor(v1, [s, v0], 0.01)
    net.add_factor(w, [s], 0.01)
    net.set_evidence(v1, False)
    net = net.build()
    res, rounds = _run_counting_zeros(monkeypatch, net)
    assert rounds == [False, True, True]
    assert res.marginals.tolist() == [0.0, 1.0, 0.0, 0.01]
    assert res.marginals.tolist() == exact_marginals(net).tolist()
    assert res.fallbacks == 0


def test_zero_factor_message_first_in_a_later_round(monkeypatch):
    # Ten observed-correct values, each from s and a prior-1.0 input,
    # give s log-odds of about 46 after round 1; in round 2 its message
    # to w's factor rounds to exactly (1, 0), so w, observed incorrect,
    # tells u it is certainly incorrect. Rounds 1 and 2 count no zeros,
    # round 3 does.
    net = NetBuilder()
    s = net.add_variable(0.5)
    for _ in range(10):
        v = net.add_variable(0.5)
        net.add_factor(v, [s, net.add_variable(1.0)], 0.01)
        net.set_evidence(v, True)
    u = net.add_variable(0.5)
    w = net.add_variable(0.5)
    net.add_factor(w, [s, u], 0.01)
    net.set_evidence(w, False)
    res, rounds = _run_counting_zeros(monkeypatch, net.build())
    assert rounds == [False, False, True]
    assert res.marginals[u] == 0.0
    assert res.fallbacks == 0


def test_contradicting_certain_messages_fall_back_counted(monkeypatch):
    # v is certainly correct by its factor (its parent x has prior 1.0)
    # and certainly incorrect by each of two observed-incorrect values it
    # makes with a prior-1.0 co-parent. From round 2 each of v's edges to
    # those two factors sees a zero on both sides besides its own: two
    # fallbacks a round, in rounds 2 and 3. The marginals fall back for v
    # and for x, which v's certainly incorrect message contradicts: two
    # more.
    net = NetBuilder()
    x = net.add_variable(1.0)
    v = net.add_variable(0.5)
    net.add_factor(v, [x], 0.01)
    for _ in range(2):
        w = net.add_variable(0.5)
        net.add_factor(w, [net.add_variable(1.0), v], 0.01)
        net.set_evidence(w, False)
    res, rounds = _run_counting_zeros(monkeypatch, net.build())
    assert rounds == [False, True, True]
    assert res.fallbacks == 6
    assert res.marginals.tolist() == [0.5, 0.5, 0.0, 1.0, 0.0, 1.0]


def test_run_lbp_leaves_its_net_unchanged(monkeypatch):
    # a copy of the pipeline's net as built, before any run
    built = []

    def copy_built(*args):
        net = build_net(*args)
        built.append(copy.deepcopy(net))
        return net

    monkeypatch.setattr(pipeline, "build_net", copy_built)
    localize(parse(SUM_BUG), RunConfig())
    net, = built
    arrays = ("prior", "evidence", "offsets", "edge_var", "p0")
    before = [getattr(net, name).tobytes() for name in arrays]
    first, second = run_lbp(net), run_lbp(net)
    assert [getattr(net, name).tobytes() for name in arrays] == before
    assert first.marginals.tobytes() == second.marginals.tobytes()
    assert (first.iterations, first.converged, first.log, first.fallbacks,
            first.residuals) == (second.iterations, second.converged,
                                 second.log, second.fallbacks,
                                 second.residuals)
