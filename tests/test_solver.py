"""Price projection, subgradient updates, certified solve loop."""

import ctypes
import itertools
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from carpool import (FlowVector, GeometricConfig, PriceVector, SimSchedule,
                     SolverConfig, SolveTrace, build_edge_graph,
                     build_expanded_graph, enumerate_triples,
                     generate_geometric, init_prices, edge_graph,
                     plain_routing_cost, primal_subproblem,
                     run_distributed_solve, solve, solver, subgradient_step)
from carpool.model import Instance, Node, Session, total_cost
from carpool.distributed import Simulator, _message_round
from carpool.solver import NonFiniteError, _LoopState
from model_reference import (DenseLoopState, dense_aggregate, index_of,
                             pair_network, primal_subproblem_reference,
                             project_pair_reference, project_pairs_by_step,
                             rev_of, routes_copied,
                             subgradient_step_reference, unaligned_copy,
                             validate_prices, flow_entries, worst_residual)


@pytest.fixture(scope="module")
def relay3_parts(relay3):
    g = build_expanded_graph(relay3)
    return g, enumerate_triples(g)


# --------------------------------------------------------------- projection

def project_pair(u1, u2, c):
    """subgradient_step's projection of the one point (u1, u2)."""
    p1, p2 = project_pairs_by_step([u1], [u2], [c])
    return float(p1[0]), float(p2[0])


def test_projection_examples():
    assert project_pair(0.5, 0.5, 1.0) == (0.5, 0.5)
    assert project_pair(1.5, -0.5, 1.0) == (1.0, 0.0)
    assert project_pair(2.0, 2.0, 1.0) == (0.5, 0.5)
    assert project_pair(-3.0, -1.0, 1.0) == (0.0, 1.0)
    assert project_pair(4.0, 9.0, 0.0) == (0.0, 0.0)


def test_projection_fixes_feasible_points():
    for p1 in (0.0, 0.25, 1.0):
        assert project_pair(p1, 1.0 - p1, 1.0) == (p1, 1.0 - p1)


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 10))
def test_projection_matches_reference(u1, u2, c):
    p1, p2 = project_pair(u1, u2, c)
    r1, r2 = project_pair_reference(u1, u2, c)
    assert abs(p1 - r1) <= 1e-12 and abs(p2 - r2) <= 1e-12
    assert 0.0 <= p1 <= c and abs((p1 + p2) - c) <= 1e-12


# ------------------------------------------------------------ price updates

def test_initial_prices_split_the_transmission_cost(relay3_parts):
    g, idx = relay3_parts
    p = init_prices(idx)
    assert np.array_equal(p.values, np.full(len(idx), 0.5))
    dear = Instance([Node(0, 1.0), Node(1, 3.0), Node(2, 1.0)],
                    [(0, 1), (1, 2)], [Session("s1", 0, 2, 1.0)])
    gd = build_expanded_graph(dear)
    xd = enumerate_triples(gd)
    pd = init_prices(xd)
    assert pd.values[index_of(xd)[(0, 1, 2)]] == 1.5
    validate_prices(pd, xd)


def routed_total(g, idx, p):
    """This round's flow per triple summed over sessions, as the solve
    loop sums it for the price step."""
    _, start, rows = primal_subproblem(build_edge_graph(g, idx), p)
    rates = np.repeat([s.rate for s in g.base.sessions], np.diff(start))
    return np.bincount(rows[:start[-1]], weights=rates, minlength=len(idx))


def test_balanced_opposite_flows_leave_prices_alone(relay3_parts):
    g, idx = relay3_parts
    p0 = init_prices(idx)
    p1 = subgradient_step(p0, routed_total(g, idx, p0), 1.0, idx)
    shared = index_of(idx)[(0, 1, 2)]
    assert p1.values[shared] == 0.5 == p1.values[rev_of(idx)[shared]]
    validate_prices(p1, idx)


def test_price_rises_with_flow_and_falls_opposite():
    single = Instance([Node(i, 1.0) for i in range(3)], [(0, 1), (1, 2)],
                      [Session("s1", 0, 2, 1.0)])
    g = build_expanded_graph(single)
    idx = enumerate_triples(g)
    p0 = init_prices(idx)
    p1 = subgradient_step(p0, routed_total(g, idx, p0), 1.0, idx)
    for trip in [(3, 0, 1), (0, 1, 2), (1, 2, 4)]:
        k = index_of(idx)[trip]
        assert p1.values[k] == 1.0          # walked direction clips up
        assert p1.values[rev_of(idx)[k]] == 0.0  # complement pays the rest


def test_update_magnitude_is_half_step_times_imbalance(relay3_parts):
    g, idx = relay3_parts
    k = index_of(idx)[(0, 1, 2)]
    f = np.zeros(len(idx))
    f[k] = 0.6
    flows = [FlowVector("s1", f), FlowVector("s2", np.zeros(len(idx)))]
    agg = dense_aggregate(flows, len(idx))
    p1 = subgradient_step(init_prices(idx), agg, 1.0, idx)
    assert p1.values[k] == pytest.approx(0.8)           # 0.5 + (1/2)*0.6
    assert p1.values[rev_of(idx)[k]] == pytest.approx(0.2)
    p2 = subgradient_step(init_prices(idx), agg, 0.5, idx)
    assert p2.values[k] == pytest.approx(0.65)          # alpha halves


def test_random_steps_stay_dual_feasible(relay3_parts):
    g, idx = relay3_parts
    rng = np.random.default_rng(3)
    p = init_prices(idx)
    for n in range(1, 30):
        flows = [FlowVector(s.sid, rng.uniform(0.0, 2.0, len(idx)))
                 for s in g.base.sessions]
        p = subgradient_step(p, dense_aggregate(flows, len(idx)), 2.0 / n,
                             idx)
        validate_prices(p, idx)


def test_price_clamp_equals_np_clip_on_edge_values():
    # every forward price before the clamp against every pair cost a node
    # may have, 0.0 and -0.0 among them
    before = [-0.0, 0.0, 5e-324, math.nan, math.inf, -math.inf, 0.5, -1.0,
              1e308]
    costs = [0.0, -0.0, 5e-324, 1.0, 1e308]
    x, c = (np.array(v) for v in zip(*itertools.product(before, costs)))
    # and three last pairs whose NaN price meets a NaN net flow of another
    # payload: which one the sum keeps depends on the order of its
    # operands, and in numpy also on the element's place in the array
    nans = np.array([0x7FF8000000000001] * 3 + [0xFFF8000000000002] * 3,
                    dtype=np.uint64).view(np.float64)
    idx = pair_network(np.append(c, [1.0] * 3))
    p = PriceVector(np.zeros(len(idx)))
    p.values[idx.pair_fwd] = np.append(x, nans[:3])
    # net forward flow -0.0 - 0.0 = -0.0, and x + -0.0 is x, bit for bit
    agg = np.zeros(len(idx))
    agg[idx.pair_fwd] = np.append(np.full(len(x), -0.0), nans[3:])
    want = subgradient_step_reference(p, agg, 1.0, idx).values
    # a new array, then the solve loop's call, which writes over p.values
    for out in (None, p.values):
        got = subgradient_step(p, agg, 1.0, idx, out=out).values
        assert got.tobytes() == want.tobytes()
    assert got is p.values
    assert np.signbit(got[idx.pair_fwd]).any()  # a -0.0 reached the clamp
    assert np.isnan(got[idx.pair_fwd[:len(x)]]).any()


@st.composite
def step_inputs(draw):
    """Pair costs, and any floats, NaN and inf among them, for the prices
    and flows of their triples and for alpha."""
    any_float = st.floats(allow_nan=True, allow_infinity=True)
    costs = draw(st.lists(st.floats(0.0, 1e308), min_size=1, max_size=5))
    per_triple = st.lists(any_float, min_size=2 * len(costs),
                          max_size=2 * len(costs))
    return costs, draw(per_triple), draw(per_triple), draw(any_float)


@settings(max_examples=200, deadline=None)
@given(step_inputs())
def test_price_step_in_place_fresh_and_reference_agree(inputs):
    costs, prices, flows, alpha = inputs
    idx = pair_network(costs)
    p = PriceVector(np.array(prices))
    agg = np.array(flows)
    with np.errstate(over="ignore", invalid="ignore"):
        want = subgradient_step_reference(p, agg, alpha, idx).values
        fresh = subgradient_step(p, agg, alpha, idx).values
        assert p.values.tobytes() == np.array(prices).tobytes()  # pure
        subgradient_step(p, agg, alpha, idx, out=p.values)
    assert fresh.tobytes() == want.tobytes()
    assert p.values.tobytes() == want.tobytes()


def test_price_step_total_equals_the_dense_session_order_sum(monkeypatch):
    # _round, whose step the test can wrap; the compiled round's
    # prices are held to its bits by test_compiled_and_numpy_rounds_agree
    monkeypatch.setattr(edge_graph, "_load_kernel", lambda: None)
    rng = np.random.default_rng(5)
    line = Instance([Node(i, 1.0) for i in range(3)], [(0, 1), (1, 2)],
                    [Session(f"s{t}", 0, 2, r) for t, r in
                     enumerate([0.1, 0.3, 0.7, 0.2, 1 / 3])])
    geo = generate_geometric(GeometricConfig(side=5.0, sessions=6, seed=4))
    geo = Instance(geo.nodes, geo.edges,
                   [Session(s.sid, s.source, s.dest, float(r)) for s, r in
                    zip(geo.sessions, rng.uniform(0.1, 3.0, 6))])
    steps = []

    def step(p, agg, alpha, idx, out=None, _step=solver.subgradient_step):
        # the loop steps p in place, so keep the prices this round routed at
        steps.append((PriceVector(p.values.copy()), agg, alpha))
        return _step(p, agg, alpha, idx, out)

    monkeypatch.setattr(solver, "subgradient_step", step)
    shared = 0
    for inst in (line, geo):
        steps.clear()
        _, trace = solve(inst, SolverConfig(tol=1e-12, max_iters=12))
        g = build_expanded_graph(inst)
        idx = enumerate_triples(g)
        h = build_edge_graph(g, idx)
        assert len(steps) == 12
        # round n steps by the alpha its trace row records
        assert [alpha for _, _, alpha in steps] == trace.alphas
        for p, agg, _ in steps:
            flows, _ = primal_subproblem_reference(g, idx, p, h)
            assert agg.tobytes() == dense_aggregate(flows, len(idx)).tobytes()
            crossing = np.count_nonzero([f.values for f in flows], axis=0)
            shared = max(shared, int(crossing.max()))
    # on the line every session crosses the relay, and the five rates
    # sum to different floats forward and backward
    assert shared == 5


# ----------------------------------------------------------------- recovery

def with_rates(inst, rates):
    return Instance(inst.nodes, inst.edges,
                    [Session(s.sid, s.source, s.dest, float(r))
                     for s, r in zip(inst.sessions, rates)])


def loop_state(g, idx, cfg=None, kernel=None):
    """A _LoopState at the initial prices, on _round by default."""
    return _LoopState(g, idx, cfg or SolverConfig(), init_prices(idx),
                      kernel)


def routes_of(carried, dists=None):
    """(dists, start, rows) of a round that lists each session's rows in
    route order, as the route search returns them; every distance is 0.0
    unless dists are given."""
    start = np.cumsum([0] + [len(ks) for ks in carried], dtype=np.int64)
    rows = np.array([k for ks in carried for k in ks], dtype=np.int64)
    if dists is None:
        dists = [0.0] * len(carried)
    return np.array(dists, dtype=np.float64), start, rows


def ingest_dense(state, n, flows):
    """Feed _LoopState round n given as one dense flow for each of the
    first sessions, which carries the session's rate on each triple it
    uses; the others carry nothing."""
    x = np.zeros(state.sums.T.shape)
    x[:len(flows)] = [f.values for f in flows]
    for row, s in zip(x, state.g.base.sessions):
        assert set(row[row != 0.0].tolist()) <= {s.rate}
    return state.ingest(n, 1.0 / n,
                        routes_of([np.nonzero(row)[0] for row in x]))


def running_mean(g, idx, history):
    """The solve loop's recovered flows after ingesting every round."""
    state = loop_state(g, idx)
    for n, flows in enumerate(history, 1):
        ingest_dense(state, n, flows)
    return state.solution(len(history)).flows


def test_recovery_is_the_running_mean(relay3_parts):
    g, idx = relay3_parts
    fwd, rev = index_of(idx)[(0, 1, 2)], index_of(idx)[(2, 1, 0)]
    a = np.zeros(len(idx))
    b = np.zeros(len(idx))
    a[fwd] = 1.0
    b[rev] = 1.0
    history = [[FlowVector("s1", a)], [FlowVector("s1", b)]]
    mean = running_mean(g, idx, history)
    assert mean[0].session == "s1"
    assert mean[0].values[fwd] == 0.5
    assert mean[0].values[rev] == 0.5


def test_recovered_average_still_conserves():
    inst = Instance([Node(i, 1.0) for i in range(4)],
                    [(0, 1), (0, 2), (1, 3), (2, 3)],
                    [Session("s1", 0, 3, 1.0)])
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    top = [(4, 0, 1), (0, 1, 3), (1, 3, 5)]
    bot = [(4, 0, 2), (0, 2, 3), (2, 3, 5)]
    row = index_of(idx)
    history = []
    for route in (top, bot, top):
        f = np.zeros(len(idx))
        for trip in route:
            f[row[trip]] = 1.0
        history.append([FlowVector("s1", f)])
    mean = running_mean(g, idx, history)
    assert worst_residual(mean, g, idx) == 0.0
    assert mean[0].values[row[(0, 1, 3)]] == pytest.approx(2 / 3)


def test_support_restricted_total_equals_the_sum_of_session_means(
        loop_kernels):
    inst = generate_geometric(GeometricConfig(side=6.0, sessions=6, seed=9))
    inst = with_rates(inst, np.random.default_rng(17).uniform(
        0.1, 3.0, len(inst.sessions)))
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    cfg = SolverConfig(tol=1e-12)
    for kernel in loop_kernels:
        rng = np.random.default_rng(17)
        state = loop_state(g, idx, cfg, kernel)
        dense = DenseLoopState(g, idx, cfg, SolveTrace())
        routed = set()
        for n in range(1, 8):
            flows = []
            for s in inst.sessions:
                values = np.zeros(len(idx))
                # from a few triples, so that sessions overlap
                values[rng.choice(20, 12, replace=False)] = s.rate
                flows.append(FlowVector(s.sid, values))
                routed.update(np.flatnonzero(values).tolist())
            ingest_dense(state, n, flows)
            dense.ingest(n, flows, 0.0)
            assert_marked(state, routed, kernel is not None)
            if kernel:  # recovery ran on fewer rows than the sums hold
                assert state.frame.nsupport < len(idx)
            for name in ("y", "z"):
                assert getattr(state.summary, name).tobytes() == \
                    getattr(dense.summary, name).tobytes()
        assert state.trace.recovered_costs == dense.trace.recovered_costs
        got = state.solution(7).flows
        assert [f.session for f in got] == [f.session for f in dense.mean]
        assert all(a.values.tobytes() == b.values.tobytes()
                   for a, b in zip(got, dense.mean))


def recover_both(inst, rates, rounds, kernel):
    """Feed each round to _LoopState and to DenseLoopState, which must
    agree bit for bit after every round, and then the solution's entries
    must be the nonzero entries of the dense loop's means, in (session,
    row) order, and its flows those means.  Session t of inst runs at
    rates[t], and a round lists, per session, the rows it carried its
    rate on, in route order, at distance 0.0, so that no dual bound
    overflows and a round that raises has added its flow into the means.
    The NonFiniteError message that stopped both at the same round, or
    None."""
    g = build_expanded_graph(with_rates(inst, rates))
    idx = enumerate_triples(g)
    cfg = SolverConfig(tol=1e-12)
    state = loop_state(g, idx, cfg, kernel)
    dense = DenseLoopState(g, idx, cfg, SolveTrace())
    stopped = None
    # as in price_ascent, an overflow shows as a non-finite cost
    with np.errstate(over="ignore", invalid="ignore"):
        for n, carried in enumerate(rounds, 1):
            routes = routes_of(carried)
            flows = []
            for s, ks in zip(g.base.sessions, carried):
                f = np.zeros(len(idx))
                f[list(ks)] = s.rate
                flows.append(FlowVector(s.sid, f))
            outcome = []
            for ingest in (lambda: state.ingest(n, 1.0 / n, routes),
                           lambda: dense.ingest(n, flows, 0.0)):
                try:
                    outcome.append(ingest())
                except NonFiniteError as exc:
                    outcome.append(str(exc))
            assert outcome[0] == outcome[1]
            if isinstance(outcome[0], str):
                stopped = outcome[0]
                break
            for name in ("y", "z"):
                assert getattr(state.summary, name).tobytes() == \
                    getattr(dense.summary, name).tobytes()
    for name in ("iters", "alphas", "dual_bounds", "best_bounds",
                 "recovered_costs", "rel_gaps"):
        assert np.array(getattr(state.trace, name)).tobytes() == \
            np.array(getattr(dense.trace, name)).tobytes()
    sol = state.solution(n)
    got, want = sol.entries, flow_entries(dense.mean, g, idx)
    assert [a.dtype for a in got] == [np.dtype(np.int64)] * 2 + [
        np.dtype(np.float64)]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert [f.session for f in sol.flows] == [f.session for f in dense.mean]
    assert all(a.values.tobytes() == b.values.tobytes()
               for a, b in zip(sol.flows, dense.mean))
    return stopped


@pytest.fixture(scope="module")
def geo4_triples(geo4):
    return len(enumerate_triples(build_expanded_graph(geo4)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_recovery_equals_the_dense_loop(geo4, geo4_triples,
                                               loop_kernels, data):
    # a few triples for all sessions to draw from, so that they share
    pool = data.draw(st.lists(st.integers(0, geo4_triples - 1), min_size=1,
                              max_size=8, unique=True))
    # the odd fractions round when added and divided, the extremes
    # underflow or overflow
    value = st.one_of(st.sampled_from([5e-324, 1e308]),
                      st.integers(1, 10**9).map(lambda k: k / 7919),
                      st.floats(1e-3, 1e3))
    sessions = len(geo4.sessions)
    rates = data.draw(st.lists(value, min_size=sessions, max_size=sessions))
    route = st.lists(st.sampled_from(pool), max_size=6, unique=True)
    rounds = data.draw(st.lists(
        st.lists(route, min_size=sessions, max_size=sessions), min_size=1,
        max_size=8))
    for kernel in loop_kernels:
        recover_both(geo4, rates, rounds, kernel)


def test_sparse_recovery_keeps_the_smallest_subnormal(geo4, loop_kernels):
    tiny = [[3, 7], [7], [], [3]]
    for kernel in loop_kernels:
        assert recover_both(geo4, [5e-324] * 4, [tiny, tiny, tiny],
                            kernel) is None


def test_sparse_recovery_overflows_at_the_dense_loops_round(geo4,
                                                           loop_kernels):
    huge = [[3], [7], [], []]
    for kernel in loop_kernels:
        assert recover_both(geo4, [1e308, 1.0, 1.0, 1.0], [huge, huge, huge],
                            kernel) == (
            "iteration 2: recovered cost is inf; costs or rates are too "
            "large for float arithmetic")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_solution_entries_are_the_nonzero_means(geo4, geo4_triples,
                                                loop_kernels, data):
    """Solution.entries are the nonzero entries of the dense loop's means
    for the same routes, bit for bit and in (session, row) order, under
    either round, and Solution.flows are those means (recover_both), on
    rates of any size.  A sum of the smallest subnormal rate rounds to a
    mean of +0.0 when divided by 2 or more, which no entry states, and
    rates near 1e308 sum to inf, which ends the rounds but still leaves
    means."""
    pool = data.draw(st.lists(st.integers(0, geo4_triples - 1), min_size=1,
                              max_size=8, unique=True))
    value = st.one_of(st.sampled_from([5e-324, 1e308]),
                      st.floats(5e-324, 1e308))
    sessions = len(geo4.sessions)
    rates = data.draw(st.lists(value, min_size=sessions, max_size=sessions))
    route = st.lists(st.sampled_from(pool), max_size=6, unique=True)
    rounds = data.draw(st.lists(
        st.lists(route, min_size=sessions, max_size=sessions), min_size=1,
        max_size=6))
    for kernel in loop_kernels:
        recover_both(geo4, rates, rounds, kernel)


@st.composite
def round_inputs(draw):
    """A path network and rounds on it: node costs with -0.0 and 1e308,
    session rates with the smallest subnormal and ones whose sums
    overflow to inf (and whose flows then meet as inf - inf, NaN),
    prices and step sizes of any float, and per round each session's
    rows in route order and its route distance: finite, the smallest
    subnormal, 1e308, inf or NaN.  A round's flow adds positive rates
    from +0.0, so -0.0 comes in through the prices and the pair costs,
    which keep the -0.0 that the instance reads as +0.0.  Every NaN drawn
    is the one inf - inf makes: numpy's add keeps one of two NaN payloads
    or the other by the element's place in the array and the CPU's
    vector width, so two NaNs of different payloads have no one sum."""
    with np.errstate(invalid="ignore"):
        nan = float(np.subtract(np.inf, np.inf))
    any_float = st.floats().map(lambda x: nan if math.isnan(x) else x)
    size = draw(st.integers(2, 5))
    costs = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 3.7,
                                           1e308]),
                          min_size=size, max_size=size))
    ends = st.lists(st.integers(0, size - 1), min_size=2, max_size=2,
                    unique=True)
    rate = st.sampled_from([5e-324, 0.1, 1 / 3, 2.5, 1e308])
    sessions = [Session(f"s{t}", *draw(ends), draw(rate))
                for t in range(draw(st.integers(1, 3)))]
    inst = Instance([Node(j, c) for j, c in enumerate(costs)],
                    [(j, j + 1) for j in range(size - 1)], sessions)
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    idx.pair_cost = np.array(costs)[idx.pair_mid]
    prices = draw(st.lists(any_float, min_size=len(idx), max_size=len(idx)))
    # a route has at least one row, as a session's ends are two pairs
    route = st.lists(st.integers(0, len(idx) - 1), min_size=1, max_size=6,
                     unique=True)
    dist = st.one_of(st.sampled_from([5e-324, 1e308, math.inf, nan]),
                     st.floats(0.0, 10.0), st.integers(0, 40).map(float))
    rounds = draw(st.lists(st.tuples(
        st.lists(route, min_size=len(sessions), max_size=len(sessions)),
        st.lists(dist, min_size=len(sessions), max_size=len(sessions)),
        any_float), min_size=1, max_size=6))
    return g, idx, prices, rounds


def round_bytes(state):
    """Every byte that either round may write: the sums, the marks, y, z,
    work, the prices, and the best bound, cost and gap in the frame, but
    the dual bound q.  The compiled round's support is left to
    assert_marked."""
    frame = state.frame
    return [a.tobytes() for a in (
        state.sums, state.mark, state.summary.y, state.summary.z,
        state.work, state.p.values,
        np.array([frame.best, frame.expanded, frame.gap]))]


def trace_hexes(trace):
    """A trace's round numbers, and its other columns by float.hex."""
    return trace.iters, [[v.hex() for v in getattr(trace, name)] for name
                         in ("alphas", "dual_bounds", "best_bounds",
                             "recovered_costs", "rel_gaps")]


# The statuses a round may return: it never allocates or grows a buffer
ROUND_STATUSES = {1, 0, -5, -6, -7}


def record_statuses(state):
    """Wrap the round of state so that it lists the status of every call
    in the list returned."""
    statuses = []

    def recorded(*args, _fn=state.fn):
        statuses.append(_fn(*args))
        return statuses[-1]
    state.fn = recorded
    return statuses


def assert_marked(state, routed, compiled):
    """The marked rows are routed, the distinct rows routed so far, and
    the compiled round's support lists each of them once; _round keeps
    no support."""
    marked = np.flatnonzero(state.mark).tolist()
    assert marked == sorted(routed)
    support = state.support[:state.frame.nsupport].tolist()
    assert sorted(support) == (marked if compiled else [])


@settings(max_examples=200, deadline=None)
@given(inputs=round_inputs())
def test_compiled_and_numpy_rounds_agree(kernel, inputs):
    """Round for round, the compiled round and _round return the same
    status, one of ROUND_STATUSES, in one call, leave the same bytes in
    the sums, the marks, y, z, work and the prices, the dual bound, the
    best bound and the gap, and so the loop the same trace rows, and
    certify or raise alike, the round that raises too.  A round that
    certifies puts back the prices it was routed at, and one whose dual
    bound is not finite changes nothing but the bound in the frame.  The
    marks are the distinct rows routed so far, which the compiled round's
    support lists, and _round keeps no support."""
    g, idx, prices, rounds = inputs
    cfg = SolverConfig(tol=1e-2)
    states = [_LoopState(g, idx, cfg, PriceVector(np.array(prices)), k)
              for k in (kernel, None)]
    statuses = [record_statuses(state) for state in states]
    routed = set()
    with np.errstate(all="ignore"):
        for n, (carried, dists, alpha) in enumerate(rounds, 1):
            routes = routes_of(carried, dists)
            outcome = []
            for state, calls in zip(states, statuses):
                calls.clear()
                before = round_bytes(state)
                try:
                    outcome.append(state.ingest(n, alpha, routes))
                except NonFiniteError as exc:
                    outcome.append(str(exc))
                if outcome[-1] is True:  # the prices routed at
                    assert state.p.values.tobytes() == before[5]
                elif "dual bound" in str(outcome[-1]):
                    assert round_bytes(state) == before
            assert outcome[0] == outcome[1]
            assert statuses[0] == statuses[1]
            assert len(statuses[0]) == 1 and statuses[0][0] in ROUND_STATUSES
            got, want = (round_bytes(state) + [
                np.float64(state.frame.q).tobytes(),
                np.array(state.trace_rows).tobytes()] for state in states)
            assert got == want
            if "dual bound" not in str(outcome[0]):
                routed.update(k for ks in carried for k in ks)
            for state, compiled in zip(states, (True, False)):
                assert_marked(state, routed, compiled)
            if outcome[0] is not False:  # certified, or raised
                break


@pytest.mark.parametrize("form", ["C", "python"])
def test_round_refuses_bad_routes_changing_nothing(form, grid2, request):
    """Either round returns -5 on a bad start or row, which ingest raises,
    and leaves every byte of its state as it was."""
    kernel = request.getfixturevalue("kernel") if form == "C" else None
    g = build_expanded_graph(grid2)
    idx = enumerate_triples(g)
    T = len(idx)
    state = loop_state(g, idx, SolverConfig(tol=1e-12), kernel)
    state.ingest(1, 1.0, routes_of([[3, 7], [7]]))

    def snapshot():
        return [a.tobytes() for a in (
            state.sums, state.mark, state.support, state.summary.y,
            state.summary.z, state.p.values, state.work,
            np.array([state.frame.nsupport]))]

    before = snapshot()
    for start, rows in (([1, 2, 3], [3, 7, 7]),  # start[0] is not 0
                        ([0, 2, 1], [3, 7, 7]),  # start falls
                        ([0, 2, 4], [3, 7, 7]),  # start[ns] > m
                        ([0, 2, 3], [3, T, 7]),
                        ([0, 2, 3], [3, -1, 7])):
        with pytest.raises(RuntimeError, match="status -5"):
            state.ingest(2, 0.5, (np.zeros(2), np.array(start),
                                  np.array(rows)))
        assert snapshot() == before


@st.composite
def small_networks(draw):
    """A connected network of 2 to 6 nodes, a random tree and a few more
    edges, and 1 to 3 sessions.  In about one example in four one node
    cost or one rate is 1e308, so that a dual bound or a recovered cost
    can overflow; in the others every round is finite."""
    size = draw(st.integers(2, 6))
    node = st.integers(0, size - 1)
    edges = {(draw(st.integers(0, j - 1)), j) for j in range(1, size)}
    edges |= {(min(a, b), max(a, b))
              for a, b in draw(st.lists(st.tuples(node, node), max_size=5))
              if a != b}
    ends = st.lists(node, min_size=2, max_size=2, unique=True)
    costs = draw(st.lists(st.sampled_from([0.5, 3.7]), min_size=size,
                          max_size=size))
    sessions = [[f"s{t}", *draw(ends), draw(st.sampled_from([0.5, 1.0, 3.7]))]
                for t in range(draw(st.integers(1, 3)))]
    if draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, size + len(sessions) - 1))
        if at < size:
            costs[at] = 1e308
        else:
            sessions[at - size][3] = 1e308
    return Instance([Node(j, c) for j, c in enumerate(costs)], sorted(edges),
                    [Session(*s) for s in sessions])


def close_rounds(g, idx, search, kernel, rounds):
    """Close up to rounds rounds on search's routes in a loop state on
    kernel's round and in the dense loop.  Round for round they certify
    or raise alike and keep the same trace by float.hex, a round that
    raises adding no row; each round is one call of the round, which
    returns one of ROUND_STATUSES, and the marks are the distinct rows
    routed so far.  After rounds rounds that neither certify nor raise,
    a round on a row out of range raises changing nothing.  The last
    round's number and outcome: True, False or the NonFiniteError
    message."""
    T, cfg = len(idx), SolverConfig(tol=1e-12)
    state = _LoopState(g, idx, cfg, init_prices(idx), kernel)
    statuses = record_statuses(state)
    dense = DenseLoopState(g, idx, cfg, SolveTrace())
    routed = set()
    with np.errstate(all="ignore"):
        for n in range(1, rounds + 1):
            statuses.clear()
            outcome = []
            try:
                outcome.append(state.ingest(n, 1.0 / n,
                                            search.run(state.p.values)))
            except NonFiniteError as exc:
                outcome.append(str(exc))
            qdist, start, rows = search.routes
            q, flows = 0.0, []
            for t, s in enumerate(g.base.sessions):
                q = q + s.rate * float(qdist[t])
                f = np.zeros(T)
                f[rows[start[t]:start[t + 1]]] = s.rate
                flows.append(FlowVector(s.sid, f))
            try:
                outcome.append(dense.ingest(n, flows, q))
            except NonFiniteError as exc:
                outcome.append(str(exc))
            assert outcome[0] == outcome[1]
            assert trace_hexes(state.trace) == trace_hexes(dense.trace)
            assert len(statuses) == 1 and statuses[0] in ROUND_STATUSES
            if statuses[0] != -6:  # the dual bound comes before the sums
                routed.update(rows[:start[-1]].tolist())
            assert_marked(state, routed, kernel is not None)
            if outcome[0] is not False:  # certified, or raised
                break
        else:
            qdist, start, rows = routes_copied(search, state.p.values)
            rows[0] = T
            before = round_bytes(state)
            with pytest.raises(RuntimeError, match="status -5"):
                state.ingest(rounds + 1, 0.5, (qdist, start, rows))
            assert round_bytes(state) == before
    return n, outcome[0]


@settings(max_examples=60, deadline=None)
@given(inst=small_networks(), data=st.data())
def test_both_entry_points_refuse_on_random_graphs(inst, data, loop_kernels):
    """Each entry point, compiled and in Python, runs through its refusal
    codes on random small networks, so that a sanitized kernel sees every
    edge.  The route search returns -3 when its routes need one row more
    than cap, as _routes does (0 when no destination is reached, so no
    route needs a row), and, compiled, -5 when a range is made bad in
    place after the search was built (its Python form relies on the
    constructor's checks); either way the next search gives the same
    routes.  Then close_rounds runs the rounds on the search: a round
    refuses a row out of range (-5) changing nothing, and raises on a
    dual bound (-6) or a recovered cost (-7) that is not finite at the
    round where the dense loop does.  Each example is tagged with how
    its rounds ended."""
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    T, nv = len(idx), len(idx.out_lo)
    rounds = data.draw(st.integers(1, 6))
    spoil = data.draw(st.sampled_from([(0, -1), (1, T + 1), (2, nv)]))
    for kernel in loop_kernels:
        graph = [a.copy() for a in (idx.out_lo, idx.out_hi, idx.head)]
        search = edge_graph.RouteSearch(kernel, *graph, g.src_pair,
                                        g.dst_pair)
        w = init_prices(idx).values
        want = routes_copied(search, w)
        # room for one row less than the routes take: -3, or 0 when every
        # destination is out of reach at these prices and no route takes a
        # row
        cap, search.frame.cap = search.frame.cap, int(want[1][-1]) - 1
        status = -3 if want[1][-1] else 0
        assert search.fn(search.ref) == status
        python = edge_graph.RouteSearch(None, *graph, g.src_pair, g.dst_pair)
        python.wts, python.frame.cap = w, search.frame.cap
        assert edge_graph._routes(python) == status
        search.frame.cap = cap
        if kernel is not None:  # lo < 0, hi > m or a head out of range
            which, bad = spoil
            at = data.draw(st.integers(0, len(graph[which]) - 1))
            graph[which][at], kept = bad, graph[which][at]
            assert search.fn(search.ref) == -5
            graph[which][at] = kept
        got = routes_copied(search, w)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        n, outcome = close_rounds(g, idx, search, kernel, rounds)
    ending = ("certified" if outcome is True else "ran its rounds"
              if outcome is False else outcome.split(": ")[1].split(" is ")[0])
    event(f"{ending} at round {n if n == 1 else '2 or later'}")


# Path networks of node costs and sessions (source, dest, rate) whose
# rounds end as given, by the round that ends them
ENDING_ROUNDS = {
    "certified": ([1.0, 1.0, 1.0], [(0, 2, 1.0)], 2, True),
    "dual bound": ([0.5, 3.7, 0.5], [(0, 2, 1e308)], 1,
                   "iteration 1: dual bound is inf"),
    "recovered cost": ([0.5, 0.5, 0.5], [(0, 2, 0.5), (2, 0, 1e308)], 2,
                       "iteration 2: recovered cost is inf"),
}


@pytest.mark.parametrize("ending", sorted(ENDING_ROUNDS))
def test_rounds_that_certify_or_raise_keep_the_dense_trace(ending,
                                                           loop_kernels):
    """close_rounds on a round that certifies, one whose dual bound is
    not finite (-6) and one whose recovered cost is not finite (-7), each
    after as many rounds as ENDING_ROUNDS gives."""
    costs, sessions, last, outcome = ENDING_ROUNDS[ending]
    g = build_expanded_graph(Instance(
        [Node(j, c) for j, c in enumerate(costs)],
        [(j, j + 1) for j in range(len(costs) - 1)],
        [Session(f"s{t}", *s) for t, s in enumerate(sessions)]))
    idx = enumerate_triples(g)
    for kernel in loop_kernels:
        search = edge_graph.RouteSearch(kernel, idx.out_lo, idx.out_hi,
                                        idx.head, g.src_pair, g.dst_pair)
        n, got = close_rounds(g, idx, search, kernel, 6)
        assert n == last
        assert got is True if outcome is True else got.startswith(outcome)


# ------------------------------------------------------------- solve loop

def test_relay3_trace_is_exact(relay3_run):
    sol, trace, _ = relay3_run
    assert trace.iters == [1, 2]
    assert trace.alphas == [1.0, 0.5]
    assert trace.dual_bounds == [3.0, 5.0]
    assert trace.best_bounds == [3.0, 5.0]
    assert trace.recovered_costs == [5.0, 5.0]
    assert trace.rel_gaps == [pytest.approx(2 / 3), 0.0]
    assert (sol.expanded_cost, sol.physical_cost) == (5.0, 3.0)
    assert sol.certified and sol.iterations == 2


def test_certification_precedes_the_price_update(relay3, relay3_run):
    # the returned prices are the ones that produced the certified bound
    sol, _, _ = relay3_run
    g = build_expanded_graph(relay3)
    idx = enumerate_triples(g)
    p0 = init_prices(idx)
    p1 = subgradient_step(p0, routed_total(g, idx, p0), 1.0, idx)
    assert np.array_equal(sol.prices.values, p1.values)
    validate_prices(sol.prices, idx)


def test_trace_invariants_on_grid2(grid2_run):
    sol, trace, _ = grid2_run
    best = np.array(trace.best_bounds)
    rec = np.array(trace.recovered_costs)
    gaps = np.array(trace.rel_gaps)
    assert np.all(np.diff(best) >= 0.0)
    assert np.array_equal(best, np.maximum.accumulate(trace.dual_bounds))
    assert np.all(best <= rec + 1e-7)
    assert np.allclose(gaps, (rec - best) / np.maximum(1.0, best), atol=0.0)
    assert trace.alphas == [1.0 / n for n in trace.iters]


def test_grid2_brackets_the_reference_optimum(grid2_run):
    # frozen 11.0 is re-derived by tests/lp_reference.py in test_model
    sol, trace, _ = grid2_run
    assert trace.best_bounds[-1] <= 11.0 + 1e-9
    assert sol.expanded_cost >= 11.0 - 1e-9
    slack = sol.gap * max(1.0, trace.best_bounds[-1])
    assert sol.expanded_cost - 11.0 <= slack + 1e-9


def test_single_session_certifies_at_plain_routing(relay3_single,
                                                   relay3_single_run):
    sol, trace, _ = relay3_single_run
    routing, _ = plain_routing_cost(relay3_single)
    assert sol.certified
    assert sol.physical_cost == routing == 2.0
    assert sol.gap == 0.0


def test_no_sessions_certifies_immediately():
    inst = Instance([Node(0, 1.0), Node(1, 1.0)], [(0, 1)], [])
    sol, trace = solve(inst, SolverConfig())
    assert sol.certified and sol.iterations == 0 and len(trace) == 0
    assert (sol.expanded_cost, sol.physical_cost) == (0.0, 0.0)


def test_solution_costs_are_the_cost_of_its_summary(relay3, grid2, geo4,
                                                    loop_kernels,
                                                    monkeypatch):
    """The solution takes its costs from the last round, which summed
    them over the summary it returns: they are total_cost's bits, on a
    solve that certifies, one that stops at the cap and one with no
    session and so no round."""
    empty = Instance([Node(0, 1.0), Node(1, 2.5)], [(0, 1)], [])
    for kernel in loop_kernels:
        monkeypatch.setattr(edge_graph, "_load_kernel", lambda: kernel)
        for inst, cfg in ((relay3, SolverConfig(tol=1e-4)),
                          (grid2, SolverConfig(tol=1e-12, max_iters=40)),
                          (geo4, SolverConfig(tol=2e-2)),
                          (empty, SolverConfig())):
            sol, _ = solve(inst, cfg)
            want = total_cost(sol.summary, build_expanded_graph(inst))
            assert np.array([sol.expanded_cost, sol.physical_cost]
                            ).tobytes() == np.array(want).tobytes()


def test_gap_keeps_shrinking(grid2):
    _, trace = solve(grid2, SolverConfig(tol=1e-12, max_iters=2000))
    assert len(trace) == 2000  # nothing certifies at 1e-12 here
    assert trace.rel_gaps[1999] <= trace.rel_gaps[199]


def test_solve_calls_each_layer_once_per_iteration_through_solver(
        relay3, grid2, loop_kernels, count_rounds, monkeypatch):
    # bench/spans.py times these layers by wrapping carpool.solver's names,
    # which _round calls; the compiled round makes the summary, its cost
    # and the step in its one call
    calls = Counter()
    for name in ("primal_subproblem", "subgradient_step",
                 "transmission_summary", "total_cost"):
        def counted(*args, _name=name, _call=getattr(solver, name), **kw):
            calls[_name] += 1
            return _call(*args, **kw)
        monkeypatch.setattr(solver, name, counted)
    for kernel in loop_kernels:
        counted_kernel = count_rounds(kernel, calls)
        monkeypatch.setattr(edge_graph, "_load_kernel",
                            lambda: counted_kernel)
        for inst, cfg in ((relay3, SolverConfig(tol=1e-4)),
                          (grid2, SolverConfig(tol=1e-12, max_iters=40))):
            calls.clear()
            sol, trace = solve(inst, cfg)
            n = sol.iterations
            assert len(trace) == n and n == (2 if inst is relay3 else 40)
            # every round steps, and one that certifies puts its prices
            # back; the solution takes the last round's cost
            step = ({"subgradient_step": n, "transmission_summary": n,
                     "total_cost": n}
                    if kernel is None else {"round": n})
            assert calls == {"primal_subproblem": n, **step}


def test_solve_rounds_on_the_buffers_the_search_fills(grid2, loop_kernels,
                                                      monkeypatch):
    """On the solve() path the round reads start and rows where the route
    search writes them, so no route is copied between the two calls, and
    the loop gives the bits of one fed copies of the search's routes."""
    states, graphs = [], []

    class Kept(_LoopState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    def kept_graph(*args, _build=solver.build_edge_graph):
        graphs.append(_build(*args))
        return graphs[-1]

    monkeypatch.setattr(solver, "_LoopState", Kept)
    monkeypatch.setattr(solver, "build_edge_graph", kept_graph)
    cfg = SolverConfig(tol=1e-12, max_iters=30)
    for kernel in loop_kernels:
        monkeypatch.setattr(edge_graph, "_load_kernel", lambda: kernel)
        sol, trace = solve(grid2, cfg)
        state, search = states[-1], graphs[-1].search
        assert state.routes is search.routes
        assert (state.qdist, state.start, state.rows) == search.routes
        assert (state.frame.qdist, state.frame.start, state.frame.rows) == \
            (search.frame.qdist, search.frame.start, search.frame.rows)
        g = build_expanded_graph(grid2)
        idx = enumerate_triples(g)
        copied = edge_graph.route_search(idx.out_lo, idx.out_hi, idx.head,
                                         g.src_pair, g.dst_pair)
        want, want_trace = solver.price_ascent(
            g, idx, cfg, lambda p: routes_copied(copied, p.values))
        assert states[-1].start is not copied.start
        for name in ("dual_bounds", "recovered_costs", "rel_gaps"):
            assert np.array(getattr(trace, name)).tobytes() == \
                np.array(getattr(want_trace, name)).tobytes()
        assert sol.prices.values.tobytes() == want.prices.values.tobytes()


def count_round_calls(kernel, monkeypatch):
    """Make the solves of this test run on kernel's round, or on _round
    when kernel is None, and list the status of every call of it."""
    statuses, call = [], solver._round if kernel is None else kernel.round

    def counted(*args):
        statuses.append(call(*args))
        return statuses[-1]
    loaded = None if kernel is None else edge_graph.Kernel(kernel.routes,
                                                           counted)
    if kernel is None:
        monkeypatch.setattr(solver, "_round", counted)
    monkeypatch.setattr(edge_graph, "_load_kernel", lambda: loaded)
    return statuses


def test_a_relay3_solve_calls_the_round_once_a_round(relay3, loop_kernels,
                                                    monkeypatch):
    """Each round of a solve is one call of the round, which has no
    buffer to find full and so is never called again."""
    for kernel in loop_kernels:
        statuses = count_round_calls(kernel, monkeypatch)
        sol, trace = solve(relay3, SolverConfig(tol=1e-4))
        assert sol.iterations == len(trace) == 2
        assert statuses == [0, 1]


@pytest.mark.parametrize("spoil", ["float32 distances", "short start",
                                   "strided rows", "unaligned rows"])
def test_bad_route_arrays_are_refused_before_the_round(
        relay3_parts, loop_kernels, monkeypatch, spoil):
    """The loop checks the types and lengths of the route arrays when it
    binds them, so arrays the frame cannot hold raise before either round
    reads them: in the first round, and in a later one after routes that
    were bound well."""
    g, idx = relay3_parts
    h = build_edge_graph(g, idx)

    def spoiled(p):
        dists, start, rows = primal_subproblem(h, p)
        if spoil == "float32 distances":
            return dists.astype(np.float32), start, rows
        if spoil == "short start":
            return dists, start[:-1].copy(), rows
        if spoil == "unaligned rows":
            return dists, start, unaligned_copy(rows)
        return dists, start, np.repeat(rows, 2)[::2]

    for kernel in loop_kernels:
        statuses = count_round_calls(kernel, monkeypatch)
        with pytest.raises((TypeError, ValueError)):
            solver.price_ascent(g, idx, SolverConfig(), spoiled)
        assert statuses == []
        routes = iter([lambda p: primal_subproblem(h, p), spoiled])
        with pytest.raises((TypeError, ValueError)):
            solver.price_ascent(g, idx, SolverConfig(tol=1e-4),
                                lambda p: next(routes)(p))
        assert statuses == [0]


def test_the_round_frame_holds_the_arrays_the_loop_holds(
        grid2, loop_kernels, monkeypatch):
    """After a solve and a twin run, every address in the round's frame
    is that of the array the loop holds for it, and every count its
    length; the compiled round's support holds the rows marked, and
    _round's none.  Each front end's routes are its own three buffers,
    bound from the first round to the last: the route search's, and the
    Simulator's."""
    states, bound = [], []

    class Kept(_LoopState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

        def ingest(self, n, alpha, routes):
            frame = self.frame
            done = super().ingest(n, alpha, routes)
            bound.append((routes, (frame.qdist, frame.start, frame.rows)))
            return done

    monkeypatch.setattr(solver, "_LoopState", Kept)
    g = build_expanded_graph(grid2)
    idx = enumerate_triples(g)
    cfg = SolverConfig(tol=1e-12, max_iters=150)
    addresses = {name for name, ctype in solver._RoundState._fields_
                 if ctype is ctypes.c_void_p}
    for kernel in loop_kernels:
        monkeypatch.setattr(edge_graph, "_load_kernel", lambda: kernel)
        h, sim = build_edge_graph(g, idx), Simulator(g, idx)
        primal_subproblem(h, init_prices(idx))  # builds h.search
        for route, buffers in ((lambda p: primal_subproblem(h, p),
                                h.search.routes),
                               (lambda p: _message_round(sim, p),
                                sim.route_buffers)):
            bound.clear()
            solver.price_ascent(g, idx, cfg, route)
            state = states[-1]
            frame = state.frame
            held = {"rates": state.rates, "qdist": state.qdist,
                    "start": state.start, "rows": state.rows,
                    "sums": state.sums, "mark": state.mark,
                    "support": state.support, "fwd": idx.pair_fwd,
                    "rev": idx.pair_rev, "mid": idx.pair_mid,
                    "cost": idx.pair_cost, "y": state.summary.y,
                    "z": state.summary.z, "p": state.p.values,
                    "work": state.work, "ncost": g.costs}
            assert set(held) == addresses
            for name, a in held.items():
                assert getattr(frame, name) == a.ctypes.data, name
            assert len(state.mark) == len(state.support) == frame.nt
            marked = int(np.count_nonzero(state.mark))
            assert frame.nsupport == (marked if kernel else 0)
            assert frame.nrows == len(state.rows)
            assert len(bound) == 150
            assert all(routes is buffers for routes, _ in bound)
            assert {at for _, at in bound} == \
                {tuple(a.ctypes.data for a in buffers)}


# A solve whose trace took other bits under other OpenBLAS kernels while
# the expanded cost was summed by np.dot
CROSS_BLAS_SOLVE = """
from carpool import GeometricConfig, SolverConfig, generate_geometric, solve
inst = generate_geometric(GeometricConfig(side=10.0, sessions=8,
                                          intensity=2.0, seed=1))
_, trace = solve(inst, SolverConfig(tol=2e-2, max_iters=300))
for name in ("dual_bounds", "recovered_costs", "rel_gaps"):
    print(name, *(v.hex() for v in getattr(trace, name)))
"""


def test_traces_do_not_depend_on_the_blas_kernel():
    """One solve gives the same trace, by float.hex, under OpenBLAS's
    kernel for this CPU and under its SSE3 kernels, which any x86-64 CPU
    runs.  OPENBLAS_CORETYPE acts only on the process that reads it, so
    each solve runs in a process of its own; where numpy has no
    OpenBLAS, the variable does nothing and the test passes."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    src = str(Path(solver.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    traces = [subprocess.run([sys.executable, "-c", CROSS_BLAS_SOLVE],
                             env=e, capture_output=True, text=True,
                             check=True).stdout
              for e in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"})]
    assert len(traces[0].split()) > 3 * 100  # the solve ran its rounds
    assert traces[0] == traces[1]


def test_a_node_cost_of_minus_zero_solves_as_plus_zero(grid2, loop_kernels,
                                                     monkeypatch):
    # an instance's costs turn -0.0 into +0.0, so no price is -0.0 and
    # no tie of signed zeros reaches the price step's clamp
    def at(cost):
        return Instance([Node(nd.nid, cost if nd.nid == 12 else nd.cost,
                              nd.pos) for nd in grid2.nodes],
                        grid2.edges, grid2.sessions)

    for kernel in loop_kernels:
        monkeypatch.setattr(edge_graph, "_load_kernel", lambda: kernel)
        (sol, trace), (want, want_trace) = (
            solve(at(cost), SolverConfig(tol=1e-12, max_iters=200))
            for cost in (-0.0, 0.0))
        for name in ("dual_bounds", "recovered_costs", "rel_gaps"):
            assert np.array(getattr(trace, name)).tobytes() == \
                np.array(getattr(want_trace, name)).tobytes()
        assert all(a.values.tobytes() == b.values.tobytes()
                   for a, b in zip(sol.flows, want.flows))
        assert sol.prices.values.tobytes() == want.prices.values.tobytes()
        assert not np.signbit(sol.prices.values).any()


def test_solve_is_deterministic(grid2):
    cfg = SolverConfig(tol=5e-3, max_iters=5000)
    sol_a, trace_a = solve(grid2, cfg)
    sol_b, trace_b = solve(grid2, cfg)
    assert trace_a.dual_bounds == trace_b.dual_bounds
    assert trace_a.rel_gaps == trace_b.rel_gaps
    for fa, fb in zip(sol_a.flows, sol_b.flows):
        assert np.array_equal(fa.values, fb.values)
    assert np.array_equal(sol_a.prices.values, sol_b.prices.values)


# ------------------------------------------------------------ configuration

def test_config_rejects_bad_values(grid2):
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(tol=0.0)
    with pytest.raises(TypeError, match="step_rule"):
        SolverConfig(step_rule="constant")  # the one rule is step_a / n
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError, match="step_a"):
        SolverConfig(step_a=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="step_a must be finite"):
            SolverConfig(step_a=bad)
        with pytest.raises(ValueError, match="tol must be finite"):
            SolverConfig(tol=bad)
    # counts must be integers and real fields numbers; a bool is neither
    for bad in (2.5, float("inf"), "3", True, None):
        with pytest.raises(ValueError,
                           match=r"max_iters must be an integer, got "):
            SolverConfig(max_iters=bad)
    for name in ("step_a", "tol"):
        for bad in ("1", True, None, 1j):
            with pytest.raises(ValueError,
                               match=rf"{name} must be a number, got "):
                SolverConfig(**{name: bad})
    assert SolverConfig(max_iters=np.int64(3), tol=np.float32(0.1),
                        step_a=2).max_iters == 3
    with pytest.raises(ValueError, match="step_a is too large for a float"):
        SolverConfig(step_a=10 ** 400)
    # a float32 step_a is stored as the float it equals, so alpha = step_a
    # / n is computed in double precision
    cfg = SolverConfig(step_a=np.float32(0.7), tol=1e-12, max_iters=30)
    assert type(cfg.step_a) is float and type(cfg.max_iters) is int
    _, trace = solve(grid2, cfg)
    _, want = solve(grid2, SolverConfig(step_a=float(np.float32(0.7)),
                                        tol=1e-12, max_iters=30))
    assert trace.alphas == want.alphas and trace.rel_gaps == want.rel_gaps


def test_trace_alphas_are_step_a_over_n(grid2):
    _, trace = solve(grid2, SolverConfig(step_a=2.0, tol=1e-12,
                                          max_iters=4))
    assert trace.iters == [1, 2, 3, 4]
    assert [trace.alphas[n - 1] for n in (1, 2, 4)] == [2.0, 1.0, 0.5]


def test_the_trace_grows_with_the_rounds_not_the_cap(relay3):
    """The trace grows with the rounds run, so a cap of 10**12 rounds
    sizes nothing."""
    cfg = SolverConfig(max_iters=10**12)
    solve(relay3, cfg)  # the kernel is built and loaded before the count
    tracemalloc.start()
    try:
        sol, trace = solve(relay3, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.certified and sol.iterations == 2 and len(trace) == 2
    assert peak < 1 << 20


def test_a_long_trace_is_the_same_on_every_path(grid2, loop_kernels,
                                                monkeypatch):
    """A solve of 150 rounds gives the same trace, by float.hex, under
    the compiled round, under _round and in the message-passing twin."""
    cfg = SolverConfig(tol=1e-12, max_iters=150)
    traces = []
    for kernel in loop_kernels:
        monkeypatch.setattr(edge_graph, "_load_kernel", lambda: kernel)
        traces.append(trace_hexes(solve(grid2, cfg)[1]))
        traces.append(trace_hexes(run_distributed_solve(
            grid2, cfg, SimSchedule("sync"))[1]))
    assert traces[0][0] == list(range(1, 151))
    assert all(trace == traces[0] for trace in traces)
