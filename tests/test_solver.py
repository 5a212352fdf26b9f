"""Price projection, subgradient updates, certified solve loop."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpool import (FlowVector, GeometricConfig, PriceVector, SolverConfig,
                     SolveTrace, build_edge_graph, build_expanded_graph,
                     enumerate_triples, generate_geometric, init_prices,
                     plain_routing_cost, primal_subproblem, solve, solver,
                     subgradient_step)
from carpool.model import Instance, Node, Session
from carpool.solver import NonFiniteError, _LoopState
from model_reference import (DenseLoopState, dense_aggregate, index_of,
                             pair_network, primal_subproblem_reference,
                             project_pair_reference, project_pairs_by_step,
                             rev_of, subgradient_step_reference,
                             validate_prices, worst_residual)


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
    return np.bincount(rows, weights=rates, minlength=len(idx))


def test_balanced_opposite_flows_leave_prices_alone(relay3_parts):
    g, idx = relay3_parts
    p0 = init_prices(idx)
    p1 = subgradient_step(p0, routed_total(g, idx, p0), 1, SolverConfig(),
                          idx)
    shared = index_of(idx)[(0, 1, 2)]
    assert p1.values[shared] == 0.5 == p1.values[rev_of(idx)[shared]]
    validate_prices(p1, idx)


def test_price_rises_with_flow_and_falls_opposite():
    single = Instance([Node(i, 1.0) for i in range(3)], [(0, 1), (1, 2)],
                      [Session("s1", 0, 2, 1.0)])
    g = build_expanded_graph(single)
    idx = enumerate_triples(g)
    p0 = init_prices(idx)
    p1 = subgradient_step(p0, routed_total(g, idx, p0), 1, SolverConfig(),
                          idx)
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
    p1 = subgradient_step(init_prices(idx), agg, 1, SolverConfig(), idx)
    assert p1.values[k] == pytest.approx(0.8)           # 0.5 + (1/2)*0.6
    assert p1.values[rev_of(idx)[k]] == pytest.approx(0.2)
    p2 = subgradient_step(init_prices(idx), agg, 2, SolverConfig(), idx)
    assert p2.values[k] == pytest.approx(0.65)          # alpha halves


def test_random_steps_stay_dual_feasible(relay3_parts):
    g, idx = relay3_parts
    rng = np.random.default_rng(3)
    p = init_prices(idx)
    for n in range(1, 30):
        flows = [FlowVector(s.sid, rng.uniform(0.0, 2.0, len(idx)))
                 for s in g.base.sessions]
        p = subgradient_step(p, dense_aggregate(flows, len(idx)), n,
                             SolverConfig(step_a=2.0), idx)
        validate_prices(p, idx)


def test_price_clamp_equals_np_clip_on_edge_values():
    # every forward price before the clamp against every pair cost a node
    # may have, 0.0 and -0.0 among them
    before = [-0.0, 0.0, 5e-324, math.nan, math.inf, -math.inf, 0.5, -1.0,
              1e308]
    costs = [0.0, -0.0, 5e-324, 1.0, 1e308]
    x, c = (np.array(v) for v in zip(*itertools.product(before, costs)))
    idx = pair_network(c)
    p = PriceVector(np.zeros(len(idx)))
    p.values[idx.pair_fwd] = x
    # net forward flow -0.0 - 0.0 = -0.0, and x + -0.0 is x, bit for bit
    agg = np.zeros(len(idx))
    agg[idx.pair_fwd] = -0.0
    got = subgradient_step(p, agg, 1, SolverConfig(), idx).values
    want = subgradient_step_reference(p, agg, 1, SolverConfig(), idx).values
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got[idx.pair_fwd]).any()  # a -0.0 reached the clamp
    assert np.isnan(got[idx.pair_fwd]).any()


def test_price_step_total_equals_the_dense_session_order_sum(monkeypatch):
    rng = np.random.default_rng(5)
    line = Instance([Node(i, 1.0) for i in range(3)], [(0, 1), (1, 2)],
                    [Session(f"s{t}", 0, 2, r) for t, r in
                     enumerate([0.1, 0.3, 0.7, 0.2, 1 / 3])])
    geo = generate_geometric(GeometricConfig(side=5.0, sessions=6, seed=4))
    geo = Instance(geo.nodes, geo.edges,
                   [Session(s.sid, s.source, s.dest, float(r)) for s, r in
                    zip(geo.sessions, rng.uniform(0.1, 3.0, 6))])
    steps = []

    def step(p, agg, n, cfg, idx, _step=solver.subgradient_step):
        steps.append((p, agg))
        return _step(p, agg, n, cfg, idx)

    monkeypatch.setattr(solver, "subgradient_step", step)
    shared = 0
    for inst in (line, geo):
        steps.clear()
        solve(inst, SolverConfig(tol=1e-12, max_iters=12))
        g = build_expanded_graph(inst)
        idx = enumerate_triples(g)
        h = build_edge_graph(g, idx)
        assert len(steps) == 12
        for p, agg in steps:
            flows, _ = primal_subproblem_reference(g, idx, p, h)
            assert agg.tobytes() == dense_aggregate(flows, len(idx)).tobytes()
            crossing = np.count_nonzero([f.values for f in flows], axis=0)
            shared = max(shared, int(crossing.max()))
    # on the line every session crosses the relay, and the five rates
    # sum to different floats forward and backward
    assert shared == 5


# ----------------------------------------------------------------- recovery

def ingest_dense(state, n, flows):
    """Feed _LoopState round n given as one dense flow per session."""
    x = np.array([f.values for f in flows])
    sessions, rows = np.nonzero(x)
    return state.ingest(n, sessions, rows, x[sessions, rows], 0.0)


def running_mean(g, idx, history):
    """The solve loop's recovered flows after ingesting every round."""
    state = _LoopState(g, idx, SolverConfig(), SolveTrace())
    for n, flows in enumerate(history, 1):
        ingest_dense(state, n, flows)
    return state.solution(init_prices(idx), len(history)).flows


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


def test_support_restricted_total_equals_the_sum_of_session_means():
    inst = generate_geometric(GeometricConfig(side=6.0, sessions=6, seed=9))
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    rng = np.random.default_rng(17)
    cfg = SolverConfig(tol=1e-12)
    state = _LoopState(g, idx, cfg, SolveTrace())
    dense = DenseLoopState(g, idx, cfg, SolveTrace())
    for n in range(1, 8):
        flows = []
        for s in inst.sessions:
            values = np.zeros(len(idx))
            # from a few triples, so that sessions overlap
            picked = rng.choice(20, 12, replace=False)
            values[picked] = rng.uniform(0.1, 3.0, 12)
            flows.append(FlowVector(s.sid, values))
        ingest_dense(state, n, flows)
        dense.ingest(n, flows, 0.0)
        # recovery ran on fewer entries than the S x T sums hold
        assert len(state.keys) < len(inst.sessions) * len(idx)
        for name in ("y", "z"):
            assert getattr(state.summary, name).tobytes() == \
                getattr(dense.summary, name).tobytes()
    assert state.trace.recovered_costs == dense.trace.recovered_costs
    got = state.solution(init_prices(idx), 7).flows
    assert [f.session for f in got] == [f.session for f in dense.mean]
    assert all(a.values.tobytes() == b.values.tobytes()
               for a, b in zip(got, dense.mean))


def recover_both(g, idx, rounds):
    """Feed each round to _LoopState and to DenseLoopState, which must
    agree bit for bit after every round.  A round lists, per session, the
    (row, value) pairs it carried, in route order.  The NonFiniteError
    message that stopped both at the same round, or None."""
    cfg = SolverConfig(tol=1e-12)
    state = _LoopState(g, idx, cfg, SolveTrace())
    dense = DenseLoopState(g, idx, cfg, SolveTrace())
    stopped = None
    # as in price_ascent, an overflow shows as a non-finite cost
    with np.errstate(over="ignore", invalid="ignore"):
        for n, carried in enumerate(rounds, 1):
            entries = [(t, k, x) for t, ks in enumerate(carried)
                       for k, x in ks]
            sessions = np.array([t for t, _, _ in entries], dtype=np.int64)
            rows = np.array([k for _, k, _ in entries], dtype=np.int64)
            values = np.array([x for _, _, x in entries], dtype=float)
            flows = []
            for s, ks in zip(g.base.sessions, carried):
                f = np.zeros(len(idx))
                f[[k for k, _ in ks]] = [x for _, x in ks]
                flows.append(FlowVector(s.sid, f))
            outcome = []
            for ingest in (lambda: state.ingest(n, sessions, rows, values,
                                                0.0),
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
    if stopped is None:
        got = state.solution(init_prices(idx), len(rounds)).flows
        assert [f.session for f in got] == [f.session for f in dense.mean]
        assert all(a.values.tobytes() == b.values.tobytes()
                   for a, b in zip(got, dense.mean))
    return stopped


@pytest.fixture(scope="module")
def geo4_parts(geo4):
    g = build_expanded_graph(geo4)
    return g, enumerate_triples(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_recovery_equals_the_dense_loop(geo4_parts, data):
    g, idx = geo4_parts
    # a few triples for all sessions to draw from, so that they share
    pool = data.draw(st.lists(st.integers(0, len(idx) - 1), min_size=1,
                              max_size=8, unique=True))
    # the odd fractions round when added and divided, the extremes
    # underflow or overflow
    value = st.one_of(st.sampled_from([5e-324, 1e308]),
                      st.integers(1, 10**9).map(lambda k: k / 7919),
                      st.floats(1e-3, 1e3))
    route = st.lists(st.tuples(st.sampled_from(pool), value), max_size=6,
                     unique_by=lambda e: e[0])
    rounds = data.draw(st.lists(
        st.lists(route, min_size=len(g.base.sessions),
                 max_size=len(g.base.sessions)), min_size=1, max_size=8))
    recover_both(g, idx, rounds)


def test_sparse_recovery_keeps_the_smallest_subnormal(geo4_parts):
    g, idx = geo4_parts
    tiny = [[(3, 5e-324), (7, 5e-324)], [(7, 5e-324)], [], [(3, 5e-324)]]
    assert recover_both(g, idx, [tiny, tiny, tiny]) is None


def test_sparse_recovery_overflows_at_the_dense_loops_round(geo4_parts):
    g, idx = geo4_parts
    huge = [[(3, 1e308)], [(7, 1.0)], [], []]
    assert recover_both(g, idx, [huge, huge, huge]) == (
        "iteration 2: recovered cost is inf; costs or rates are too large "
        "for float arithmetic")


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
    p1 = subgradient_step(p0, routed_total(g, idx, p0), 1, SolverConfig(),
                          idx)
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


def test_gap_keeps_shrinking(grid2):
    _, trace = solve(grid2, SolverConfig(tol=1e-12, max_iters=2000))
    assert len(trace) == 2000  # nothing certifies at 1e-12 here
    assert trace.rel_gaps[1999] <= trace.rel_gaps[199]


def test_solve_calls_each_layer_once_per_iteration_through_solver(
        relay3, grid2, monkeypatch):
    # bench/spans.py times these layers by wrapping carpool.solver's names
    calls = Counter()
    for name in ("primal_subproblem", "subgradient_step",
                 "transmission_summary", "total_cost"):
        def counted(*args, _name=name, _call=getattr(solver, name), **kw):
            calls[_name] += 1
            return _call(*args, **kw)
        monkeypatch.setattr(solver, name, counted)
    for inst, cfg in ((relay3, SolverConfig(tol=1e-4)),
                      (grid2, SolverConfig(tol=1e-12, max_iters=40))):
        calls.clear()
        sol, trace = solve(inst, cfg)
        n = sol.iterations
        assert len(trace) == n and n == (2 if inst is relay3 else 40)
        # the last round either certifies or hits the cap; the solution
        # costs its summary once more
        assert calls == {"primal_subproblem": n,
                         "subgradient_step": n - sol.certified,
                         "transmission_summary": n, "total_cost": n + 1}


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

def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError, match="step_rule"):
        SolverConfig(step_rule="weird")
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


def test_step_rules():
    cfg = SolverConfig(step_a=2.0)
    assert [cfg.alpha(n) for n in (1, 2, 4)] == [2.0, 1.0, 0.5]
    flat = SolverConfig(step_rule="constant", step_a=0.3)
    assert flat.alpha(17) == 0.3
