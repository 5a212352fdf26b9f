"""Edge-graph construction, priced shortest paths, primal sub-problem."""

import ctypes
import gc
import shutil
import subprocess
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpool import (FlowVector, GenerationError, GeometricConfig,
                     PriceVector, SolverConfig, build_edge_graph,
                     build_expanded_graph, builtin_instances, edge_graph,
                     enumerate_triples, generate_geometric, init_prices,
                     plain_routing_cost, primal_subproblem, solve)
from carpool.edge_graph import RouteSearch
from carpool.model import Instance, Node, Session
from carpool.solver import NonFiniteError
from model_reference import (arc_csr_reference, dominant_path, index_of,
                             ordered_pairs_reference, path_to_flow,
                             plain_routing_cost_reference, relaxation_labels,
                             rev_of, routes_copied, shortest_path,
                             solve_reference, triples_of, worst_residual)


def graph_parts(inst):
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    return g, idx, build_edge_graph(g, idx)


def unit_instance(n, edges, sessions=()):
    return Instance([Node(i, 1.0) for i in range(n)], edges, list(sessions))


def pinned_prices(idx, fixed):
    """Half-cost everywhere except explicitly fixed triples (+complement)."""
    vals = 0.5 * idx.cost.astype(float)
    row = index_of(idx)
    for trip, price in fixed.items():
        k = row[trip]
        vals[k] = price
        vals[rev_of(idx)[k]] = idx.cost[k] - price
    return PriceVector(vals)


def route_flows(g, idx, rows, start):
    """primal_subproblem's routes as one dense rate-scaled flow each."""
    flows = []
    for t, s in enumerate(g.base.sessions):
        values = np.zeros(len(idx))
        values[rows[start[t]:start[t + 1]]] = s.rate
        flows.append(FlowVector(s.sid, values))
    return flows


def dual_bound(h, p):
    """sum_t R_t * dist_t at prices p, added in session order."""
    q = 0.0
    for s, dist in zip(h.g.base.sessions, primal_subproblem(h, p)[0]):
        q += s.rate * float(dist)
    return q


@pytest.fixture(scope="module")
def relay3_parts(relay3):
    return graph_parts(relay3)


def python_labels(graph, wts, src, dst=-1):
    """The Python search's labels (dist, hops, pred) from src, read from
    the buffers of a one-session RouteSearch that stops at dst."""
    search = RouteSearch(None, *graph, [src], [dst])
    routes_copied(search, wts)
    return search.dist.tolist(), search.hops.tolist(), search.pred.tolist()


# ------------------------------------------------------------ construction

def test_path_graph_gives_two_arcs():
    g, idx, h = graph_parts(unit_instance(3, [(0, 1), (1, 2)]))
    assert h.vertices == [(0, 1), (1, 0), (1, 2), (2, 1)]
    arcs = {(h.vertices[idx.tail[k]], h.vertices[idx.head[k]])
            for k in range(len(idx))}
    assert arcs == {((0, 1), (1, 2)), ((2, 1), (1, 0))}


def test_isolated_edge_has_no_arcs():
    g, idx, h = graph_parts(unit_instance(2, [(0, 1)]))
    assert h.vertices == [(0, 1), (1, 0)]
    assert len(idx.head) == len(idx) == 0


def test_arcs_are_exactly_the_triples(relay3_parts):
    g, idx, h = relay3_parts
    assert len(idx.head) == len(idx)
    for k, (v, i, w) in enumerate(triples_of(idx)):
        assert h.vertices[idx.tail[k]] == (v, i)
        assert h.vertices[idx.head[k]] == (i, w)
    assert [h.vertices[v] for v in g.src_pair] == [(3, 0), (5, 2)]
    assert [h.vertices[v] for v in g.dst_pair] == [(2, 4), (0, 6)]


def assert_ranges_are_the_sorted_arcs(g, idx):
    """Each pair's arc range holds the rows that a stable sort of the
    tails groups under it, in the same order."""
    n_pairs = len(g.indices)
    order, bounds = arc_csr_reference(idx, n_pairs)
    for a in (idx.out_lo, idx.out_hi):
        assert a.dtype == np.int64 and a.flags.c_contiguous
        assert a.shape == (n_pairs,)
    for u, (lo, hi) in enumerate(zip(idx.out_lo.tolist(),
                                     idx.out_hi.tolist())):
        assert order[bounds[u]:bounds[u + 1]].tolist() == list(range(lo, hi))


@pytest.mark.parametrize("name", ["relay3", "grid2", "grid2rate", "geo4",
                                  "side15", "side20"])
def test_arc_ranges_equal_the_sorted_arcs(name):
    sizes = {"side15": (15.0, 2.0, 16), "side20": (20.0, 1.5, 32)}
    if name in sizes:
        side, intensity, sessions = sizes[name]
        inst = generate_geometric(GeometricConfig(
            side=side, intensity=intensity, sessions=sessions, seed=1))
    else:
        inst = builtin_instances()[name]
    g, idx, _ = graph_parts(inst)
    assert_ranges_are_the_sorted_arcs(g, idx)


# ------------------------------------------------------------------- paths

def test_relay3_path_at_initial_prices(relay3_parts):
    g, idx, h = relay3_parts
    sp = shortest_path(h, init_prices(idx), 0)
    assert sp.vertices == [(3, 0), (0, 1), (1, 2), (2, 4)]
    assert sp.weight == 1.5
    assert [triples_of(idx)[k] for k in sp.triples] == \
        [(3, 0, 1), (0, 1, 2), (1, 2, 4)]


def test_weight_equals_sum_of_arc_prices(relay3_parts):
    g, idx, h = relay3_parts
    p = init_prices(idx)
    for t in range(2):
        sp = shortest_path(h, p, t)
        assert sp.weight == pytest.approx(sum(p.values[sp.triples]),
                                          abs=1e-12)


def test_equal_price_breaks_to_fewer_hops():
    ring = Instance([Node(i, 0.0) for i in range(5)],
                    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
                    [Session("s1", 0, 4, 1.0)])
    g, idx, h = graph_parts(ring)
    sp = shortest_path(h, init_prices(idx), 0)  # all prices zero
    assert sp.vertices == [(5, 0), (0, 4), (4, 6)]


def test_equal_price_equal_hops_breaks_to_smaller_predecessor():
    dia = unit_instance(4, [(0, 1), (0, 2), (1, 3), (2, 3)],
                        [Session("s1", 0, 3, 1.0)])
    g, idx, h = graph_parts(dia)
    sp = shortest_path(h, init_prices(idx), 0)
    assert sp.vertices == [(4, 0), (0, 1), (1, 3), (3, 5)]


def test_price_dominates_hop_count():
    tri = unit_instance(3, [(0, 1), (0, 2), (1, 2)],
                        [Session("s1", 0, 2, 1.0)])
    g, idx, h = graph_parts(tri)
    p = pinned_prices(idx, {(3, 0, 2): 1.0, (3, 0, 1): 0.0,
                            (0, 1, 2): 0.0, (1, 2, 4): 0.0})
    sp = shortest_path(h, p, 0)
    assert sp.vertices == [(3, 0), (0, 1), (1, 2), (2, 4)]
    assert sp.weight == 0.0


def test_paths_never_relay_through_foreign_terminals():
    inst = generate_geometric(GeometricConfig(side=4.0, sessions=3, seed=2))
    g, idx, h = graph_parts(inst)
    for t in range(3):
        sp = shortest_path(h, init_prices(idx), t)
        interior = [a for pair in sp.vertices[1:-1] for a in pair]
        assert all(a < g.n_base for a in interior)


# --------------------------------------------------------- primal solution

def test_primal_subproblem_bound_at_initial_prices(relay3_parts):
    g, idx, h = relay3_parts
    _, start, rows = primal_subproblem(h, init_prices(idx))
    flows = route_flows(g, idx, rows, start)
    assert dual_bound(h, init_prices(idx)) == 3.0
    assert [f.session for f in flows] == ["s1", "s2"]
    assert worst_residual(flows, g, idx) == 0.0


def test_path_to_flow_conserves_exactly():
    inst = generate_geometric(GeometricConfig(side=4.0, sessions=2, seed=5))
    g, idx, h = graph_parts(inst)
    p = init_prices(idx)
    for t, s in enumerate(inst.sessions):
        flow = path_to_flow(shortest_path(h, p, t), s.rate, idx)
        assert worst_residual([flow], g, idx) == 0.0


def test_bound_is_concave_in_prices(relay3_parts):
    g, idx, h = relay3_parts
    rng = np.random.default_rng(7)
    for _ in range(20):
        ua, ub = rng.uniform(0.0, idx.pair_cost, (2, len(idx.pair_cost)))
        qs = []
        for u in (ua, ub):
            vals = np.empty(len(idx))
            vals[idx.pair_fwd] = u
            vals[idx.pair_rev] = idx.pair_cost - u
            qs.append((PriceVector(vals), dual_bound(h, PriceVector(vals))))
        for lam in (0.25, 0.5, 0.75):
            mix = PriceVector(lam * qs[0][0].values
                              + (1 - lam) * qs[1][0].values)
            q_mix = dual_bound(h, mix)
            assert q_mix >= lam * qs[0][1] + (1 - lam) * qs[1][1] - 1e-9


# ---------------------------------------------- label-correcting cross-check

def test_fifo_relaxation_matches_priority_labels():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(4, 11))
        edges = {(int(a), int(a + 1)) for a in range(n - 1)}  # spine
        for _ in range(n):
            a, b = sorted(rng.integers(0, n, 2).tolist())
            if a != b:
                edges.add((a, b))
        inst = unit_instance(n, sorted(edges))
        g, idx, h = graph_parts(inst)
        u = rng.uniform(0.0, idx.pair_cost)
        vals = np.empty(len(idx))
        vals[idx.pair_fwd] = u
        vals[idx.pair_rev] = idx.pair_cost - u
        wts = vals.tolist()
        assert_ranges_are_the_sorted_arcs(g, idx)
        graph = idx.out_lo.tolist(), idx.out_hi.tolist(), idx.head.tolist()
        for src in range(len(h.vertices)):
            assert relaxation_labels(*graph, wts, src) == \
                python_labels((idx.out_lo, idx.out_hi, idx.head), vals, src)


# ------------------------------------------------------------ flow reading

def test_dominant_path_of_a_single_route(relay3_parts):
    g, idx, h = relay3_parts
    _, start, rows = primal_subproblem(h, init_prices(idx))
    dom = dominant_path(h, route_flows(g, idx, rows, start)[0], 0)
    assert dom.vertices == [(3, 0), (0, 1), (1, 2), (2, 4)]
    assert dom.weight == 3.0  # transmission cost, not price


def test_dominant_path_rejects_vanishing_flow(relay3_parts):
    g, idx, h = relay3_parts
    with pytest.raises(ValueError, match="dies out"):
        dominant_path(h, FlowVector("s1", np.zeros(len(idx))), 0)


# ---------------------------------------------------- compiled kernel

def random_graph(rng, n_lo=4, n_hi=11):
    """A spine, random chords, and sometimes a detached pair of nodes."""
    n = int(rng.integers(n_lo, n_hi))
    edges = {(a, a + 1) for a in range(n - 1)}
    for _ in range(n):
        a, b = sorted(rng.integers(0, n, 2).tolist())
        if a != b:
            edges.add((a, b))
    if rng.random() < 0.3:
        edges.add((n, n + 1))
        n += 2
    return n, sorted(edges)


def random_weights(rng, size, huge=0.1):
    """Uniform weights with about 30% zeros and a share above 1e308, so
    that ties are common and any two huge weights sum to inf."""
    w = rng.uniform(0.0, 2.0, size)
    pick = rng.random(size)
    w[pick < 0.3] = 0.0
    big = pick > 1.0 - huge
    w[big] = rng.uniform(1.0e308, 1.7e308, int(big.sum()))
    return w


def draws(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, edges = random_graph(rng)
        yield rng, n, edges


# Weights whose bit patterns stress the kernel's two-word keys: many
# sums tie on the distance word and are ordered by hops and vertex, and
# the draw covers -0.0, the smallest denormal, the next double after 1,
# sums that overflow to inf, and inf and NaN arcs.
TIE_WEIGHTS = np.array([0.0, -0.0, 5e-324, 0.25, 0.5, 1.0, 1 + 2**-52,
                        2.0**1000, 1.7e308, np.inf, np.nan])


def test_kernel_labels_and_rows_equal_dijkstra(kernel):
    unreachable = 0
    ties = np.random.default_rng(12)
    for rng, n, edges in draws(11, 40):
        g, idx, h = graph_parts(unit_instance(n, edges))
        graph = (idx.out_lo, idx.out_hi, idx.head)
        nv = len(h.vertices)
        for w, pick in ((random_weights(rng, len(idx)), rng),
                        (ties.choice(TIE_WEIGHTS, len(idx)), ties)):
            for src in range(nv):
                # full tree
                search = RouteSearch(kernel, *graph, [src], [-1])
                routes_copied(search, w)
                dist, hops, pred = python_labels(graph, w, src)
                assert search.dist.tobytes() == np.array(dist).tobytes()
                assert search.hops.tolist() == hops
                assert search.pred.tolist() == pred
                # early stop at every destination
                srcs, dsts = [src] * nv, list(range(nv))
                qdist, start, rows = routes_copied(
                    RouteSearch(kernel, *graph, srcs, dsts), w)
                ref_dist, ref_start, ref_rows = routes_copied(
                    RouteSearch(None, *graph, srcs, dsts), w)
                assert qdist.tobytes() == ref_dist.tobytes()
                for t in range(nv):
                    assert rows[start[t]:start[t + 1]].tolist() == \
                        ref_rows[ref_start[t]:ref_start[t + 1]].tolist()
                unreachable += int(np.isinf(qdist).sum())
                dst = int(pick.integers(0, nv))
                search = RouteSearch(kernel, *graph, [src], [dst])
                routes_copied(search, w)
                dist, hops, pred = python_labels(graph, w, src, dst)
                assert search.dist.tobytes() == np.array(dist).tobytes()
                assert search.hops.tolist() == hops
                assert search.pred.tolist() == pred
    assert unreachable > 0


def random_instance(rng, n, edges):
    """Node costs with zeros and near-1e308 values; sessions within one
    component."""
    costs = random_weights(rng, n, huge=0.4)
    nodes = [Node(i, float(c)) for i, c in enumerate(costs)]
    comp = list(range(n - 2)) if (n - 2, n - 1) in edges else list(range(n))
    sessions = []
    for t in range(int(rng.integers(1, 4))):
        s, d = rng.choice(comp, 2, replace=False).tolist()
        sessions.append(Session(f"s{t + 1}", s, d, float(rng.uniform(0.5, 2))))
    return Instance(nodes, edges, sessions)


def baseline_or_error(routing, inst):
    try:
        return routing(inst)
    except NonFiniteError as exc:
        return str(exc)


@pytest.mark.parametrize("compiled", [True, False], ids=["C", "python"])
def test_baseline_equals_its_loop_oracle(kernel, compiled):
    errors = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edge_graph, "_load_kernel",
                   lambda: kernel if compiled else None)
        for rng, n, edges in draws(11, 40):
            inst = random_instance(rng, n, edges)
            got = baseline_or_error(plain_routing_cost, inst)
            want = baseline_or_error(plain_routing_cost_reference, inst)
            assert got == want
            errors += isinstance(got, str)
    assert errors > 0  # some draws overflow every route to inf


def run_digest(inst, cfg, run=None):
    if run is None:
        sol, trace = solve(inst, cfg)
        flows, prices = sol.flows, sol.prices
    else:
        trace, flows, prices = run(inst, cfg)
    return (trace.iters, [np.array(col).tobytes() for col in (
        trace.alphas, trace.dual_bounds, trace.best_bounds,
        trace.recovered_costs, trace.rel_gaps)],
        [(f.session, f.values.tobytes()) for f in flows],
        prices.values.tobytes())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sessions=st.integers(1, 3),
       costs=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]),
                      min_size=40, max_size=40),
       rates=st.lists(st.sampled_from([0.1, 0.3, 1.0, 1 / 3, 2.5]),
                      min_size=3, max_size=3))
def test_solve_is_bit_identical_with_kernel_and_fallback(kernel, seed,
                                                         sessions, costs,
                                                         rates):
    """solve() gives the dense loop oracle's trace, flows and prices bit
    for bit, under the compiled kernel and under the Python search."""
    try:
        base = generate_geometric(GeometricConfig(side=4.0,
                                                  sessions=sessions,
                                                  seed=seed))
    except GenerationError:
        return
    inst = Instance([Node(nd.nid, costs[nd.nid % len(costs)], nd.pos)
                     for nd in base.nodes], base.edges,
                    [Session(s.sid, s.source, s.dest, r)
                     for s, r in zip(base.sessions, rates)])
    cfg = SolverConfig(tol=1e-3, max_iters=60)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edge_graph, "_load_kernel", lambda: kernel)
        compiled = run_digest(inst, cfg)
        oracle = run_digest(inst, cfg, solve_reference)
        mp.setattr(edge_graph, "_load_kernel", lambda: None)
        fallback = run_digest(inst, cfg)
        assert run_digest(inst, cfg, solve_reference) == oracle
    assert compiled == oracle
    assert fallback == oracle


@pytest.mark.parametrize("rate", [4, Fraction(7, 3)], ids=["int", "Fraction"])
def test_solve_converts_rates_that_are_not_floats(loop_kernels, rate):
    """Rates of another real type solve as their floats do, bit for bit:
    the rounds read every rate as a double."""
    base = builtin_instances()["grid2rate"]

    def with_rates(convert):
        return Instance(base.nodes, base.edges,
                        [Session(s.sid, s.source, s.dest, convert(r))
                         for s, r in zip(base.sessions, (1, rate))])
    cfg = SolverConfig(tol=1e-3, max_iters=60)
    with pytest.MonkeyPatch.context() as mp:
        for kernel in loop_kernels:
            mp.setattr(edge_graph, "_load_kernel", lambda: kernel)
            assert run_digest(with_rates(lambda r: r), cfg) == \
                run_digest(with_rates(float), cfg)


# ---------------------------------------------------- route search checks

@pytest.mark.parametrize("compiled", [True, False], ids=["C", "python"])
def test_route_search_checks_its_graph_once_and_weights_always(kernel,
                                                               compiled):
    g, idx, h = graph_parts(builtin_instances()["grid2"])
    fn = kernel if compiled else None
    lo, hi, heads = graph = (idx.out_lo, idx.out_hi, idx.head)
    nv, m = len(h.vertices), len(idx)
    for src, dst in (([nv], [0]), ([-1], [0]), ([0], [nv]), ([0, 1], [2])):
        with pytest.raises(ValueError, match="session end"):
            RouteSearch(fn, *graph, src, dst)
    with pytest.raises(TypeError, match="contiguous 1-d int64"):
        RouteSearch(fn, lo.astype(np.int32), hi, heads, [0], [1])
    with pytest.raises(TypeError, match="contiguous 1-d int64"):
        RouteSearch(fn, lo, hi, heads.reshape(1, -1), [0], [1])
    # the ranges the kernel refuses with status -5, refused by both
    u = int(np.argmax(hi > lo))  # a vertex with arcs
    for which, at, value, name in ((1, -1, m + 1, "hi"),  # past the arcs
                                   (0, 0, -1, "lo"),
                                   (0, u, hi[u] + 1, "lo"),  # lo > hi
                                   (1, u, lo[u] - 1, "lo"),
                                   (2, 7, nv, "heads"), (2, 0, -1, "heads")):
        bad = [a.copy() for a in graph]
        bad[which][at] = value
        with pytest.raises(ValueError, match=f"^route search {name} out "):
            RouteSearch(fn, *bad, [0], [1])
    with pytest.raises(ValueError, match="^route search hi out "):
        RouteSearch(fn, lo, hi[:-1].copy(), heads, [0], [1])  # short
    search = RouteSearch(fn, *graph, g.src_pair, g.dst_pair)
    w = init_prices(idx).values
    with pytest.raises(ValueError, match="weights for"):
        routes_copied(search, w[:-1])
    with pytest.raises(TypeError, match="float64"):
        routes_copied(search, w.astype(np.float32))
    with pytest.raises(TypeError, match="contiguous"):
        routes_copied(search, np.repeat(w, 2)[::2])
    first = routes_copied(search, w)
    kept = [a.copy() for a in first]
    # a later call leaves earlier results alone
    routes_copied(search, np.zeros_like(w))
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))
    # a negative destination searches the whole graph: distance 0, no arcs
    qdist, start, rows = routes_copied(
        RouteSearch(fn, *graph, list(range(nv)), [-1] * nv), w)
    assert qdist.tolist() == [0.0] * nv
    assert start.tolist() == [0] * (nv + 1) and rows.size == 0


@pytest.mark.parametrize("compiled", [True, False], ids=["C", "python"])
def test_kernel_failure_raises(kernel, compiled):
    g, idx, h = graph_parts(builtin_instances()["grid2"])
    fn = kernel if compiled else None
    graph = [a.copy() for a in (idx.out_lo, idx.out_hi, idx.head)]
    search = RouteSearch(fn, *graph, g.src_pair, g.dst_pair)
    w = init_prices(idx).values.copy()
    _, start, rows = routes_copied(search, w)
    k = int(rows[start[0]])  # an arc of session 0's route
    for accepted in (-0.0, np.inf, np.nan):
        w[k] = accepted
        routes_copied(search, w)
    w[k] = -0.25  # no cycle, but a radix heap cannot take the key
    with pytest.raises(ValueError,
                       match=f"^weight -0.25 of arc {k} is negative; "):
        routes_copied(search, w)
    if compiled:  # the kernel checks the ranges again on every call
        graph[1][-1] = len(idx) + 1  # past the end of the arc list
        with pytest.raises(RuntimeError, match="status -5"):
            routes_copied(search, init_prices(idx).values)


@pytest.mark.parametrize("compiled", [True, False], ids=["C", "python"])
def test_a_search_is_one_call_on_its_frame(kernel, compiled):
    """The kernel's routes take one pointer, the address of the search's
    frame; _routes takes the search.  Called on the same search, the two
    fill the same buffers and return the same status codes."""
    g, idx, _ = graph_parts(builtin_instances()["grid2"])
    graph = (idx.out_lo, idx.out_hi, idx.head)
    search = RouteSearch(kernel if compiled else None, *graph, g.src_pair,
                         g.dst_pair)
    assert kernel.routes.argtypes == [ctypes.c_void_p]
    assert (search.fn, search.ref) == (
        (kernel.routes, ctypes.addressof(search.frame)) if compiled
        else (edge_graph._routes, search))
    for name in ("lo", "hi", "heads", "src", "dst", "dist", "hops", "pred",
                 "qdist", "start", "rows"):
        assert getattr(search.frame, name) == \
            getattr(search, name).ctypes.data, name
    w = init_prices(idx).values.copy()
    _, start, _ = search.run(w)
    assert search.frame.w == w.ctypes.data

    def fill(fn, ref):
        for a in (search.dist, search.qdist, search.hops, search.pred,
                  search.start, search.rows):
            a.fill(-7)
        status = fn(ref)
        return status, [a.tobytes() for a in (
            search.dist, search.qdist, search.hops, search.pred,
            search.start, search.rows)]

    full = search.frame.cap
    negative = w.copy()
    negative[3] = -1.0
    for wts, cap, status in ((w, full, 0), (negative, full, -2),
                             (w, int(start[-1]) - 1, -3)):
        search.wts = wts
        search.frame.w = wts.ctypes.data
        search.frame.cap = cap
        got = fill(kernel.routes, ctypes.addressof(search.frame))
        assert got[0] == status
        assert fill(edge_graph._routes, search) == got
    search.frame.cap = full


@pytest.mark.parametrize("compiled", [True, False], ids=["C", "python"])
def test_route_search_keeps_its_arrays_alive(kernel, compiled):
    """A search built from arrays and lists that nothing else holds gives
    the bits of one built on arrays the caller keeps, even after a
    collection and new arrays of every size it allocated or copied: the
    search holds each array whose address the kernel writes or reads."""
    g, idx, _ = graph_parts(builtin_instances()["grid2"])
    fn = kernel if compiled else None
    graph = (idx.out_lo, idx.out_hi, idx.head)
    held = RouteSearch(fn, *graph, g.src_pair, g.dst_pair)
    alone = RouteSearch(fn, *(a.copy() for a in graph), g.src_pair.tolist(),
                        g.dst_pair.tolist())
    gc.collect()
    nv, ns = len(idx.out_lo), len(g.src_pair)
    sizes = {len(idx.head), nv, ns, ns + 1, ns * (nv - 1)}
    filler = [np.full(size, fill, dtype)
              for size in sizes for fill, dtype in ((-7, np.int64),
                                                    (-7.5, np.float64))]
    w = init_prices(idx).values
    assert [a.tobytes() for a in routes_copied(alone, w)] == \
        [a.tobytes() for a in routes_copied(held, w)]
    assert [a.tobytes() for a in (alone.dist, alone.hops, alone.pred)] == \
        [a.tobytes() for a in (held.dist, held.hops, held.pred)]
    assert all((a == a.flat[0]).all() for a in filler)  # nothing wrote them


@pytest.mark.parametrize("compiled", [True, False], ids=["C", "python"])
def test_route_search_reads_the_weights_at_each_call(kernel, compiled):
    """A search keeps the last weight array it was given and its address.
    That array changed in place between calls routes as a new search on
    a copy of it does, two arrays in turn each route as their own, and no
    call changes what an earlier one returned."""
    g, idx, _ = graph_parts(builtin_instances()["grid2"])
    fn = kernel if compiled else None
    graph = (idx.out_lo, idx.out_hi, idx.head)
    search = RouteSearch(fn, *graph, g.src_pair, g.dst_pair)
    rng = np.random.default_rng(11)
    w = init_prices(idx).values.copy()
    other = rng.uniform(0.0, 2.0, len(idx))
    results = []

    def check(wts):
        got = routes_copied(search, wts)
        alone = routes_copied(RouteSearch(fn, *graph, g.src_pair,
                                          g.dst_pair), wts.copy())
        assert [a.tobytes() for a in got] == [a.tobytes() for a in alone]
        results.append((got, [a.copy() for a in got]))

    check(w)
    for _ in range(4):  # the same array, changed in place
        w *= rng.uniform(0.0, 2.0, len(idx))
        check(w)
    for _ in range(3):  # two arrays in turn
        check(other)
        check(w)
        other *= rng.uniform(0.0, 2.0, len(idx))
    assert len({got[0].tobytes() for got, _ in results}) > 5  # routes moved
    for got, kept in results:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in kept]


@pytest.mark.parametrize("compiled", [True, False], ids=["C", "python"])
def test_parallel_arcs_route_along_the_arc_that_set_the_label(kernel,
                                                              compiled):
    """Two arcs 0 -> 1: the route takes the one that set the label, and on
    a tie the first, which keeps the label."""
    graph = (np.array([0, 2]), np.array([2, 2]), np.array([1, 1]))
    search = RouteSearch(kernel if compiled else None, *graph, [0], [1])
    for wts, row in (([5.0, 1.0], 1), ([1.0, 1.0], 0)):
        qdist, start, rows = routes_copied(search, np.array(wts))
        assert (qdist.tolist(), start.tolist(), rows.tolist()) == \
            ([1.0], [0, 1], [row])


def test_arc_blocks_out_of_vertex_order(kernel):
    """The edge graph's layout: each vertex's arcs are one block of rows,
    the blocks run in another order than the vertices, and a vertex may
    have none.  Both searches give the same labels and routes on it."""
    # rows 0-1 leave vertex 2, rows 2-4 vertex 0 and row 5 vertex 1;
    # vertex 3 has none, and rows 2 and 3 are parallel arcs 0 -> 1
    graph = (np.array([2, 5, 0, 6]), np.array([5, 6, 2, 6]),
             np.array([3, 1, 1, 1, 2, 3]))
    w = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    for fn in (kernel, None):
        qdist, start, rows = routes_copied(
            RouteSearch(fn, *graph, [0, 0, 2], [1, 3, 3]), w)
        assert qdist.tolist() == [1.0, 1.0, 1.0]
        assert (start.tolist(), rows.tolist()) == ([0, 1, 3, 4], [2, 4, 0, 0])
    rng = np.random.default_rng(5)
    for w in [w, *rng.choice([0.0, 0.5, 1.0], (30, 6))]:
        for src in range(4):
            ends = [src] * 4, [0, 1, 2, 3]
            got = routes_copied(RouteSearch(kernel, *graph, *ends), w)
            want = routes_copied(RouteSearch(None, *graph, *ends), w)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            search = RouteSearch(kernel, *graph, [src], [-1])
            routes_copied(search, w)
            assert (search.dist.tolist(), search.hops.tolist(),
                    search.pred.tolist()) == python_labels(graph, w, src)


def test_kernel_is_portable_c(tmp_path):
    """The kernel builds as strict C99 with every warning an error, so a
    cc without GNU extensions builds it too instead of falling back to
    the much slower Python search."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    source = Path(edge_graph.__file__).with_name("_subproblem.c")
    done = subprocess.run(
        [cc, *edge_graph.CC_FLAGS, "-std=c99", "-Wall", "-Wextra",
         "-Wpedantic", "-Werror", "-o", str(tmp_path / "kernel.so"),
         str(source)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_solve_never_lists_the_ordered_pairs(grid2, monkeypatch):
    def refuse(g):
        raise AssertionError("ordered_pairs called")
    monkeypatch.setattr(edge_graph, "ordered_pairs", refuse)
    sol, _ = solve(grid2, SolverConfig(tol=1e-12, max_iters=5))
    assert sol.iterations == 5
    monkeypatch.undo()
    g, idx, h = graph_parts(grid2)
    assert "vertices" not in vars(h)
    assert h.vertices == ordered_pairs_reference(g)


def test_primal_subproblem_builds_one_search_per_graph(relay3_parts):
    g, idx, h = relay3_parts
    p = init_prices(idx)
    h.search = None
    # the three arrays are the search's buffers, which the next call
    # overwrites
    first = [a.copy() for a in primal_subproblem(h, p)]
    search = h.search
    assert search is not None
    again = primal_subproblem(h, p)
    assert h.search is search
    assert again[0] is search.qdist and again[1] is search.start
    assert again[2] is search.rows
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
