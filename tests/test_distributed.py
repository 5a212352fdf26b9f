"""Message-passing simulator: equivalence, locality, quiescence."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from carpool import (GeometricConfig, MessageStats, PriceVector,
                     SimSchedule, Simulator, SolverConfig, distributed,
                     build_edge_graph, edge_graph, build_expanded_graph,
                     distributed_price_update,
                     distributed_shortest_paths,
                     enumerate_triples, generate_geometric, init_prices,
                     primal_subproblem, run_distributed_solve, solve,
                     solver, subgradient_step)
from carpool.distributed import (FLOW_BYTES, LABEL_BYTES, QuiescenceError,
                                 _flow_notification, _message_round)
from carpool.model import Instance, Node, Session


def traces_equal(a, b):
    return (a.iters == b.iters and a.alphas == b.alphas
            and a.dual_bounds == b.dual_bounds
            and a.best_bounds == b.best_bounds
            and a.recovered_costs == b.recovered_costs
            and a.rel_gaps == b.rel_gaps)


def flows_equal(a, b):
    return all(fa.session == fb.session and np.array_equal(fa.values,
                                                           fb.values)
               for fa, fb in zip(a, b))


@pytest.fixture(scope="module")
def geo5():
    return generate_geometric(GeometricConfig(side=4.0, sessions=2, seed=5))


def test_relay3_runs_match_bit_for_bit(relay3, relay3_run):
    sol, trace, _ = relay3_run
    dsol, dtrace, stats = run_distributed_solve(
        relay3, SolverConfig(tol=1e-4, max_iters=2000), SimSchedule("sync"))
    assert flows_equal(dsol.flows, sol.flows)
    assert np.array_equal(dsol.prices.values, sol.prices.values)
    assert traces_equal(dtrace, trace)
    assert (dsol.expanded_cost, dsol.physical_cost) == \
        (sol.expanded_cost, sol.physical_cost)
    assert stats.label_messages + stats.flow_messages == stats.delivered


def test_relay3_message_economy(relay3):
    # two iterations: one label flood + one flow notification each
    _, _, stats = run_distributed_solve(
        relay3, SolverConfig(tol=1e-4, max_iters=2000), SimSchedule("sync"))
    assert stats.label_messages == 20
    assert stats.flow_messages == 12
    assert stats.rounds == 14
    assert stats.delivered == 32
    assert stats.bytes_estimate == (LABEL_BYTES * 20 + FLOW_BYTES * 12)
    assert [d["iteration"] for d in stats.per_iteration] == [1, 2]
    assert sum(d["label_messages"] for d in stats.per_iteration) == 20
    assert sum(d["rounds"] for d in stats.per_iteration) == stats.rounds


def test_geo_runs_match_bit_for_bit(geo5):
    cfg = SolverConfig(tol=1e-2, max_iters=5000)
    sol, trace = solve(geo5, cfg)
    dsol, dtrace, stats = run_distributed_solve(geo5, cfg, SimSchedule("sync"))
    assert flows_equal(dsol.flows, sol.flows)
    assert np.array_equal(dsol.prices.values, sol.prices.values)
    assert traces_equal(dtrace, trace)
    assert stats.label_messages + stats.flow_messages == stats.delivered


def test_async_activation_orders_change_nothing(geo5):
    cfg = SolverConfig(tol=1e-2, max_iters=5000)
    base_sol, base_trace, _ = run_distributed_solve(geo5, cfg,
                                                    SimSchedule("sync"))
    for seed in (1, 2, 3):
        sol, trace, stats = run_distributed_solve(
            geo5, cfg, SimSchedule("async", seed=seed))
        assert flows_equal(sol.flows, base_sol.flows)
        assert np.array_equal(sol.prices.values, base_sol.prices.values)
        assert traces_equal(trace, base_trace)
        assert stats.label_messages + stats.flow_messages == \
            stats.delivered


# (iterations, label, flow, rounds, delivered, bytes) of whole runs at
# tol 2e-2, frozen so that a faster simulator must send the same traffic
TRAFFIC = {
    ("grid2rate", "sync"): (95, 30760, 1528, 1812, 32288, 1279296),
    ("grid2rate", "async"): (95, 31047, 1528, 1720, 32575, 1290776),
    ("grid2", "sync"): (179, 72602, 2874, 3406, 75476, 2996048),
    ("grid2", "async"): (179, 62089, 2874, 3214, 64963, 2575528),
    ("geo4", "sync"): (82, 69900, 2756, 2064, 72656, 2884192),
    ("geo4", "async"): (82, 82135, 2756, 1874, 84891, 3373592),
}


@pytest.mark.parametrize("name, mode", list(TRAFFIC))
def test_builtin_traffic_is_frozen(named, name, mode):
    schedule = SimSchedule("sync") if mode == "sync" \
        else SimSchedule("async", seed=3)
    _, _, stats = run_distributed_solve(
        named[name], SolverConfig(tol=2e-2, max_iters=2000), schedule)
    assert (len(stats.per_iteration), stats.label_messages,
            stats.flow_messages, stats.rounds, stats.delivered,
            stats.bytes_estimate) == TRAFFIC[name, mode]


def test_twin_calls_each_layer_once_per_iteration(relay3, grid2,
                                                  loop_kernels, count_rounds,
                                                  monkeypatch):
    # bench/spans.py times the twin's layers by wrapping these names, the
    # price step too, and both front ends run the one loop, price_ascent;
    # the compiled round makes the summary, its cost and the step in its
    # one call
    calls = Counter()
    for module, name in ((distributed, "distributed_shortest_paths"),
                         (distributed, "distributed_price_update"),
                         (distributed, "price_ascent"),
                         (solver, "price_ascent"),
                         (solver, "subgradient_step"),
                         (solver, "transmission_summary"),
                         (solver, "total_cost")):
        def counted(*args, _name=name, _call=getattr(module, name), **kw):
            calls[_name] += 1
            return _call(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    for kernel in loop_kernels:
        counted_kernel = count_rounds(kernel, calls)
        monkeypatch.setattr(edge_graph, "_load_kernel",
                            lambda: counted_kernel)
        for inst, cfg in ((relay3, SolverConfig(tol=1e-4)),
                          (grid2, SolverConfig(tol=1e-12, max_iters=40))):
            calls.clear()
            sol, _ = solve(inst, cfg)
            n = sol.iterations
            step = ({"subgradient_step": n, "transmission_summary": n,
                     "total_cost": n}
                    if kernel is None else {"round": n})
            assert calls == {"price_ascent": 1, **step}
            calls.clear()
            sol, trace, _ = run_distributed_solve(inst, cfg)
            n = sol.iterations
            assert len(trace) == n and n == (2 if inst is relay3 else 40)
            # every round steps, and one that certifies puts its prices
            # back; the compiled round costs its summary itself, and the
            # solution takes the last round's cost
            step = ({"subgradient_step": n, "transmission_summary": n,
                     "total_cost": n}
                    if kernel is None else {"round": n})
            assert calls == {"price_ascent": 1,
                             "distributed_shortest_paths": n,
                             "distributed_price_update": n, **step}


def test_price_updates_track_the_centralized_iterates(geo5):
    for iters in (1, 3):
        cfg = SolverConfig(tol=1e-12, max_iters=iters)
        sol, _ = solve(geo5, cfg)
        dsol, _, _ = run_distributed_solve(geo5, cfg, SimSchedule("sync"))
        assert np.array_equal(dsol.prices.values, sol.prices.values)


def test_sends_are_refused_between_non_neighbours(relay3):
    g = build_expanded_graph(relay3)
    idx = enumerate_triples(g)
    sim = Simulator(g, idx, SimSchedule("sync"))
    for handle, kind in ((sim.relax, "label"), (sim.pass_on, "flow")):
        # a message between neighbours, then one that skips node 1
        sim.staging += [(0, 1, 0, 0, 0.0, 0), (0, 2, 0, 0, 0.0, 0)]
        with pytest.raises(RuntimeError,
                           match=f"message {kind} from 0 to non-neighbour 2"):
            sim.run(handle, kind)
        # the refused batch is neither counted nor left anywhere
        assert sim.stats == MessageStats()
        assert not any(sim.inbox) and not sim.waiting and not sim.staging
    # a legitimate run sends between neighbours only, so it completes
    sol, _, _ = run_distributed_solve(relay3, SolverConfig(tol=1e-4))
    assert sol.certified


def misdirect_an_offer(sim: Simulator):
    """Point the last arc leaving session 0's source vertex (v, i) at a
    vertex whose second node is not a neighbour of i, so that i's offer
    over it is refused; return a function that puts the arc back."""
    src = int(sim.g.src_pair[0])
    i = sim.vertices[src][1]
    out = sim.out[src]
    assert len(out) >= 2
    bad = next(x for x, (_, w) in enumerate(sim.vertices)
               if w != i and w not in sim.adjset[i])
    arc, out[-1] = out[-1], (bad, out[-1][1])

    def restore():
        out[-1] = arc
    return i, sim.vertices[bad][1], restore


def test_offers_are_refused_between_non_neighbours(grid2):
    # relax stages its offers and the post checks them
    g = build_expanded_graph(grid2)
    idx = enumerate_triples(g)
    sim = Simulator(g, idx, SimSchedule("sync"))
    distributed_price_update(sim, init_prices(idx))
    i, w, _ = misdirect_an_offer(sim)
    with pytest.raises(RuntimeError,
                       match=f"message label from {i} to non-neighbour {w}"):
        distributed_shortest_paths(sim)
    # no mail is left; every counted message was delivered, and the
    # refused batch was not counted
    assert not any(sim.inbox) and not sim.waiting and not sim.staging
    stats = sim.stats
    assert stats.flow_messages == 0
    assert stats.label_messages == stats.delivered > 0
    assert stats.bytes_estimate == LABEL_BYTES * stats.label_messages


def test_round_cap_surfaces_the_stuck_work(relay3):
    g = build_expanded_graph(relay3)
    idx = enumerate_triples(g)
    # the cap fires on the waiting nodes under either schedule
    for schedule in [SimSchedule("sync")] + [SimSchedule("async", seed=seed)
                                             for seed in range(3)]:
        sim = Simulator(g, idx, schedule)
        distributed_price_update(sim, init_prices(idx))
        sim.max_rounds = 1
        with pytest.raises(QuiescenceError, match="no quiescence") as exc:
            distributed_shortest_paths(sim)
        # (kind, session, vertex (i, j)) of every message still moving
        assert exc.value.active == [("label", 0, (0, 1)),
                                    ("label", 1, (2, 1))]
        sim.max_rounds = 100
        distributed_shortest_paths(sim)
        sim.max_rounds = 1
        with pytest.raises(QuiescenceError, match="no quiescence") as exc:
            _flow_notification(sim)
        assert exc.value.active == [("flow", 0, (0, 1)), ("flow", 1, (2, 1))]


@pytest.mark.parametrize(
    "schedule, failure",
    [(SimSchedule("sync"), "cap"), (SimSchedule("async", seed=1), "cap"),
     (SimSchedule("sync"), "refusal"),
     (SimSchedule("async", seed=1), "refusal"),
     # seed 0 refuses while a node later in the round holds unread mail
     (SimSchedule("async", seed=0), "refusal")],
    ids=["sync", "async", "refused-sync", "refused-async",
         "refused-async0"])
def test_a_capped_flood_leaves_no_mail_for_the_next(grid2, schedule,
                                                    failure):
    # the offers a failure stops are priced at the old prices; a later
    # flood that read them would route at a mix of old and new
    g = build_expanded_graph(grid2)
    idx = enumerate_triples(g)
    p0 = init_prices(idx)
    p3 = PriceVector(3.0 * p0.values)
    sim = Simulator(g, idx, schedule)
    distributed_price_update(sim, p0)
    if failure == "cap":
        cap, sim.max_rounds = sim.max_rounds, 3
        with pytest.raises(QuiescenceError, match="no quiescence"):
            distributed_shortest_paths(sim)
        sim.max_rounds = cap
    else:
        _, _, restore = misdirect_an_offer(sim)
        with pytest.raises(RuntimeError, match="non-neighbour"):
            distributed_shortest_paths(sim)
        restore()
    assert not any(sim.inbox) and not sim.waiting and not sim.staging
    distributed_price_update(sim, p3)
    fresh = Simulator(g, idx, schedule)
    distributed_price_update(fresh, p3)
    want = distributed_shortest_paths(fresh)
    assert want == [10.5, 13.5]
    assert distributed_shortest_paths(sim) == want


@pytest.mark.parametrize("name", ["grid2", "relay3"])
def test_a_broken_chain_leaves_no_mail_for_the_next(named, name):
    # on grid2 the chase fails with a notice in an inbox, on relay3 with
    # one staged
    g = build_expanded_graph(named[name])
    idx = enumerate_triples(g)
    sim = Simulator(g, idx, SimSchedule("sync"))
    distributed_price_update(sim, init_prices(idx))
    distributed_shortest_paths(sim)
    labels = sim.labels[1]
    vertex = int(g.dst_pair[1])
    for _ in range(2):  # two hops above session 1's destination
        vertex = labels[vertex][2]
    labels[vertex] = None
    with pytest.raises(RuntimeError, match="broken predecessor chain"):
        _flow_notification(sim)
    assert not any(sim.inbox) and not sim.waiting and not sim.staging


@pytest.mark.parametrize("schedule", [SimSchedule("sync"),
                                      SimSchedule("async", seed=3)],
                         ids=["sync", "async"])
def test_the_post_counts_every_message(geo4, schedule, monkeypatch):
    # every message of a run goes through Simulator._post, which counts
    # what it delivers by the phase's kind
    posted = Counter()

    def post(self, kind, _post=Simulator._post):
        posted[kind] += len(self.staging)
        _post(self, kind)
    monkeypatch.setattr(Simulator, "_post", post)
    _, _, stats = run_distributed_solve(
        geo4, SolverConfig(tol=2e-2, max_iters=2000), schedule)
    assert posted == {"label": stats.label_messages,
                      "flow": stats.flow_messages}
    assert (stats.label_messages, stats.flow_messages) == \
        TRAFFIC["geo4", schedule.mode][1:3]
    assert stats.delivered == stats.label_messages + stats.flow_messages


@pytest.mark.parametrize("hops", [3, 5, 8])
def test_label_flood_settles_in_length_plus_two_rounds(hops):
    nodes = [Node(i, 1.0) for i in range(hops + 1)]
    edges = [(i, i + 1) for i in range(hops)]
    inst = Instance(nodes, edges, [Session("s1", 0, hops, 1.0)])
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    # on a chain the next hop holds no mail when a round starts, so async
    # too leaves each offer for the next round: mail sent to a node that
    # a round does not list waits
    for schedule in [SimSchedule("sync")] + [SimSchedule("async", seed=seed)
                                             for seed in range(6)]:
        sim = Simulator(g, idx, schedule)
        distributed_price_update(sim, init_prices(idx))
        dists = distributed_shortest_paths(sim)
        assert sim.stats.rounds == hops + 2
        assert dists == [(hops + 1) / 2]  # every arc priced at 1/2


@pytest.mark.parametrize("name", ["geo4", "grid2"])
def test_async_rounds_activate_exactly_the_nodes_with_mail(name, request,
                                                          monkeypatch):
    inst = request.getfixturevalue(name)
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    sim = Simulator(g, idx, SimSchedule("async", seed=4))
    lists, calls = [], []  # each round's activation list; handled nodes

    def shuffle(visit, _shuffle=sim.rng.shuffle):
        # a round starts: its list is every node holding mail, once each
        assert not sim.staging
        assert visit == sorted(n for n, box in enumerate(sim.inbox) if box)
        _shuffle(visit)
        lists.append(list(visit))
    monkeypatch.setattr(sim.rng, "shuffle", shuffle)
    for handler in ("relax", "pass_on"):
        def observe(nid, batch, _handle=getattr(sim, handler)):
            assert batch  # no node is activated without mail
            calls.append(nid)
            _handle(nid, batch)
        monkeypatch.setattr(sim, handler, observe)
    cfg = SolverConfig(tol=2e-2, max_iters=10)
    solver.price_ascent(g, idx, cfg, lambda p: _message_round(sim, p))
    stats = sim.stats
    assert len(lists) == stats.rounds > 0
    # every listed node is activated once, in the shuffled order
    assert calls == [nid for visit in lists for nid in visit]
    assert stats.delivered == stats.label_messages + stats.flow_messages
    assert not any(sim.inbox) and not sim.staging and not sim.waiting


@pytest.mark.parametrize("name", ["grid2rate", "grid2", "geo4"])
def test_async_twin_equals_solve_under_ten_seeds(named, name):
    # the simulate workload's tol and cap
    cfg = SolverConfig(tol=2e-2, max_iters=2000)
    sol, trace = solve(named[name], cfg)
    for seed in range(10):
        dsol, dtrace, stats = run_distributed_solve(
            named[name], cfg, SimSchedule("async", seed=seed))
        assert flows_equal(dsol.flows, sol.flows)
        assert np.array_equal(dsol.prices.values, sol.prices.values)
        assert traces_equal(dtrace, trace)
        assert stats.delivered == stats.label_messages + stats.flow_messages


@pytest.mark.parametrize("name", ["relay3", "geo4", "geo5", "grid2",
                                  "grid2rate"])
def test_twin_distances_equal_the_route_search(name, request):
    # a message round returns the route search's three arrays, bytes and
    # dtypes alike: distances, and each route's triple rows, source first
    inst = request.getfixturevalue(name)
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    h = build_edge_graph(g, idx)
    p0 = init_prices(idx)
    _, start, rows = primal_subproblem(h, p0)
    rates = np.repeat([s.rate for s in inst.sessions], np.diff(start))
    agg = np.bincount(rows[:start[-1]], weights=rates, minlength=len(idx))
    p1 = subgradient_step(p0, agg, 1.0, idx)
    for p in (p0, p1):
        dists, start, rows = primal_subproblem(h, p)
        want = dists, start, rows[:start[-1]]
        for schedule in (SimSchedule("sync"), SimSchedule("async", seed=2)):
            dists, start, rows = _message_round(Simulator(g, idx, schedule),
                                                p)
            got = dists, start, rows[:start[-1]]
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["geo4", "grid2"])
def test_each_node_relaxes_and_tallies_only_its_own_rows(name, request):
    # the arcs leaving (v, i), which node i extends and adds to routes,
    # are the triples with middle node i, each triple row exactly once
    inst = request.getfixturevalue(name)
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    sim = Simulator(g, idx)
    vertices, mid = sim.vertices, idx.mid.tolist()
    rows = []
    for u, out in enumerate(sim.out):
        for x, k in out:
            assert mid[k] == vertices[u][1] == vertices[x][0]
            rows.append(k)
    assert sorted(rows) == list(range(len(idx)))


@pytest.mark.parametrize("name", ["geo4", "grid2"])
@pytest.mark.parametrize("schedule", [SimSchedule("sync"),
                                      SimSchedule("async", seed=2)],
                         ids=["sync", "async"])
def test_each_message_names_a_vertex_its_sender_owns(name, schedule,
                                                     request, monkeypatch):
    # node i holds the labels of its vertices (i, j) and offers them to j;
    # a flow notice for (v, i) goes from i to v, which holds its label
    inst = request.getfixturevalue(name)
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    sim = Simulator(g, idx, schedule)
    distributed_price_update(sim, init_prices(idx))
    seen = []  # (kind, node it was delivered to, message)
    for handler, kind in (("relax", "label"), ("pass_on", "flow")):
        def observe(nid, batch, _kind=kind, _handle=getattr(sim, handler)):
            seen.extend((_kind, nid, msg) for msg in batch)
            _handle(nid, batch)
        monkeypatch.setattr(sim, handler, observe)
    distributed_shortest_paths(sim)
    _flow_notification(sim)
    kinds = Counter(kind for kind, _, _ in seen)
    assert kinds["label"] > 0 and kinds["flow"] > 0
    assert len(seen) == sim.stats.label_messages + sim.stats.flow_messages
    vertices = sim.vertices
    for kind, nid, (sender, receiver, _, vertex, _, _) in seen:
        assert receiver == nid
        tail, head = vertices[vertex]
        if kind == "label":
            assert (tail, head) == (sender, receiver)
        else:
            assert (head, tail) == (sender, receiver)


def test_a_finished_simulator_is_freed_without_the_cycle_collector(geo4):
    g = build_expanded_graph(geo4)
    idx = enumerate_triples(g)
    gc.disable()
    try:
        sim = Simulator(g, idx, SimSchedule("sync"))
        distributed_price_update(sim, init_prices(idx))
        distributed_shortest_paths(sim)
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


def test_flow_chase_refuses_a_vertex_without_a_label(relay3):
    g = build_expanded_graph(relay3)
    idx = enumerate_triples(g)
    sim = Simulator(g, idx, SimSchedule("sync"))
    distributed_price_update(sim, init_prices(idx))
    distributed_shortest_paths(sim)
    dst = int(g.dst_pair[0])
    pred = sim.labels[0][dst][2]
    sim.labels[0][pred] = None
    with pytest.raises(RuntimeError, match="broken predecessor chain"):
        _flow_notification(sim)


def test_no_sessions_means_no_traffic():
    inst = Instance([Node(0, 1.0), Node(1, 1.0)], [(0, 1)], [])
    sol, trace, stats = run_distributed_solve(inst, SolverConfig())
    assert sol.certified and sol.iterations == 0
    assert stats.delivered == 0 and stats.rounds == 0


def test_empty_network_certifies_with_no_traffic():
    sol, trace, stats = run_distributed_solve(Instance([], [], []))
    assert sol.certified and sol.iterations == 0 and len(trace) == 0
    assert stats == MessageStats()


def test_schedule_validation(relay3):
    with pytest.raises(ValueError, match="mode"):
        SimSchedule(mode="bogus")
    # a numpy seed is stored as the int it equals, and runs as that int
    cfg = SolverConfig(tol=1e-4)
    for mode in ("sync", "async"):
        schedule = SimSchedule(mode, seed=np.int64(3))
        assert type(schedule.seed) is int
        sol, trace, stats = run_distributed_solve(relay3, cfg, schedule)
        want = run_distributed_solve(relay3, cfg, SimSchedule(mode, seed=3))
        assert flows_equal(sol.flows, want[0].flows)
        assert traces_equal(trace, want[1]) and stats == want[2]


@pytest.mark.parametrize("seed", [None, 1.5, "x", True, [1]])
def test_schedule_seed_must_be_an_integer(seed):
    # an unseeded schedule would draw async orders from OS entropy
    with pytest.raises(ValueError, match="seed must be an integer"):
        SimSchedule(mode="async", seed=seed)
    assert SimSchedule(mode="async", seed=np.int64(3)).seed == 3


def test_schedule_seed_must_not_be_negative():
    # random.Random seeds from the absolute value, so -1 would draw the
    # activation orders of seed 1
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SimSchedule(mode="async", seed=-1)
    assert SimSchedule(mode="async", seed=0).seed == 0
