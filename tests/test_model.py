"""Instance validation, node expansion, triples, conservation, costs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpool import (FlowVector, InfeasibleSessionError, InstanceError,
                     PriceVector, build_expanded_graph, conservation_residual,
                     enumerate_triples, init_prices, total_cost,
                     transmission_summary)
from carpool.model import (Instance, Node, Session, adjacency,
                           component_labels, ordered_pairs)
from lp_reference import lp_optimum
from model_reference import (adjacency_reference,
                             conservation_residual_reference,
                             dense_aggregate, enumerate_triples_reference,
                             index_of, ordered_pairs_reference, residual_of,
                             rev_of, total_cost_reference,
                             transmission_summary_reference, triples_of,
                             validate_prices, worst_residual)


def unit_instance(n, edges, sessions=()):
    return Instance([Node(i, 1.0) for i in range(n)], edges, list(sessions))


@pytest.fixture(scope="module")
def relay3_parts(relay3):
    g = build_expanded_graph(relay3)
    return g, enumerate_triples(g)


def neighbours(g, a):
    """Node a's neighbours in the expanded graph, read off its CSR."""
    return g.indices[g.indptr[a]:g.indptr[a + 1]].tolist()


def path_flow(idx, sid, triples, rate=1.0):
    values = np.zeros(len(idx))
    for trip in triples:
        values[index_of(idx)[trip]] = rate
    return FlowVector(sid, values)


S1_PATH = [(3, 0, 1), (0, 1, 2), (1, 2, 4)]
S2_PATH = [(5, 2, 1), (2, 1, 0), (1, 0, 6)]


# ---------------------------------------------------------------- expansion

def test_expansion_adds_one_terminal_pair_per_session(relay3, relay3_parts):
    g, _ = relay3_parts
    assert g.n_base == 3
    assert g.n_nodes == 3 + 2 * len(relay3.sessions)
    # one CSR entry at either end of each edge, terminal edges included
    assert len(g.indices) == 2 * (len(relay3.edges)
                                  + 2 * len(relay3.sessions))
    # session t gets ids n+2t (source side) and n+2t+1 (destination side)
    pairs = ordered_pairs(g)
    assert [pairs[e] for e in g.src_pair] == [(3, 0), (5, 2)]
    assert [pairs[e] for e in g.dst_pair] == [(2, 4), (0, 6)]
    for a in range(3, 7):
        assert g.costs[a] == 0.0
        assert len(neighbours(g, a)) == 1  # purely a source or a sink
    # the artificial ids are exactly those after the physical ones
    assert sorted([pairs[e][0] for e in g.src_pair]
                  + [pairs[e][1] for e in g.dst_pair]) == \
        list(range(g.n_base, g.n_nodes))


def test_expansion_without_sessions_is_identity(relay3):
    bare = Instance(relay3.nodes, relay3.edges, [])
    g = build_expanded_graph(bare)
    assert g.n_nodes == g.n_base == 3
    assert ordered_pairs(g) == sorted(
        [(a, b) for a, b in relay3.edges] + [(b, a) for a, b in relay3.edges])


def test_expanded_costs_match_base(relay3, relay3_parts):
    g, _ = relay3_parts
    assert [g.costs[i] for i in range(3)] == [nd.cost for nd in relay3.nodes]


# ------------------------------------------------------------------ triples

def test_relay3_triples_enumerated_in_canonical_order(relay3_parts):
    g, idx = relay3_parts
    triples = triples_of(idx)
    assert triples == [
        (1, 0, 3), (1, 0, 6), (3, 0, 1), (6, 0, 1),
        (0, 1, 2), (2, 1, 0),
        (1, 2, 4), (1, 2, 5), (4, 2, 1), (5, 2, 1),
    ]
    assert triples == sorted(triples, key=lambda t: (t[1], t[0], t[2]))
    assert all(index_of(idx)[trip] == k for k, trip in enumerate(triples))


def test_triples_skip_terminal_to_terminal_hops(relay3_parts):
    # packets never relay between two artificial endpoints
    g, idx = relay3_parts
    triples = triples_of(idx)
    assert all(v < g.n_base or w < g.n_base for v, _, w in triples)
    assert all(i < g.n_base for _, i, _ in triples)


def test_star_center_and_path_counts():
    star = unit_instance(4, [(0, 1), (0, 2), (0, 3)])
    g = build_expanded_graph(star)
    assert len(enumerate_triples(g)) == 6  # 3 neighbours, ordered pairs
    path = unit_instance(3, [(0, 1), (1, 2)])
    assert len(enumerate_triples(build_expanded_graph(path))) == 2


def test_reversal_and_pair_tables(relay3_parts):
    g, idx = relay3_parts
    pair_row_of_triple = {}
    for row, (kf, kr) in enumerate(zip(idx.pair_fwd, idx.pair_rev)):
        pair_row_of_triple[int(kf)] = pair_row_of_triple[int(kr)] = row
    assert len(pair_row_of_triple) == len(idx)
    triples, rev = triples_of(idx), rev_of(idx)
    for k, (v, i, w) in enumerate(triples):
        assert triples[rev[k]] == (w, i, v)
        assert rev[rev[k]] == k
        assert idx.cost[k] == g.costs[i]
        assert pair_row_of_triple[k] == pair_row_of_triple[int(rev[k])]
    for row in range(len(idx.pair_fwd)):
        assert rev[idx.pair_fwd[row]] == idx.pair_rev[row]
        fwd = triples[idx.pair_fwd[row]]
        assert idx.pair_cost[row] == g.costs[fwd[1]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_triple_set_properties_on_random_graphs(data):
    n = data.draw(st.integers(3, 8))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), min_size=1,
                               max_size=len(possible), unique=True))
    g = build_expanded_graph(unit_instance(n, edges))
    triples = triples_of(enumerate_triples(g))
    seen = set(triples)
    assert len(seen) == len(triples)
    deg = {i: len(neighbours(g, i)) for i in range(n)}
    for v, i, w in triples:
        assert v != w and deg[i] >= 2
        assert (w, i, v) in seen            # closed under reversal
        assert v in neighbours(g, i) and w in neighbours(g, i)
    # every two-hop combination around a relay appears
    expect = sum(d * (d - 1) for d in deg.values())
    assert len(triples) == expect


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_adjacency_equals_the_sorted_neighbour_lists(data):
    # node count may exceed every endpoint: the last nodes are isolated
    n = data.draw(st.integers(0, 9))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), unique=True,
                               max_size=len(possible))) if possible else []
    edges = [(b, a) if data.draw(st.booleans()) else (a, b)
             for a, b in edges]
    indptr, indices = adjacency(n, edges)
    assert indptr.dtype == indices.dtype == np.int64
    assert len(indptr) == n + 1 and indptr[0] == 0
    assert [indices[indptr[a]:indptr[a + 1]].tolist() for a in range(n)] \
        == adjacency_reference(n, edges)


def test_adjacency_of_no_edges_is_empty():
    indptr, indices = adjacency(4, [])
    assert indptr.tolist() == [0, 0, 0, 0, 0] and indices.tolist() == []
    indptr, indices = adjacency(0, [])
    assert indptr.tolist() == [0] and indices.tolist() == []


# ------------------------------------------------------------- conservation

def test_path_flow_conserves_exactly(relay3_parts):
    g, idx = relay3_parts
    rows = np.sort([index_of(idx)[trip] for trip in S1_PATH])
    res = conservation_residual(np.zeros(3, dtype=np.int64), rows,
                                np.ones(3), g, idx)
    # one row per instance session: s2 carries nothing here
    assert res.shape == (2, len(set(ordered_pairs(g))))
    assert all(r == 0.0 for r in res[0])


def test_zero_flow_residual_sits_at_the_terminals(relay3_parts):
    g, idx = relay3_parts
    none = np.zeros(0, dtype=np.int64)
    res = conservation_residual(none, none, np.zeros(0), g, idx)
    for row, want in zip(res, ({(3, 0): -1.0, (2, 4): 1.0},
                               {(5, 2): -1.0, (0, 6): 1.0})):
        assert {pair: r for pair, r in zip(ordered_pairs(g), row) if r} \
            == want
    assert worst_residual([FlowVector("s1", np.zeros(len(idx)))],
                          g, idx) == 1.0


def test_residual_scales_with_rate():
    inst = unit_instance(3, [(0, 1), (1, 2)], [Session("s1", 0, 2, 2.5)])
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    res = dict(zip(ordered_pairs(g), residual_of(
        [FlowVector("s1", np.zeros(len(idx)))], g, idx)[0]))
    assert res[(3, 0)] == -2.5 and res[(2, 4)] == 2.5
    full = path_flow(idx, "s1", [(3, 0, 1), (0, 1, 2), (1, 2, 4)], rate=2.5)
    assert worst_residual([full], g, idx) == 0.0


@st.composite
def flows_on_random_instances(draw):
    """A connected random instance and one flow per session, in a random
    session order; some flows are all zero, some sessions sparse."""
    n = draw(st.integers(2, 8))
    edges = [(draw(st.integers(0, a - 1)), a) for a in range(1, n)]
    extra = [(a, b) for a in range(n) for b in range(a + 1, n)
             if (a, b) not in edges]
    if extra:
        edges += draw(st.lists(st.sampled_from(extra), unique=True))
    costs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.7, 3.1]),
                          min_size=n, max_size=n))
    sessions = []
    for t in range(draw(st.integers(0, 4))):
        src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
        rate = draw(st.floats(0.1, 10.0))
        sessions.append(Session(f"s{t}", src, dst, rate))
    inst = Instance([Node(i, c) for i, c in enumerate(costs)], edges,
                    sessions)
    g = build_expanded_graph(inst)
    n_triples = len(enumerate_triples_reference(g).triples)
    value = st.one_of(st.just(0.0), st.floats(0.0, 1e3),
                      st.sampled_from([0.1, 0.2, 0.3, 1.0]))
    flows = []
    for s in draw(st.permutations(sessions)):
        if draw(st.booleans()):
            values = np.zeros(n_triples)
        else:
            values = np.array(draw(st.lists(
                value, min_size=n_triples, max_size=n_triples)))
        flows.append(FlowVector(s.sid, values))
    return g, flows


@settings(max_examples=80, deadline=None)
@given(flows_on_random_instances())
def test_array_model_equals_the_loop_reference_bit_for_bit(case):
    g, flows = case
    idx = enumerate_triples(g)
    ref = enumerate_triples_reference(g)
    assert triples_of(idx) == ref.triples
    assert index_of(idx) == ref.index
    for name in ("v", "mid", "w", "cost", "pair_fwd", "pair_rev",
                 "pair_cost"):
        a, b = getattr(idx, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    rev = rev_of(idx)
    assert rev.dtype == ref.rev.dtype and rev.tobytes() == ref.rev.tobytes()
    # forward rows are contiguous per middle node (triples sorted by middle)
    fwd_mid = idx.mid[idx.pair_fwd]
    assert (np.diff(fwd_mid) >= 0).all()
    assert fwd_mid.tobytes() == ref.mid[ref.pair_fwd].tobytes()
    pairs = ordered_pairs(g)
    assert pairs == ordered_pairs_reference(g)
    assert [pairs[e] for e in idx.tail] == [(v, i) for v, i, _ in ref.triples]
    assert [pairs[e] for e in idx.head] == [(i, w) for _, i, w in ref.triples]
    assert idx.rows(ref.triples).tolist() == list(range(len(idx)))
    assert idx.rows([(1, 0, 0), (-1, 0, 1), (g.n_nodes, 0, 1)]).tolist() == \
        [-1, -1, -1]
    # residual_of passes the flows sorted by (session, row), each pair
    # once: the condition under which the sums run in triple order
    res = residual_of(flows, g, idx)
    assert res.shape == (len(flows), len(pairs))
    t_of = {s.sid: t for t, s in enumerate(g.base.sessions)}
    for f in flows:
        want = conservation_residual_reference(f, g, ref.triples)
        assert res[t_of[f.session]].tobytes() == \
            np.array([want[p] for p in pairs]).tobytes()


# ------------------------------------------------- transmissions and costs

def saving(agg, idx, summ, row):
    """Sends that coding spares pair row: both directions' flow, less
    the broadcasts the summary charges for it."""
    fwd, rev = int(idx.pair_fwd[row]), int(idx.pair_rev[row])
    return agg[fwd] + agg[rev] - summ.y[row]


def test_opposite_sessions_share_the_middle_broadcast(relay3_parts):
    g, idx = relay3_parts
    flows = [path_flow(idx, "s1", S1_PATH), path_flow(idx, "s2", S2_PATH)]
    agg = dense_aggregate(flows, len(idx))
    summ = transmission_summary(agg, g, idx)
    pairs = [triples_of(idx)[int(k)] for k in idx.pair_fwd]
    shared = pairs.index((0, 1, 2))
    assert summ.y[shared] == 1.0           # max(1, 1), not the sum
    # one broadcast replaces two sends
    assert saving(agg, idx, summ, shared) == 1.0
    assert list(summ.y) == [1.0] * 5
    assert list(summ.z) == [2.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    assert total_cost(summ, g) == (5.0, 3.0)
    assert float(np.dot(idx.cost, flows[0].values)) == 3.0


def test_one_direction_pays_alone(relay3_parts):
    g, idx = relay3_parts
    flows = [path_flow(idx, "s1", S1_PATH),
             FlowVector("s2", np.zeros(len(idx)))]
    agg = dense_aggregate(flows, len(idx))
    summ = transmission_summary(agg, g, idx)
    pairs = [triples_of(idx)[int(k)] for k in idx.pair_fwd]
    shared = pairs.index((0, 1, 2))
    assert summ.y[shared] == 1.0 and saving(agg, idx, summ, shared) == 0.0


def test_unbalanced_directions_save_the_smaller_side(relay3_parts):
    g, idx = relay3_parts
    f1 = np.zeros(len(idx))
    f1[index_of(idx)[(0, 1, 2)]] = 2.0
    f2 = np.zeros(len(idx))
    f2[index_of(idx)[(2, 1, 0)]] = 3.0
    flows = [FlowVector("s1", f1), FlowVector("s2", f2)]
    agg = dense_aggregate(flows, len(idx))
    summ = transmission_summary(agg, g, idx)
    pairs = [triples_of(idx)[int(k)] for k in idx.pair_fwd]
    shared = pairs.index((0, 1, 2))
    assert summ.y[shared] == 3.0 and saving(agg, idx, summ, shared) == 2.0


def test_summary_ignores_flow_list_order(relay3_parts):
    g, idx = relay3_parts
    flows = [path_flow(idx, "s1", S1_PATH), path_flow(idx, "s2", S2_PATH)]
    a = transmission_summary(dense_aggregate(flows, len(idx)), g, idx)
    b = transmission_summary(dense_aggregate(flows[::-1], len(idx)), g, idx)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z)


def test_zero_flow_costs_refund_the_artificial_hop(relay3_parts):
    g, idx = relay3_parts
    flows = [FlowVector(s, np.zeros(len(idx))) for s in ("s1", "s2")]
    summ = transmission_summary(dense_aggregate(flows, len(idx)), g, idx)
    assert total_cost(summ, g) == (0.0, -2.0)


def test_node_costs_weight_the_transmissions():
    inst = Instance([Node(0, 1.0), Node(1, 3.0), Node(2, 1.0)],
                    [(0, 1), (1, 2)], [Session("s1", 0, 2, 1.0)])
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    flow = path_flow(idx, "s1", [(3, 0, 1), (0, 1, 2), (1, 2, 4)])
    summ = transmission_summary(flow.values, g, idx)
    # transmitters: source (1) + relay (3) + destination (1), refund dest
    assert total_cost(summ, g) == (5.0, 4.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["grid2", "grid2rate", "geo4"]),
       st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([0.0, 5e-324, 1e308, np.inf, np.nan]),
                max_size=5))
def test_summary_and_cost_equal_their_references(named, name, seed, edges):
    rng = np.random.default_rng(seed)
    # costs and rates whose sums round, so that their order shows
    base = named[name]
    g = build_expanded_graph(Instance(
        [Node(nd.nid, float(c)) for nd, c in
         zip(base.nodes, rng.uniform(0.1, 3.0, len(base.nodes)))],
        base.edges,
        [Session(s.sid, s.source, s.dest, float(r)) for s, r in
         zip(base.sessions, rng.uniform(0.1, 3.0, len(base.sessions)))]))
    idx = enumerate_triples(g)
    # magnitudes that round when added, and a few edge values
    agg = rng.uniform(0.0, 1.0, len(idx)) * 10.0 ** rng.integers(-8, 9,
                                                                len(idx))
    agg[rng.integers(0, len(idx), len(edges))] = edges
    agg[rng.random(len(idx)) < 0.5] = 0.0
    got = transmission_summary(agg, g, idx)
    want = transmission_summary_reference(agg, g, idx)
    assert got.y.tobytes() == want.y.tobytes()
    assert got.z.tobytes() == want.z.tobytes()
    # at zero flow the physical cost is the refund alone
    zero = transmission_summary(np.zeros(len(idx)), g, idx)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in ((got, want), (zero, zero)):
            assert np.array(total_cost(a, g)).tobytes() == \
                np.array(total_cost_reference(b, g)).tobytes()


# -------------------------------------------------------- reference optima

def test_reference_lp_confirms_frozen_optima(named):
    frozen = {"relay3": (5.0, 3.0), "grid2": (11.0, 9.0),
              "grid2rate": (38.0, 33.0)}
    for name, (expanded, physical) in frozen.items():
        res = lp_optimum(named[name])
        assert res.expanded == pytest.approx(expanded, abs=1e-6), name
        assert res.physical == pytest.approx(physical, abs=1e-6), name


# --------------------------------------------------------------- validation

def test_instance_rejects_malformed_inputs():
    with pytest.raises(InstanceError, match="duplicate edge"):
        unit_instance(2, [(0, 1), (0, 1)])
    with pytest.raises(InstanceError, match="duplicate edge"):
        unit_instance(2, [(0, 1), (1, 0)])
    with pytest.raises(InstanceError, match="self-loop"):
        unit_instance(2, [(1, 1)])
    with pytest.raises(InstanceError, match="dense"):
        Instance([Node(0, 1.0), Node(2, 1.0)], [(0, 2)], [])
    with pytest.raises(InstanceError, match="source = dest"):
        unit_instance(2, [(0, 1)], [Session("s1", 0, 0, 1.0)])
    with pytest.raises(InstanceError, match="rate"):
        unit_instance(2, [(0, 1)], [Session("s1", 0, 1, 0.0)])
    with pytest.raises(InstanceError, match="rate"):
        unit_instance(2, [(0, 1)], [Session("s1", 0, 1, -1.0)])
    with pytest.raises(InstanceError, match="missing"):
        unit_instance(2, [(0, 1)], [Session("s1", 0, 9, 1.0)])
    with pytest.raises(InstanceError, match="duplicate session id"):
        unit_instance(2, [(0, 1)], [Session("s1", 0, 1, 1.0),
                                    Session("s1", 1, 0, 1.0)])
    for cost in (float("inf"), float("nan")):
        with pytest.raises(InstanceError, match="node 1 has non-finite cost"):
            Instance([Node(0, 1.0), Node(1, cost)], [(0, 1)], [])
    with pytest.raises(InstanceError, match="node 0 has non-finite position"):
        Instance([Node(0, 1.0, (float("inf"), 0.0)), Node(1, 1.0)],
                 [(0, 1)], [])
    with pytest.raises(InstanceError, match="session s1 has non-finite rate"):
        unit_instance(2, [(0, 1)], [Session("s1", 0, 1, float("inf"))])
    with pytest.raises(InstanceError, match="session s1 rate must be > 0"):
        unit_instance(2, [(0, 1)], [Session("s1", 0, 1, float("nan"))])


def test_unreachable_session_names_itself():
    with pytest.raises(InfeasibleSessionError, match="s9 unreachable") as ei:
        unit_instance(4, [(0, 1), (2, 3)], [Session("s9", 0, 2, 1.0)])
    assert ei.value.session == "s9"


def test_component_labels_partition():
    labels = component_labels(5, [(0, 1), (1, 2), (3, 4)])
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4]
    assert labels[0] != labels[3]


def test_flow_vector_rejects_negative_entries():
    with pytest.raises(ValueError, match="negative"):
        FlowVector("s1", np.array([-1.0, 0.0]))


def test_price_validation_names_the_offending_triple(relay3_parts):
    g, idx = relay3_parts
    validate_prices(init_prices(idx), idx)  # feasible by construction
    bad = init_prices(idx).values.copy()
    bad[0] = -0.01
    with pytest.raises(ValueError, match=r"\(1, 0, 3\)"):
        validate_prices(PriceVector(bad), idx)
    bad = init_prices(idx).values.copy()
    bad[0] += 0.2  # box still fine, pair sum no longer c
    with pytest.raises(ValueError, match="sums to"):
        validate_prices(PriceVector(bad), idx)
