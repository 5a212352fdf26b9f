"""Loop references for the array code in carpool, and the test helpers
that read its results.

These are the dictionary-and-loop forms of triple enumeration and the
conservation residual that the package computed before it moved to
arrays, and the node-graph Dijkstra that the no-coding baseline ran
before it shared the edge graph's shortest-route search.  The tests
require the package to reproduce them bit for bit: same triple order,
same reversal and pair tables, residuals whose sums run in the same
(triple) order, and the same baseline routes and total, so every float
is equal, not merely close.  The triple and pair references build their
neighbour lists from the instance's edges and the terminal edges, never
from the expanded graph's CSR that they check.

The solve loop has its dense form here too: one flow vector per session
and round, summed, averaged and priced vector by vector, as the package
did before it carried each round's routes as triple rows.  Its
transmission summary adds z up with np.add.at, its cost adds the
destinations' refund up on every call and its price step clamps with
np.clip, as the package did before it used np.bincount, a refund
computed once per graph and np.minimum/np.maximum.  Beside it
are the exact projection onto a coupled price pair and a FIFO
label-correcting sweep, two independent routes to results the package
computes in closed form or with a priority queue.

The rest reads results the package only computes: the triples of a
TripleIndex as tuples, their rows and the rows of their reversals
(triples_of, index_of, rev_of), one session's route as a path
(shortest_path, path_to_flow), the route a recovered flow settles on
(dominant_path), the conservation residual of dense flow vectors
(flow_entries, residual_of, worst_residual) and the dual-feasibility
check of a price vector (validate_prices).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np

from carpool import (FlowVector, PriceVector, SolverConfig, SolveTrace,
                     TransmissionSummary, build_edge_graph,
                     build_expanded_graph, conservation_residual, edge_graph,
                     enumerate_triples, init_prices, subgradient_step)
from carpool.model import InfeasibleSessionError, Instance, Node
from carpool.solver import NonFiniteError


@dataclass
class ReferenceTriples:
    triples: list[tuple[int, int, int]]
    index: dict[tuple[int, int, int], int]
    v: np.ndarray
    mid: np.ndarray
    w: np.ndarray
    rev: np.ndarray
    cost: np.ndarray
    pair_fwd: np.ndarray
    pair_rev: np.ndarray
    pair_cost: np.ndarray


def expanded_edges_reference(g) -> list[tuple[int, int]]:
    """The instance's edges, then (s_t, n + 2t) and (d_t, n + 2t + 1)."""
    n = g.base.n
    edges = list(g.base.edges)
    for t, s in enumerate(g.base.sessions):
        edges += [(s.source, n + 2 * t), (s.dest, n + 2 * t + 1)]
    return edges


def adjacency_reference(n, edges) -> list[list[int]]:
    """Sorted neighbour list of each of n nodes, by a loop."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for lst in adj:
        lst.sort()
    return adj


def enumerate_triples_reference(g) -> ReferenceTriples:
    triples: list[tuple[int, int, int]] = []
    adj = adjacency_reference(g.n_nodes, expanded_edges_reference(g))
    for i in range(g.n_nodes):
        nbrs = adj[i]
        if len(nbrs) < 2:
            continue
        for v in nbrs:
            for w in nbrs:
                if v == w:
                    continue
                if v >= g.n_base and w >= g.n_base:
                    continue
                triples.append((v, i, w))
    index = {tr: k for k, tr in enumerate(triples)}
    varr = np.array([tr[0] for tr in triples], dtype=np.int64)
    marr = np.array([tr[1] for tr in triples], dtype=np.int64)
    warr = np.array([tr[2] for tr in triples], dtype=np.int64)
    rev = np.array([index[(tr[2], tr[1], tr[0])] for tr in triples],
                   dtype=np.int64)
    cost = g.costs[marr] if len(triples) else np.zeros(0)
    pair_fwd = np.nonzero(varr < warr)[0]
    pair_rev = rev[pair_fwd]
    pair_cost = cost[pair_fwd]
    return ReferenceTriples(triples, index, varr, marr, warr, rev, cost,
                            pair_fwd, pair_rev, pair_cost)


def ordered_pairs_reference(g) -> list[tuple[int, int]]:
    out = []
    for a, b in expanded_edges_reference(g):
        out.append((a, b))
        out.append((b, a))
    out.sort()
    return out


def conservation_residual_reference(x, g, triples
                                    ) -> dict[tuple[int, int], float]:
    """Residual of one session's flow x at every ordered pair, by dicts.

    triples is the list of (v, i, w) that x.values is indexed by.
    """
    t = None
    for k, s in enumerate(g.base.sessions):
        if s.sid == x.session:
            t = k
            break
    if t is None:
        raise ValueError(f"unknown session {x.session!r}")
    sess = g.base.sessions[t]
    sp, dp = g.n_base + 2 * t, g.n_base + 2 * t + 1
    out_sum: dict[tuple[int, int], float] = {}
    in_sum: dict[tuple[int, int], float] = {}
    vals = x.values
    for k, (v, i, w) in enumerate(triples):
        if vals[k] == 0.0:
            continue
        out_sum[(v, i)] = out_sum.get((v, i), 0.0) + vals[k]
        in_sum[(i, w)] = in_sum.get((i, w), 0.0) + vals[k]
    res: dict[tuple[int, int], float] = {}
    for pair in ordered_pairs_reference(g):
        sigma = 0.0
        if pair == (sp, sess.source):
            sigma = sess.rate
        elif pair == (sess.dest, dp):
            sigma = -sess.rate
        res[pair] = out_sum.get(pair, 0.0) - in_sum.get(pair, 0.0) - sigma
    return res


def plain_routing_cost_reference(inst) -> tuple[float, list[list[int]]]:
    """Cheapest independent route per session, no coding, by its own loop.

    Arc u -> v costs c_u (the transmitter pays), so a path's cost is the
    sum over its transmitting nodes; the destination is free.  Ties break
    toward fewer hops, then the smaller predecessor, as everywhere else.
    """
    n = inst.n
    costs = [nd.cost for nd in inst.nodes]
    adj = adjacency_reference(n, inst.edges)
    total = 0.0
    paths = []
    for s in inst.sessions:
        dist = [math.inf] * n
        hops = [0] * n
        pred = [-1] * n
        dist[s.source] = 0.0
        heap = [(0.0, 0, s.source)]
        while heap:
            d, hp, u = heappop(heap)
            if d != dist[u] or hp != hops[u]:
                continue
            if u == s.dest:
                break
            for v in adj[u]:
                nd = d + costs[u]
                nh = hp + 1
                if nd < dist[v] or (nd == dist[v] and nh < hops[v]):
                    dist[v], hops[v], pred[v] = nd, nh, u
                    heappush(heap, (nd, nh, v))
                elif nd == dist[v] and nh == hops[v] and (
                        pred[v] == -1 or u < pred[v]):
                    if v != s.source:
                        pred[v] = u
        total += s.rate * dist[s.dest]
        if total == math.inf:
            raise NonFiniteError(f"session {s.sid}: routing cost is too "
                                 f"large for float arithmetic")
        path = [s.dest]
        while path[-1] != s.source:
            path.append(pred[path[-1]])
        path.reverse()
        paths.append(path)
    return total, paths


# ----------------------------------------------------- the dense solve loop

def dense_aggregate(flows, size: int) -> np.ndarray:
    """Total flow per triple, summed vector by vector in list order."""
    agg = np.zeros(size)
    for f in flows:
        agg += f.values
    return agg


# ------------------------------------------------ reading the triples

def triples_of(idx) -> list[tuple[int, int, int]]:
    """Every triple (v, i, w) of idx, in row order."""
    return list(zip(idx.v.tolist(), idx.mid.tolist(), idx.w.tolist()))


def index_of(idx) -> dict[tuple[int, int, int], int]:
    """The row of each triple (v, i, w) of idx."""
    return {tr: k for k, tr in enumerate(triples_of(idx))}


def rev_of(idx) -> np.ndarray:
    """The row of the reversal (w, i, v) of every triple (v, i, w) of idx."""
    n = idx.n_nodes
    return np.searchsorted(idx.key, (idx.mid * n + idx.w) * n + idx.v)


# ------------------------------------------------ one route, one flow

@dataclass
class SessionPath:
    session: str
    vertices: list[tuple[int, int]]
    weight: float
    triples: list[int]  # arc ids (= triple rows) along the path


def shortest_path(h, p, t) -> SessionPath:
    """Cheapest priced route for session index t, searched alone."""
    src = int(h.g.src_pair[t])
    search = edge_graph.route_search(h.bounds, h.order, h.idx.head, [src],
                                     [int(h.g.dst_pair[t])])
    dists, _, rows = search(np.ascontiguousarray(p.values, dtype=float))
    sid = h.g.base.sessions[t].sid
    if dists[0] == math.inf:
        raise InfeasibleSessionError(sid, "no priced route to destination")
    verts = [h.vertices[v] for v in [src] + h.idx.head[rows].tolist()]
    return SessionPath(sid, verts, float(dists[0]), rows.tolist())


def path_to_flow(path: SessionPath, rate: float, idx) -> FlowVector:
    values = np.zeros(len(idx))
    values[path.triples] = rate
    return FlowVector(path.session, values)


def dominant_path(h, x: FlowVector, t: int) -> SessionPath:
    """Follow the largest recovered flow from source to destination.

    Long-run averages keep vanishing mass on paths visited early on; the
    dominant successor walk extracts the route the session settles on.
    Ties prefer the smaller triple row.  The weight is the path's
    transmission cost, not its price.
    """
    src, dst = int(h.g.src_pair[t]), int(h.g.dst_pair[t])
    vals = x.values
    u = src
    trips: list[int] = []
    seen = [src]
    while u != dst:
        arcs = h.order[h.bounds[u]:h.bounds[u + 1]]
        if not (len(arcs) and vals[arcs].max() > 0.0):
            raise ValueError(
                f"session {x.session}: recovered flow dies out at "
                f"{h.vertices[u]}")
        k = int(arcs[np.argmax(vals[arcs])])  # the first largest
        u = int(h.idx.head[k])
        if u in seen:
            raise ValueError(
                f"session {x.session}: recovered flow cycles at "
                f"{h.vertices[u]}")
        seen.append(u)
        trips.append(k)
    weight = float(sum(h.idx.cost[k] for k in trips))
    return SessionPath(x.session, [h.vertices[v] for v in seen], weight,
                       trips)


def flow_entries(flows, g, idx):
    """Dense per-session flows as conservation_residual's (sessions, rows,
    values), sorted by (session, row) with zeros left out; session t is
    g.base.sessions[t], and each session has at most one flow."""
    t_of = {s.sid: t for t, s in enumerate(g.base.sessions)}
    x = np.zeros((len(g.base.sessions), len(idx)))
    for f in flows:
        x[t_of[f.session]] = f.values
    sessions, rows = np.nonzero(x)
    return sessions, rows, x[sessions, rows]


def residual_of(flows, g, idx) -> np.ndarray:
    """conservation_residual of dense flows: one row per instance session,
    a session without a flow carrying none."""
    return conservation_residual(*flow_entries(flows, g, idx), g, idx)


def worst_residual(flows, g, idx) -> float:
    """The largest residual of the sessions that flows covers."""
    t_of = {s.sid: t for t, s in enumerate(g.base.sessions)}
    res = residual_of(flows, g, idx)[[t_of[f.session] for f in flows]]
    return float(np.abs(res).max(initial=0.0))


def validate_prices(p: PriceVector, idx, tol: float = 1e-12) -> None:
    """Raise ValueError unless 0 <= p <= c on every triple and each
    coupled pair sums to its relay's cost."""
    p = p.values
    if p.shape != (len(idx),):
        raise ValueError(f"price vector has shape {p.shape}, "
                         f"expected ({len(idx)},)")
    lo = p < -tol
    hi = p > idx.cost + tol
    if lo.any() or hi.any():
        k = int(np.argmax(lo | hi))
        raise ValueError(
            f"price out of [0, c] at triple {triples_of(idx)[k]}: {p[k]}")
    gap = np.abs(p[idx.pair_fwd] + p[idx.pair_rev] - idx.pair_cost)
    if (gap > tol).any():
        r = int(np.argmax(gap))
        k = int(idx.pair_fwd[r])
        raise ValueError(
            f"price pair around {triples_of(idx)[k]} sums to "
            f"{p[k] + p[int(idx.pair_rev[r])]}, expected {idx.pair_cost[r]}")


def primal_subproblem_reference(g, idx, p, h):
    """Each session's cheapest route as a dense rate-scaled flow, and q."""
    flows = []
    q = 0.0
    for t, s in enumerate(g.base.sessions):
        path = shortest_path(h, p, t)
        flows.append(path_to_flow(path, s.rate, idx))
        q += s.rate * path.weight
    return flows, q


def transmission_summary_reference(agg, g, idx) -> TransmissionSummary:
    """transmission_summary with z added up by np.add.at."""
    y = np.maximum(agg[idx.pair_fwd], agg[idx.pair_rev])
    z = np.zeros(g.n_nodes)
    np.add.at(z, idx.mid[idx.pair_fwd], y)
    return TransmissionSummary(idx, y, z)


def total_cost_reference(summary, g) -> tuple[float, float]:
    """total_cost with the destinations' refund added up on every call."""
    expanded = float(np.dot(g.costs, summary.z))
    correction = 0.0
    for s in g.base.sessions:
        correction += float(g.costs[s.dest]) * s.rate
    return expanded, expanded - correction


def subgradient_step_reference(p, agg, n, cfg, idx) -> PriceVector:
    """The price step on agg, the flow per triple, clamped by np.clip."""
    diff = agg[idx.pair_fwd] - agg[idx.pair_rev]
    half = 0.5 * cfg.alpha(n)
    fwd = np.clip(p.values[idx.pair_fwd] + half * diff, 0.0, idx.pair_cost)
    out = np.empty_like(p.values)
    out[idx.pair_fwd] = fwd
    out[idx.pair_rev] = idx.pair_cost - fwd
    return PriceVector(out)


class DenseLoopState:
    """Recovery on dense vectors: per-session sums, means, their total,
    with the same non-finite checks and messages as the solve loop."""

    def __init__(self, g, idx, cfg, trace):
        self.g, self.idx, self.cfg, self.trace = g, idx, cfg, trace
        self.sums = [np.zeros(len(idx)) for _ in g.base.sessions]
        self.best = -math.inf
        self.mean: list[FlowVector] = []
        self.summary = None

    def ingest(self, n, flows, q) -> bool:
        if not math.isfinite(q):
            raise NonFiniteError(
                f"iteration {n}: dual bound is {q!r}; costs or rates are "
                f"too large for float arithmetic")
        if q > self.best:
            self.best = q
        for s, f in zip(self.sums, flows):
            s += f.values
        self.mean = [FlowVector(f.session, s / n)
                     for s, f in zip(self.sums, flows)]
        self.summary = transmission_summary_reference(
            dense_aggregate(self.mean, len(self.idx)), self.g, self.idx)
        cost, _ = total_cost_reference(self.summary, self.g)
        if not math.isfinite(cost):
            raise NonFiniteError(
                f"iteration {n}: recovered cost is {cost!r}; costs or rates "
                f"are too large for float arithmetic")
        gap = (cost - self.best) / max(1.0, self.best)
        self.trace.append(n, self.cfg.alpha(n), q, self.best, cost, gap)
        return gap <= self.cfg.tol


def solve_reference(inst, cfg):
    """The solve loop on dense flows: (trace, recovered flows, prices)."""
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    h = build_edge_graph(g, idx)
    trace = SolveTrace()
    state = DenseLoopState(g, idx, cfg, trace)
    p = init_prices(idx)
    for n in range(1, cfg.max_iters + 1):
        flows, q = primal_subproblem_reference(g, idx, p, h)
        if state.ingest(n, flows, q):
            break
        p = subgradient_step_reference(p, dense_aggregate(flows, len(idx)),
                                       n, cfg, idx)
    return trace, state.mean, p


# ------------------------------------------------------ coupled price pairs

def project_pair_reference(u1: float, u2: float, c: float
                           ) -> tuple[float, float]:
    """Nearest point on {p1 + p2 = c, p >= 0} to (u1, u2), exactly.

    On the line p2 = c - p1 the squared distance is a parabola in p1;
    fit it exactly through p1 = 0 and p1 = c, take the vertex, clamp.
    No step of the solver's closed form is reused.
    """
    if c == 0:
        return 0.0, 0.0
    u1f, u2f, cf = Fraction(u1), Fraction(u2), Fraction(c)

    def dist2(s: Fraction) -> Fraction:
        return (s - u1f) ** 2 + (cf - s - u2f) ** 2

    s = (dist2(Fraction(0)) - dist2(cf)) / (4 * cf) + cf / 2
    s = min(max(s, Fraction(0)), cf)
    return float(s), float(cf - s)


def pair_network(c):
    """The triples of a network whose node j, of broadcast cost c[j],
    relays between two leaves of its own, so pair row j is node j's."""
    m = len(c)
    nodes = [Node(j, float(x)) for j, x in enumerate(c)]
    nodes += [Node(m + j, 1.0) for j in range(2 * m)]
    edges = [(j, m + 2 * j + e) for j in range(m) for e in (0, 1)]
    idx = enumerate_triples(build_expanded_graph(Instance(nodes, edges, [])))
    assert idx.mid[idx.pair_fwd].tolist() == list(range(m))
    return idx


def project_pairs_by_step(u1, u2, c) -> tuple[np.ndarray, np.ndarray]:
    """subgradient_step's projection of each point (u1[j], u2[j]) onto
    {p1 + p2 = c[j], p >= 0}.

    Pair j is node j of pair_network(c).  From the even split (c/2,
    c/2), one unit step (n = 1, a = 1) with forward flow u1 - c/2 and
    reverse flow u2 - c/2 moves the pair to (u1, u2) before the clamp.
    """
    idx = pair_network(c)
    p = init_prices(idx)
    agg = np.zeros(len(idx))
    agg[idx.pair_fwd] = np.asarray(u1, dtype=float) - p.values[idx.pair_fwd]
    agg[idx.pair_rev] = np.asarray(u2, dtype=float) - p.values[idx.pair_rev]
    out = subgradient_step(p, agg, 1, SolverConfig(), idx).values
    return out[idx.pair_fwd], out[idx.pair_rev]


# ------------------------------------------------ label-correcting labels

def relaxation_labels(bounds: list[int], arcs: list[int], heads: list[int],
                      wts: list[float], src: int
                      ) -> tuple[list[float], list[int], list[int]]:
    """FIFO label-correcting sweep; same label order, no priority queue.

    The graph is the CSR that _dijkstra reads.  Kept as an independent
    route to the same fixed point: the acceptance rule is identical, only
    the work schedule differs.  The labels match _dijkstra on the test
    cases, but not always: once a label improves to a smaller distance
    with more hops, a neighbour whose extension rounds to its current
    distance keeps its old predecessor, as the message-passing twin does
    (see the strict xfail test_twin_matches_solve_on_side8_draw3).
    """
    nv = len(bounds) - 1
    dist = [math.inf] * nv
    hops = [0] * nv
    pred = [-1] * nv
    dist[src] = 0.0
    queue = deque([src])
    queued = [False] * nv
    queued[src] = True
    while queue:
        u = queue.popleft()
        queued[u] = False
        d, hp = dist[u], hops[u]
        for k in arcs[bounds[u]:bounds[u + 1]]:
            vtx = heads[k]
            nd = d + wts[k]
            nh = hp + 1
            if nd < dist[vtx] or (nd == dist[vtx] and nh < hops[vtx]):
                dist[vtx] = nd
                hops[vtx] = nh
                pred[vtx] = u
                if not queued[vtx]:
                    queue.append(vtx)
                    queued[vtx] = True
            elif nd == dist[vtx] and nh == hops[vtx] and (
                    pred[vtx] == -1 or u < pred[vtx]):
                if vtx != src:
                    pred[vtx] = u
    return dist, hops, pred
