"""Loop references for the array code in carpool.

These are the dictionary-and-loop forms of triple enumeration and the
conservation residual that the package computed before it moved to
arrays, and the node-graph Dijkstra that the no-coding baseline ran
before it shared the edge graph's shortest-route search.  The tests
require the package to reproduce them bit for bit: same triple order,
same reversal and pair tables, residuals whose sums run in the same
(triple) order, and the same baseline routes and total, so every float
is equal, not merely close.

The solve loop has its dense form here too: one flow vector per session
and round, summed, averaged and priced vector by vector, as the package
did before it carried each round's routes as triple rows.  Beside it
are the exact projection onto a coupled price pair and a FIFO
label-correcting sweep, two independent routes to results the package
computes in closed form or with a priority queue.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np

from carpool import (FlowVector, PriceVector, SolverConfig, SolveTrace,
                     build_edge_graph, build_expanded_graph, enumerate_triples,
                     init_prices, path_to_flow, shortest_path,
                     subgradient_step, total_cost, transmission_summary)
from carpool.model import InfeasibleSessionError, Instance, Node


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


def enumerate_triples_reference(g) -> ReferenceTriples:
    triples: list[tuple[int, int, int]] = []
    for i in range(g.n_nodes):
        nbrs = g.adj[i]
        if len(nbrs) < 2:
            continue
        for v in nbrs:
            for w in nbrs:
                if v == w:
                    continue
                if g.is_artificial(v) and g.is_artificial(w):
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
    for a, b in g.edges:
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
    sp, dp = g.terminals[t]
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
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in inst.edges:
        adj[a].append(b)
        adj[b].append(a)
    for lst in adj:
        lst.sort()
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
        if dist[s.dest] == math.inf:
            raise InfeasibleSessionError(s.sid, "no route to destination")
        path = [s.dest]
        while path[-1] != s.source:
            path.append(pred[path[-1]])
        path.reverse()
        paths.append(path)
        total += s.rate * dist[s.dest]
    return total, paths


# ----------------------------------------------------- the dense solve loop

def dense_aggregate(flows, size: int) -> np.ndarray:
    """Total flow per triple, summed vector by vector in list order."""
    agg = np.zeros(size)
    for f in flows:
        agg += f.values
    return agg


def primal_subproblem_reference(g, idx, p, h):
    """Each session's cheapest route as a dense rate-scaled flow, and q."""
    flows = []
    q = 0.0
    for t, s in enumerate(g.base.sessions):
        path = shortest_path(h, p, t)
        flows.append(path_to_flow(path, s.rate, idx))
        q += s.rate * path.weight
    return flows, q


def subgradient_step_reference(p, flows, n, cfg, idx) -> PriceVector:
    """The price step on dense per-session flows."""
    agg = dense_aggregate(flows, len(idx))
    diff = agg[idx.pair_fwd] - agg[idx.pair_rev]
    half = 0.5 * cfg.alpha(n)
    fwd = np.clip(p.values[idx.pair_fwd] + half * diff, 0.0, idx.pair_cost)
    out = np.empty_like(p.values)
    out[idx.pair_fwd] = fwd
    out[idx.pair_rev] = idx.pair_cost - fwd
    return PriceVector(out)


class DenseLoopState:
    """Recovery on dense vectors: per-session sums, means, their total."""

    def __init__(self, g, idx, cfg, trace):
        self.g, self.idx, self.cfg, self.trace = g, idx, cfg, trace
        self.sums = [np.zeros(len(idx)) for _ in g.base.sessions]
        self.best = -math.inf
        self.mean: list[FlowVector] = []

    def ingest(self, n, flows, q) -> bool:
        if q > self.best:
            self.best = q
        for s, f in zip(self.sums, flows):
            s += f.values
        self.mean = [FlowVector(f.session, s / n)
                     for s, f in zip(self.sums, flows)]
        summary = transmission_summary(
            dense_aggregate(self.mean, len(self.idx)), self.g, self.idx)
        cost, _ = total_cost(summary, self.g)
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
    p = init_prices(g, idx)
    for n in range(1, cfg.max_iters + 1):
        flows, q = primal_subproblem_reference(g, idx, p, h)
        if state.ingest(n, flows, q):
            break
        p = subgradient_step_reference(p, flows, n, cfg, idx)
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


def project_pairs_by_step(u1, u2, c) -> tuple[np.ndarray, np.ndarray]:
    """subgradient_step's projection of each point (u1[j], u2[j]) onto
    {p1 + p2 = c[j], p >= 0}.

    Pair j is node j, of broadcast cost c[j], relaying between two leaves
    of its own.  From the even split (c/2, c/2), one unit step (n = 1,
    a = 1) with forward flow u1 - c/2 and reverse flow u2 - c/2 moves the
    pair to (u1, u2) before the clamp.
    """
    m = len(c)
    nodes = [Node(j, float(x)) for j, x in enumerate(c)]
    nodes += [Node(m + j, 1.0) for j in range(2 * m)]
    edges = [(j, m + 2 * j + e) for j in range(m) for e in (0, 1)]
    g = build_expanded_graph(Instance(nodes, edges, []))
    idx = enumerate_triples(g)
    assert idx.mid[idx.pair_fwd].tolist() == list(range(m))
    p = init_prices(g, idx)
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
