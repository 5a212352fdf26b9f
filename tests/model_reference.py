"""Loop references for the array code in carpool.model and the baseline.

These are the dictionary-and-loop forms of triple enumeration and the
conservation residual that the package computed before it moved to
arrays, and the node-graph Dijkstra that the no-coding baseline ran
before it shared the edge graph's shortest-route search.  The tests
require the package to reproduce them bit for bit: same triple order,
same reversal and pair tables, residuals whose sums run in the same
(triple) order, and the same baseline routes and total, so every float
is equal, not merely close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from carpool.model import InfeasibleSessionError


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
