"""Edge-graph shortest paths: the priced relay sub-problem.

Vertices are the ordered node pairs (i, j) of the expanded graph; for
every triple (i, j, k) there is an arc (i, j) -> (j, k) whose weight is
the current price p(i, j, k).  A cheapest route from (s'_t, s_t) to
(d_t, d'_t), scaled by the session rate, is an optimal single-session
flow for the priced relaxation, and the sum of rate-weighted distances
is a lower bound on the coded optimum.

Ties are broken by a total order on labels: smaller distance, then fewer
arcs, then smaller predecessor vertex index.  The order makes every run
reproducible and lets the message-passing solver reach bit-identical
results.  With the arc count in the key, zero-price arcs cannot produce
cyclic or ambiguous paths.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import (ExpandedGraph, FlowVector, InfeasibleSessionError,
                    PriceVector, TripleIndex, ordered_pairs)

INF = math.inf


@dataclass
class SessionPath:
    session: str
    vertices: list[tuple[int, int]]
    weight: float
    triples: list[int]  # arc ids (= triple rows) along the path


@dataclass
class EdgeGraph:
    """Directed graph over ordered node pairs; arcs are the triples."""

    g: ExpandedGraph
    idx: TripleIndex
    vertices: list[tuple[int, int]]
    vindex: dict[tuple[int, int], int]
    tail: np.ndarray   # per triple: vertex index of (v, i)
    head: np.ndarray   # per triple: vertex index of (i, w)
    out: list[list[tuple[int, int]]]  # per vertex: (head vertex, triple row)
    src_vertex: list[int]  # per session
    dst_vertex: list[int]


def build_edge_graph(g: ExpandedGraph, idx: TripleIndex) -> EdgeGraph:
    vertices = ordered_pairs(g)
    vindex = {p: i for i, p in enumerate(vertices)}
    # arcs grouped by tail vertex, in triple order within each group
    order = np.argsort(idx.tail, kind="stable")
    bounds = np.searchsorted(idx.tail[order], np.arange(len(vertices) + 1))
    arcs = list(zip(idx.head[order].tolist(), order.tolist()))
    out = [arcs[lo:hi] for lo, hi in zip(bounds[:-1].tolist(),
                                         bounds[1:].tolist())]
    src = [vindex[g.source_vertex(t)] for t in range(len(g.base.sessions))]
    dst = [vindex[g.dest_vertex(t)] for t in range(len(g.base.sessions))]
    return EdgeGraph(g, idx, vertices, vindex, idx.tail, idx.head, out, src,
                     dst)


def _dijkstra(h: EdgeGraph, wts: list[float], src: int,
              stop_at: int | None = None
              ) -> tuple[list[float], list[int], list[int]]:
    """Labels (dist, hops, pred vertex) from src under the tie-break order.

    Predecessors settle to the smallest-index in-neighbour whose final
    label supports the vertex's final (dist, hops); every such supporter
    pops strictly earlier in (dist, hops) order, so one pass suffices.
    """
    from heapq import heappush, heappop

    nv = len(h.vertices)
    dist = [INF] * nv
    hops = [0] * nv
    pred = [-1] * nv
    dist[src] = 0.0
    heap = [(0.0, 0, src)]
    while heap:
        d, hp, u = heappop(heap)
        if d != dist[u] or hp != hops[u]:
            continue
        if u == stop_at:
            break
        for vtx, k in h.out[u]:
            nd = d + wts[k]
            nh = hp + 1
            if nd < dist[vtx] or (nd == dist[vtx] and nh < hops[vtx]):
                dist[vtx] = nd
                hops[vtx] = nh
                pred[vtx] = u
                heappush(heap, (nd, nh, vtx))
            elif nd == dist[vtx] and nh == hops[vtx] and (
                    pred[vtx] == -1 or u < pred[vtx]):
                if vtx != src:
                    pred[vtx] = u
    return dist, hops, pred


def relaxation_labels(h: EdgeGraph, wts: list[float], src: int
                      ) -> tuple[list[float], list[int], list[int]]:
    """FIFO label-correcting sweep; same label order, no priority queue.

    Kept as an independent route to the same fixed point: the acceptance
    rule is identical, only the work schedule differs.  The labels match
    _dijkstra on the test cases, but not always: once a label improves to
    a smaller distance with more hops, a neighbour whose extension rounds
    to its current distance keeps its old predecessor, as the
    message-passing twin does (see the strict xfail
    test_twin_matches_solve_on_side8_draw3).
    """
    nv = len(h.vertices)
    dist = [INF] * nv
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
        for vtx, k in h.out[u]:
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


def _walk_back(h: EdgeGraph, pred: list[int], src: int, dst: int
               ) -> tuple[list[tuple[int, int]], list[int]]:
    seq = [dst]
    while seq[-1] != src:
        p = pred[seq[-1]]
        if p < 0:
            raise RuntimeError("broken predecessor chain")
        seq.append(p)
    seq.reverse()
    vidx = h.idx.index
    verts = [h.vertices[u] for u in seq]
    trips = [vidx[(verts[j][0], verts[j][1], verts[j + 1][1])]
             for j in range(len(verts) - 1)]
    return verts, trips


def shortest_path(h: EdgeGraph, p: PriceVector, t: int) -> SessionPath:
    """Cheapest priced route for session index t, deterministic under ties."""
    wts = p.values.tolist()
    return _session_path(h, wts, t)


def _session_path(h: EdgeGraph, wts: list[float], t: int) -> SessionPath:
    src, dst = h.src_vertex[t], h.dst_vertex[t]
    sid = h.g.base.sessions[t].sid
    dist, _, pred = _dijkstra(h, wts, src, stop_at=dst)
    if dist[dst] == INF:
        raise InfeasibleSessionError(sid, "no priced route to destination")
    verts, trips = _walk_back(h, pred, src, dst)
    return SessionPath(sid, verts, dist[dst], trips)


def path_to_flow(path: SessionPath, rate: float, idx: TripleIndex
                 ) -> FlowVector:
    values = np.zeros(len(idx))
    values[path.triples] = rate
    return FlowVector(path.session, values)


def primal_subproblem(g: ExpandedGraph, idx: TripleIndex, p: PriceVector,
                      sessions: list[int] | None = None,
                      h: EdgeGraph | None = None
                      ) -> tuple[list[FlowVector], float]:
    """Per-session cheapest routes and the dual bound they certify.

    Returns the rate-scaled path flows and q = sum_t R_t * dist_t, which
    never exceeds the coded optimum.
    """
    if h is None:
        h = build_edge_graph(g, idx)
    if sessions is None:
        sessions = list(range(len(g.base.sessions)))
    wts = p.values.tolist()
    flows = []
    q = 0.0
    for t in sessions:
        path = _session_path(h, wts, t)
        flows.append(path_to_flow(path, g.base.sessions[t].rate, idx))
        q += g.base.sessions[t].rate * path.weight
    return flows, q


def dominant_path(h: EdgeGraph, x: FlowVector, t: int) -> SessionPath:
    """Follow the largest recovered flow from source to destination.

    Long-run averages keep vanishing mass on paths visited early on; the
    dominant successor walk extracts the route the session settles on.
    Ties prefer the smaller triple row.
    """
    src, dst = h.src_vertex[t], h.dst_vertex[t]
    vals = x.values
    u = src
    verts = [h.vertices[src]]
    trips: list[int] = []
    seen = {src}
    while u != dst:
        best_k = -1
        best_val = 0.0
        best_head = -1
        for vtx, k in h.out[u]:
            if vals[k] > best_val:
                best_val = vals[k]
                best_k = k
                best_head = vtx
        if best_k < 0:
            raise ValueError(
                f"session {x.session}: recovered flow dies out at "
                f"{h.vertices[u]}")
        if best_head in seen:
            raise ValueError(
                f"session {x.session}: recovered flow cycles at "
                f"{h.vertices[best_head]}")
        seen.add(best_head)
        verts.append(h.vertices[best_head])
        trips.append(best_k)
        u = best_head
    weight = float(sum(h.idx.cost[k] for k in trips))
    return SessionPath(x.session, verts, weight, trips)
