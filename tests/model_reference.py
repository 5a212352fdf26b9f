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

The instance loader is here as the package had it before it read plain
documents in bulk and checked them on arrays: each record converted on
its own, then each record checked in a loop, components by union-find.
It has the package's later rules for a record list that is not a list
and for naming a bad node id, so every message must match.

The rest reads results the package only computes: the triples of a
TripleIndex as tuples, their rows and the rows of their reversals
(triples_of, index_of, rev_of), the arcs of each edge-graph vertex
grouped by a sort instead of read as a range (arc_csr_reference), a
route search's routes cut and copied out of its buffers
(routes_copied), one session's route as a path (shortest_path,
path_to_flow), the route a recovered flow settles on (dominant_path),
the conservation residual of dense flow vectors (flow_entries,
residual_of, worst_residual) and the dual-feasibility check of a price
vector (validate_prices).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np

from carpool import (FlowVector, PriceVector, SolveTrace,
                     TransmissionSummary, build_edge_graph,
                     build_expanded_graph, conservation_residual, edge_graph,
                     enumerate_triples, init_prices, subgradient_step)
from carpool.model import (InfeasibleSessionError, Instance,
                           InstanceError, Node, Session)
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


# ------------------------------------------------------ the instance loader

def _node_id_reference(value) -> int:
    nid = int(value)
    if isinstance(value, bool) or nid != value:
        raise ValueError(f"node id {value!r} is not an integer")
    return nid


def _number_reference(value) -> float:
    if isinstance(value, (bool, str)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _session_id_reference(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"session id {value!r} is not a string or an "
                         f"integer")
    return str(value)


def instance_from_dict_reference(doc) -> Instance:
    """An instance document read record by record, then checked record by
    record, raising what cli.instance_from_dict raises.

    A record list that is not a JSON list is refused as a whole; a node
    id fault names the first id out of range, else the first repeated
    and the smallest missing id; components come from a union-find.
    """
    if not isinstance(doc, dict):
        raise InstanceError(f"instance must be a JSON object, got "
                            f"{type(doc).__name__}")
    where = "instance document"

    def records(name: str):
        nonlocal where
        where = "instance document"
        recs = doc[name]
        where = name
        if not isinstance(recs, list):
            iter(recs)
            raise TypeError(f"'{type(recs).__name__}' object is not a list")
        for n, rec in enumerate(recs):
            where = f"{name}[{n}]"
            yield rec

    nid, number = _node_id_reference, _number_reference
    try:
        nodes = [Node(nid(r["id"]), number(r["cost"]),
                      tuple(number(x) for x in r["pos"]) if "pos" in r
                      else None)
                 for r in records("nodes")]
        edges = [(nid(a), nid(b)) for a, b in records("edges")]
        sessions = [Session(_session_id_reference(r["id"]),
                            nid(r["source"]), nid(r["dest"]),
                            number(r["rate"]))
                    for r in records("sessions")]
    except KeyError as exc:
        raise InstanceError(f"{where} has no {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"malformed {where}: {exc}") from exc
    check_instance_reference(nodes, edges, sessions)
    return Instance(nodes, edges, sessions)


def check_instance_reference(nodes, edges, sessions) -> None:
    """Instance's checks, one record at a time."""
    n = len(nodes)
    ids = [nd.nid for nd in nodes]
    if sorted(ids) != list(range(n)):
        fault = None
        for nid in ids:
            if not 0 <= nid < n:
                fault = f"got {nid!r}"
                break
        if fault is None:
            seen: set[int] = set()
            for nid in ids:
                if nid in seen:
                    break
                seen.add(nid)
            missing = min(i for i in range(n) if i not in ids)
            fault = f"{nid!r} is repeated and {missing} is missing"
        raise InstanceError(f"node ids must be dense 0..{n - 1}, {fault}")
    for nd in sorted(nodes, key=lambda nd: nd.nid):
        if not math.isfinite(nd.cost):
            raise InstanceError(f"node {nd.nid} has non-finite cost {nd.cost}")
        if nd.cost < 0.0:
            raise InstanceError(f"node {nd.nid} has negative cost {nd.cost}")
        if nd.pos is not None and len(nd.pos) != 2:
            raise InstanceError(f"node {nd.nid} position must be 2-D")
        if nd.pos is not None and not all(map(math.isfinite, nd.pos)):
            raise InstanceError(
                f"node {nd.nid} has non-finite position {tuple(nd.pos)}")
    seen_edges: set[tuple[int, int]] = set()
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        if a == b:
            raise InstanceError(f"edge ({a},{b}) is a self-loop")
        if not (0 <= a < n and 0 <= b < n):
            raise InstanceError(f"edge ({a},{b}) references a missing node")
        key = (min(a, b), max(a, b))
        if key in seen_edges:
            raise InstanceError(f"duplicate edge {key}")
        seen_edges.add(key)
        parent[find(a)] = find(b)
    sids: set[str] = set()
    for s in sessions:
        if s.sid in sids:
            raise InstanceError(f"duplicate session id {s.sid!r}")
        sids.add(s.sid)
        if not (0 <= s.source < n):
            raise InstanceError(f"session {s.sid} source {s.source} missing")
        if not (0 <= s.dest < n):
            raise InstanceError(f"session {s.sid} dest {s.dest} missing")
        if s.source == s.dest:
            raise InstanceError(
                f"session {s.sid} has source = dest = {s.source}")
        if not (s.rate > 0.0):
            raise InstanceError(f"session {s.sid} rate must be > 0")
        if not math.isfinite(s.rate):
            raise InstanceError(
                f"session {s.sid} has non-finite rate {s.rate}")
        if find(s.source) != find(s.dest):
            raise InfeasibleSessionError(
                s.sid, f"source {s.source} and destination {s.dest} lie in "
                       f"different components")


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


def arc_csr_reference(idx, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds): the triple rows grouped by tail pair by a stable
    sort, as the edge graph indexed its arcs before it read the ranges
    TripleIndex.out_lo and out_hi.  The arcs leaving pair u are
    order[bounds[u]:bounds[u + 1]], in triple order."""
    order = np.argsort(idx.tail, kind="stable")
    bounds = np.searchsorted(idx.tail[order], np.arange(n_pairs + 1))
    return order, bounds


# ------------------------------------------------ one route, one flow

@dataclass
class SessionPath:
    session: str
    vertices: list[tuple[int, int]]
    weight: float
    triples: list[int]  # arc ids (= triple rows) along the path


def routes_copied(search, wts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """search.run(wts)'s routes, copied, and rows cut to start[-1], so that
    later calls on search leave them alone."""
    qdist, start, rows = search.run(wts)
    return qdist.copy(), start.copy(), rows[:start[-1]].copy()


def shortest_path(h, p, t) -> SessionPath:
    """Cheapest priced route for session index t, searched alone."""
    src = int(h.g.src_pair[t])
    search = edge_graph.route_search(h.idx.out_lo, h.idx.out_hi, h.idx.head,
                                     [src], [int(h.g.dst_pair[t])])
    dists, _, rows = routes_copied(
        search, np.ascontiguousarray(p.values, dtype=float))
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
        arcs = np.arange(h.idx.out_lo[u], h.idx.out_hi[u])
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
    with np.errstate(over="ignore"):  # bincount's sums overflow silently
        np.add.at(z, idx.mid[idx.pair_fwd], y)
    return TransmissionSummary(idx, y, z)


def total_cost_reference(summary, g) -> tuple[float, float]:
    """total_cost with the products added one by one in node order and the
    destinations' refund added up on every call."""
    expanded = 0.0
    for cost, z in zip(g.costs.tolist(), summary.z.tolist()):
        expanded += cost * z
    correction = 0.0
    for s in g.base.sessions:
        correction += float(g.costs[s.dest]) * s.rate
    return expanded, expanded - correction


def subgradient_step_reference(p, agg, alpha, idx) -> PriceVector:
    """The price step alpha on agg, the flow per triple, clamped by
    np.clip."""
    diff = agg[idx.pair_fwd] - agg[idx.pair_rev]
    half = 0.5 * alpha
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
        for column, value in zip(
                (self.trace.iters, self.trace.alphas, self.trace.dual_bounds,
                 self.trace.best_bounds, self.trace.recovered_costs,
                 self.trace.rel_gaps),
                (n, self.cfg.step_a / n, q, self.best, cost, gap)):
            column.append(value)
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
                                       cfg.step_a / n, idx)
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
    relays between two leaves of its own, so pair row j is node j's.

    The costs go into the index as given, -0.0 too, which an instance
    would turn into +0.0, so that the price step meets them."""
    m = len(c)
    raw = np.array([float(x) for x in c])
    nodes = [Node(j, x) for j, x in enumerate(raw.tolist())]
    nodes += [Node(m + j, 1.0) for j in range(2 * m)]
    edges = [(j, m + 2 * j + e) for j in range(m) for e in (0, 1)]
    idx = enumerate_triples(build_expanded_graph(Instance(nodes, edges, [])))
    assert idx.mid[idx.pair_fwd].tolist() == list(range(m))
    idx.cost = raw[idx.mid]
    idx.pair_cost = raw[idx.mid[idx.pair_fwd]]
    return idx


def project_pairs_by_step(u1, u2, c) -> tuple[np.ndarray, np.ndarray]:
    """subgradient_step's projection of each point (u1[j], u2[j]) onto
    {p1 + p2 = c[j], p >= 0}.

    Pair j is node j of pair_network(c).  From the even split (c/2,
    c/2), one unit step (alpha = 1) with forward flow u1 - c/2 and
    reverse flow u2 - c/2 moves the pair to (u1, u2) before the clamp.
    """
    idx = pair_network(c)
    p = init_prices(idx)
    agg = np.zeros(len(idx))
    agg[idx.pair_fwd] = np.asarray(u1, dtype=float) - p.values[idx.pair_fwd]
    agg[idx.pair_rev] = np.asarray(u2, dtype=float) - p.values[idx.pair_rev]
    out = subgradient_step(p, agg, 1.0, idx).values
    return out[idx.pair_fwd], out[idx.pair_rev]


# ------------------------------------------------ label-correcting labels

def relaxation_labels(lo: list[int], hi: list[int], heads: list[int],
                      wts: list[float], src: int
                      ) -> tuple[list[float], list[int], list[int]]:
    """FIFO label-correcting sweep; same label order, no priority queue.

    The graph is the one the route search reads: the arcs leaving u are
    lo[u] to hi[u] - 1.  Kept as an independent route to the same fixed
    point: the acceptance rule is identical, only the work schedule
    differs.  The labels match the route search's on the test cases,
    but not always: once a label improves to a smaller distance with
    more hops, a neighbour whose extension rounds to its current
    distance keeps its old predecessor, as the message-passing twin
    does (see the strict xfail test_twin_matches_solve_on_side8_draw3).
    """
    nv = len(lo)
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
        for k in range(lo[u], hi[u]):
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
