"""Graph model for coded multi-unicast routing.

A wireless node i delivers one broadcast to all of its neighbours at cost
c_i.  A relay holding packets that move in opposite directions through it
can XOR the pair and broadcast once, so for the unordered neighbour pair
{v, w} node i transmits max(forward sum, reverse sum) times rather than
the total.  Everything downstream (prices, shortest paths, the message
protocol) is indexed by ordered triples (v, i, w): a two-hop relay move
v -> i -> w.

Each session t gets two artificial degree-1 nodes: a source s'_t attached
to s_t and a destination d'_t attached to d_t.  On that expanded graph
every node is purely a source, a destination, or a relay, which makes the
transmission count a clean max() per neighbour pair.  The price of the
bookkeeping is one guaranteed broadcast by each physical destination; the
physical cost subtracts those c_{d_t} * R_t terms back out.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np


class InstanceError(ValueError):
    """Invalid instance data; the message names the offending element."""


def check_config_types(cfg, counts: tuple[str, ...],
                       reals: tuple[str, ...]) -> None:
    """Refuse, naming the field, a count of cfg that operator.index
    would refuse (its type has no __index__) or a real field that is not
    a real number; a bool is neither."""
    for name in counts + reals:
        value = getattr(cfg, name)
        if name in counts:
            kind, ok = "an integer", hasattr(type(value), "__index__")
        else:
            kind, ok = "a number", isinstance(value, numbers.Real)
        if isinstance(value, bool) or not ok:
            raise ValueError(f"{name} must be {kind}, got {value!r}")


class InfeasibleSessionError(RuntimeError):
    """A session's destination cannot be reached from its source."""

    def __init__(self, session: str, detail: str):
        self.session = session
        super().__init__(f"session {session} unreachable: {detail}")


@dataclass(frozen=True)
class Node:
    nid: int
    cost: float
    pos: tuple[float, float] | None = None


@dataclass(frozen=True)
class Session:
    sid: str
    source: int
    dest: int
    rate: float


def adjacency(n: int, edges: list[tuple[int, int]]
              ) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices): the sorted neighbour lists of n nodes, as a CSR.

    Node a's neighbours are indices[indptr[a]:indptr[a + 1]], ascending.
    Each undirected edge gives one entry at either end.
    """
    ends = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64,
                       count=2 * len(edges)).reshape(-1, 2)
    tails = np.concatenate([ends[:, 0], ends[:, 1]])
    heads = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.argsort(tails * n + heads)  # keys are distinct
    indptr = np.searchsorted(tails[order], np.arange(n + 1))
    return indptr, heads[order]


def component_labels(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Connected-component label per node id, via union-find."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(i) for i in range(n)]


@dataclass
class Instance:
    """Connectivity graph with per-node broadcast costs and unicast sessions."""

    nodes: list[Node]
    edges: list[tuple[int, int]]
    sessions: list[Session]

    def __post_init__(self):
        n = len(self.nodes)
        ids = sorted(nd.nid for nd in self.nodes)
        if ids != list(range(n)):
            raise InstanceError(f"node ids must be dense 0..{n - 1}, got {ids}")
        self.nodes = sorted(self.nodes, key=lambda nd: nd.nid)
        for nd in self.nodes:
            if not math.isfinite(nd.cost):
                raise InstanceError(
                    f"node {nd.nid} has non-finite cost {nd.cost}")
            if nd.cost < 0.0:
                raise InstanceError(f"node {nd.nid} has negative cost {nd.cost}")
            if nd.pos is not None and len(nd.pos) != 2:
                raise InstanceError(f"node {nd.nid} position must be 2-D")
            if nd.pos is not None and not all(map(math.isfinite, nd.pos)):
                raise InstanceError(
                    f"node {nd.nid} has non-finite position {tuple(nd.pos)}")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for a, b in self.edges:
            if a == b:
                raise InstanceError(f"edge ({a},{b}) is a self-loop")
            if not (0 <= a < n and 0 <= b < n):
                raise InstanceError(f"edge ({a},{b}) references a missing node")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise InstanceError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        self.edges = norm
        labels = component_labels(n, self.edges)
        sids: set[str] = set()
        for s in self.sessions:
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
            if labels[s.source] != labels[s.dest]:
                raise InfeasibleSessionError(
                    s.sid,
                    f"source {s.source} and destination {s.dest} lie in "
                    f"different components")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def costs(self) -> np.ndarray:
        return np.array([nd.cost for nd in self.nodes], dtype=float)


@dataclass
class ExpandedGraph:
    """Instance plus one artificial source/destination pair per session.

    Artificial ids follow the physical ones: session t (0-based) owns
    s'_t = n + 2t and d'_t = n + 2t + 1.  Artificial nodes cost 0; they
    never relay (degree 1), so they never transmit.

    indptr/indices hold the sorted adjacency lists in CSR form.  Entry e
    of indices is the ordered pair (a, indices[e]) with indptr[a] <= e <
    indptr[a + 1], so the entries run through the ordered pairs in sorted
    order: e is the pair index used by the residual and the edge graph.
    Session t's flow enters at pair src_pair[t], (s'_t, s_t), and leaves
    at pair dst_pair[t], (d_t, d'_t).
    """

    base: Instance
    n_base: int
    n_nodes: int
    costs: np.ndarray
    src_pair: np.ndarray
    dst_pair: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    refund: float            # sum_t c_{d_t} R_t, in session order


def pair_positions(indptr: np.ndarray, indices: np.ndarray, a: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """Pair index of each ordered pair (a[j], b[j]) of a CSR; each must
    be an entry of it."""
    n = len(indptr) - 1
    key = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n
    return np.searchsorted(key + indices, a * n + b)


def build_expanded_graph(inst: Instance) -> ExpandedGraph:
    n = inst.n
    n_total = n + 2 * len(inst.sessions)
    costs = np.zeros(n_total)
    costs[:n] = inst.costs()
    src = np.array([s.source for s in inst.sessions], dtype=np.int64)
    dst = np.array([s.dest for s in inst.sessions], dtype=np.int64)
    sp = n + 2 * np.arange(len(src), dtype=np.int64)  # s'_t; d'_t = sp + 1
    indptr, indices = adjacency(n_total, [*inst.edges, *zip(src, sp),
                                          *zip(dst, sp + 1)])
    refund = 0.0
    for s in inst.sessions:
        refund += float(costs[s.dest]) * s.rate
    return ExpandedGraph(inst, n, n_total, costs,
                         pair_positions(indptr, indices, sp, src),
                         pair_positions(indptr, indices, dst, sp + 1),
                         indptr, indices, refund)


def ordered_pairs(g: ExpandedGraph) -> list[tuple[int, int]]:
    """Every ordered pair (a, b) with {a, b} an edge, in pair-index order."""
    tails = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))
    return list(zip(tails.tolist(), g.indices.tolist()))


@dataclass
class TripleIndex:
    """Canonical enumeration of relay triples (v, i, w), both orientations.

    Order is lexicographic by (i, v, w), so triples sharing a middle node
    are contiguous, as are the forward rows (v < w) in the pair arrays;
    key = (i * n_nodes + v) * n_nodes + w is strictly increasing.  A
    triple whose tail and head are both artificial can never carry flow
    (its end pairs have no inflow and no demand), so those are dropped to
    keep the index aligned with meaningful unknowns.  Triple k is the
    edge-graph arc from pair tail[k] to pair head[k].
    """

    n_nodes: int
    v: np.ndarray
    mid: np.ndarray
    w: np.ndarray
    key: np.ndarray
    tail: np.ndarray         # pair index of (v, i)
    head: np.ndarray         # pair index of (i, w)
    cost: np.ndarray         # c of the middle node, per triple
    pair_fwd: np.ndarray     # triple rows with v < w, one per unordered pair
    pair_rev: np.ndarray     # row of (w, i, v) of each pair_fwd row
    pair_cost: np.ndarray

    def __len__(self) -> int:
        return len(self.key)

    def rows(self, triples) -> np.ndarray:
        """Row of each (v, i, w) of an (m, 3) array; -1 where none exists."""
        v, mid, w = np.asarray(triples, dtype=np.int64).reshape(-1, 3).T
        n = self.n_nodes
        ok = ((v >= 0) & (v < n) & (mid >= 0) & (mid < n)
              & (w >= 0) & (w < n))
        q = np.where(ok, (mid * n + v) * n + w, -1)
        if not len(self.key):
            return np.full(q.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.key, q), len(self.key) - 1)
        return np.where(ok & (self.key[pos] == q), pos, -1)


def enumerate_triples(g: ExpandedGraph) -> TripleIndex:
    n = g.n_nodes
    indptr, nbr = g.indptr, g.indices
    deg = np.diff(indptr)
    # every (v, w) in the neighbour list of every i, row-major per i
    block = deg * deg
    mid = np.repeat(np.arange(n, dtype=np.int64), block)
    r = np.arange(len(mid)) - np.repeat(np.cumsum(block) - block, block)
    d = deg[mid]
    ew = indptr[mid] + r % d       # pair index of (i, w)
    v, w = nbr[indptr[mid] + r // d], nbr[ew]
    keep = (v != w) & ((v < g.n_base) | (w < g.n_base))
    mid, v, w, ew = mid[keep], v[keep], w[keep], ew[keep]
    key = (mid * n + v) * n + w
    tail = pair_positions(indptr, nbr, v, mid)  # pair index of (v, i)
    cost = g.costs[mid]
    pair_fwd = np.nonzero(v < w)[0]
    fv, fmid, fw = v[pair_fwd], mid[pair_fwd], w[pair_fwd]
    pair_rev = np.searchsorted(key, (fmid * n + fw) * n + fv)
    return TripleIndex(n, v, mid, w, key, tail, ew, cost, pair_fwd,
                       pair_rev, cost[pair_fwd])


@dataclass
class FlowVector:
    """Per-session flow value for every triple, in packets per unit time."""

    session: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if (self.values < 0).any():
            k = int(np.argmin(self.values))
            raise ValueError(
                f"flow for session {self.session} negative at entry {k}")


@dataclass
class PriceVector:
    """Dual price per triple: what a unit of v->i->w flow pays node i."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


@dataclass
class TransmissionSummary:
    """Broadcast counts after coding: y per unordered pair, z per node.

    y aligns with idx.pair_fwd: the larger of the two directional sums,
    since one coded broadcast serves both.  z is indexed by expanded node
    id.
    """

    idx: TripleIndex
    y: np.ndarray
    z: np.ndarray


def transmission_summary(agg: np.ndarray, g: ExpandedGraph,
                         idx: TripleIndex) -> TransmissionSummary:
    """Coded broadcasts of agg, the flow per triple summed over sessions."""
    y = np.maximum(agg[idx.pair_fwd], agg[idx.pair_rev])
    # bincount adds from 0.0 in input order, as np.add.at does
    z = np.bincount(idx.mid[idx.pair_fwd], weights=y, minlength=g.n_nodes)
    return TransmissionSummary(idx, y, z)


def total_cost(summary: TransmissionSummary, g: ExpandedGraph
               ) -> tuple[float, float]:
    """(expanded, physical) cost of a transmission summary.

    Expanded charges every broadcast, including the one each destination
    makes toward its artificial sink; physical refunds those deliveries.
    """
    expanded = float(np.dot(g.costs, summary.z))
    return expanded, expanded - g.refund


def conservation_residual(sessions: np.ndarray, rows: np.ndarray,
                          values: np.ndarray, g: ExpandedGraph,
                          idx: TripleIndex) -> np.ndarray:
    """Flow balance of every session at every ordered pair (i, j), {i, j}
    an edge.

    Session sessions[j] (an index into g.base.sessions) carries values[j]
    on triple rows[j].  Row t of the result belongs to session t, column e
    to ordered pair e (the order of ordered_pairs).  Residual = (flow
    continuing out through j) - (flow arriving onto (i, j)) - sigma, where
    sigma injects +R_t at (s'_t, s_t) and -R_t at (d_t, d'_t).  A row is
    zero everywhere iff its session's flow is feasible.  Each sum runs in
    input order, so when the input is sorted by (session, row), with each
    pair at most once, it runs in triple order and its bits do not depend
    on how the flows were stored.
    """
    rates = np.array([s.rate for s in g.base.sessions])
    t, n_pairs = np.arange(len(rates)), len(g.indices)

    def total(pairs: np.ndarray) -> np.ndarray:
        return np.bincount(sessions * n_pairs + pairs, weights=values,
                           minlength=len(rates) * n_pairs
                           ).reshape(len(rates), n_pairs)

    sigma = np.zeros((len(rates), n_pairs))
    sigma[t, g.src_pair] = rates
    sigma[t, g.dst_pair] = -rates
    return total(idx.tail[rows]) - total(idx.head[rows]) - sigma
