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

An Instance is validated once, on columns, whether it comes from records
or straight from a JSON document, and keeps its costs and edge ends as
read-only arrays; build_expanded_graph reads those, and the Node and
edge lists are built only when read.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np


class InstanceError(ValueError):
    """Invalid instance data; the message names the offending element."""


def _plain_number(value, what: str, integer: bool = False,
                  error: type[ValueError] = InstanceError) -> int | float:
    """value as an int (integer) or a float; error naming what unless its
    type has __index__ (integer) or is real, and is not bool."""
    kind, ok = (("an integer", hasattr(type(value), "__index__")) if integer
                else ("a number", isinstance(value, numbers.Real)))
    if isinstance(value, bool) or not ok:
        raise error(f"{what} must be {kind}, got {value!r}")
    try:
        return operator.index(value) if integer else float(value)
    except OverflowError:
        raise error(f"{what} is too large for a float") from None


def check_config_types(cfg, counts: tuple[str, ...],
                       reals: tuple[str, ...]) -> None:
    """Refuse a count of cfg that is not an integer or a real field that
    is not a number, and store each as a plain int or float, so that a
    numpy scalar computes as the Python number does (_plain_number)."""
    for name in counts + reals:
        setattr(cfg, name, _plain_number(getattr(cfg, name), name,
                                         name in counts, ValueError))


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


def edge_ends(edges) -> np.ndarray:
    """The (m, 2) array of the ends of m edges: int64, or Python ints in an
    object array when one does not fit; such an id is out of range of
    every instance.

    Each edge must unpack to two integers, of a type with __index__ that
    is not bool; InstanceError names the first edge that does not.  A
    set of the ends' types skips the per-edge loop when every edge has
    two ends of type int.
    """
    try:
        flat = list(itertools.chain.from_iterable(edges))
        plain = (set(map(len, edges)) <= {2}
                 and set(map(type, flat)) <= {int})
    except TypeError:  # an edge that is not iterable or has no length
        plain = False
    if not plain:
        flat = []
        for k, edge in enumerate(edges):
            try:
                a, b = edge
            except (TypeError, ValueError):
                raise InstanceError(f"edges[{k}] must be a pair of node "
                                    f"ids, got {edge!r}") from None
            flat += (_plain_number(a, f"edges[{k}] end", True),
                     _plain_number(b, f"edges[{k}] end", True))
    try:
        ends = np.fromiter(flat, dtype=np.int64, count=len(flat))
    except OverflowError:
        ends = np.array(flat, dtype=object)
    return ends.reshape(-1, 2)


def adjacency(n: int, ends) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices): the sorted neighbour lists of n nodes, as a CSR.

    ends is anything np.asarray reads as (m, 2) node ids, one row per
    undirected edge, which gives one entry at either end.  Node a's
    neighbours are indices[indptr[a]:indptr[a + 1]], ascending.
    """
    ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
    tails = np.concatenate([ends[:, 0], ends[:, 1]])
    heads = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.argsort(tails * n + heads)  # keys are distinct
    indptr = np.searchsorted(tails[order], np.arange(n + 1))
    return indptr, heads[order]


def component_labels(n: int, edges) -> np.ndarray:
    """Smallest node id in each node's connected component.

    edges is anything np.asarray reads as (m, 2) node ids.  Each round
    hooks the larger of the two labels across every edge that still joins
    two labels onto the smaller, then points each node at the end of its
    chain of labels.  Labels only fall, and every label that still has an
    edge to another merges with one, so O(log n) rounds settle it.
    """
    a, b = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    label = np.arange(n)
    while len(a):
        lo, hi = label[a], label[b]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        cross = lo != hi
        a, b = a[cross], b[cross]
        label[hi[cross]] = lo[cross]
        up = label[label]
        # count_nonzero tests a small array faster than .any() does
        while np.count_nonzero(up != label):
            label, up = up, up[up]
    return label


def _dense_fault(ids: list, n: int) -> str:
    """Why ids are not 0..n-1: the first id out of range, else the first
    id that repeats an earlier one, and the smallest missing one."""
    outside = [nid for nid in ids if nid not in range(n)]
    if outside:
        return f"got {outside[0]!r}"
    seen: set = set()
    for nid in ids:
        if nid in seen:
            break
        seen.add(nid)
    missing = min(set(range(n)).difference(ids))
    return f"{nid!r} is repeated and {missing} is missing"


_NID, _COST, _POS = (operator.attrgetter(name)
                     for name in ("nid", "cost", "pos"))


def _plain_nodes(nodes: list[Node]) -> list[Node]:
    """nodes with int ids, float costs and positions of floats in tuples;
    an InstanceError names the node of a value of a type the JSON reader
    refuses.  nodes itself when every value is so already."""
    pos = list(map(_POS, nodes))
    if (set(map(type, pos)) <= {tuple, type(None)}
            and set(map(type, map(_NID, nodes))) <= {int}
            and set(map(type, itertools.chain(
                map(_COST, nodes), *filter(None, pos)))) <= {float}):
        return nodes
    num, out = _plain_number, []
    for nd in nodes:
        nid = num(nd.nid, "node id", True)
        cost = num(nd.cost, f"node {nid} cost")
        coords = None
        if nd.pos is not None:
            try:
                coords = iter(nd.pos)
            except TypeError:
                raise InstanceError(f"node {nid} position must be a "
                                    f"sequence of numbers, got "
                                    f"{nd.pos!r}") from None
            coords = tuple(num(x, f"node {nid} position") for x in coords)
        out.append(Node(nid, cost, coords))
    return out


def _plain_sessions(sessions: list[Session]) -> list[Session]:
    """sessions with str ids, int ends and float rates, an integer id
    written as a string; an InstanceError names the session of a value of
    a type the JSON reader refuses.  sessions itself when every value is
    so already."""
    if ({type(s.sid) for s in sessions} <= {str}
            and set(map(type, itertools.chain.from_iterable(
                (s.source, s.dest) for s in sessions))) <= {int}
            and {type(s.rate) for s in sessions} <= {float}):
        return sessions
    num, out = _plain_number, []
    for s in sessions:
        sid = s.sid if isinstance(s.sid, str) else str(
            num(s.sid, "session id that is not a string", True))
        out.append(Session(
            sid, num(s.source, f"session {sid} source", True),
            num(s.dest, f"session {sid} dest", True),
            num(s.rate, f"session {sid} rate")))
    return out


class Instance:
    """Connectivity graph with per-node broadcast costs and unicast sessions.

    An instance is validated once, on columns: the node ids, costs and
    positions in record order, the (m, 2) array of edge ends (edge_ends)
    and the sessions.  Instance(nodes, edges, sessions) takes the columns
    from records, first checking the types of their values in list order
    (nodes, edges, then sessions) and storing them as the JSON reader
    does (int, float, tuple, str).  Instance.from_columns takes columns
    of those types, as the JSON reader builds them straight from a
    document.

    Validation then checks the node ids, the nodes and the edges on
    arrays, then the sessions, and reports the first faulty record in
    order (nodes in id order).  A node's cost is checked before its
    position; an edge for a self-loop, then a missing node, then an
    earlier copy; a session for an id used before, its endpoints, source
    = dest, its rate and then whether its endpoints share a component.

    The instance keeps n, the sessions and two read-only arrays:
    cost_vector, the costs in id order, and ends, the (min, max) ends of
    every edge in list order, which the graph builds read.  nodes, in id
    order, and edges, as (min, max) tuples, are built from the columns
    on first read; an instance made from records keeps its nodes.
    """

    def __init__(self, nodes: list[Node], edges: list[tuple[int, int]],
                 sessions: list[Session]):
        nodes = _plain_nodes(nodes)
        ends = edge_ends(edges)
        sessions = _plain_sessions(sessions)
        n = len(nodes)
        pos = [(0.0, 0.0) if p is None else p  # no position passes
               for p in map(_POS, nodes)]
        self._validate(list(map(_NID, nodes)),
                       np.fromiter(map(_COST, nodes), float, n),
                       np.fromiter(map(len, pos), np.int64, n),
                       np.fromiter(itertools.chain.from_iterable(pos), float),
                       ends, sessions)
        self._nodes = sorted(nodes, key=_NID)
        self._pos = None

    @classmethod
    def from_columns(cls, ids: list[int], cost: np.ndarray,
                     pos: np.ndarray | None, ends: np.ndarray,
                     sessions: list[Session]) -> Instance:
        """The instance of columns of plain values, in record order: int
        ids, n float costs, an (n, 2) float array of positions or None
        when no node has one, ends as edge_ends makes them, and sessions
        of str ids, int ends and float rates."""
        inst = cls.__new__(cls)
        n = len(ids)
        order = inst._validate(
            ids, cost, np.full(n, 2),
            np.zeros(2 * n) if pos is None else pos.ravel(), ends, sessions)
        inst._nodes = None
        inst._pos = (None if pos is None else pos.copy() if order is None
                     else pos[order])
        return inst

    def _validate(self, ids: list, cost: np.ndarray, size: np.ndarray,
                  flat: np.ndarray, ends: np.ndarray,
                  sessions: list[Session]) -> np.ndarray | None:
        """Check the columns and keep them.  Record k's position is
        flat[s:s + size[k]], where s sums the sizes before it.  Returns
        the record of each node id, or None when the records run in id
        order."""
        self.n = n = len(ids)
        order = None
        if ids != list(range(n)):
            if sorted(ids) != list(range(n)):
                raise InstanceError(f"node ids must be dense 0..{n - 1}, "
                                    f"{_dense_fault(ids, n)}")
            order = np.empty(n, dtype=np.int64)
            order[ids] = np.arange(n)
        self._check_nodes(ids, cost, size, flat)
        self.cost_vector = cost.copy() if order is None else cost[order]
        self.cost_vector.flags.writeable = False
        self.ends = self._check_edges(ends)
        self.ends.flags.writeable = False
        self._edges = None
        # sessions number in the tens: a loop checks them faster than
        # arrays would
        labels = component_labels(n, self.ends).tolist() if sessions else []
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
            if labels[s.source] != labels[s.dest]:
                raise InfeasibleSessionError(
                    s.sid,
                    f"source {s.source} and destination {s.dest} lie in "
                    f"different components")
        self.sessions = sessions
        return order

    @staticmethod
    def _check_nodes(ids: list, cost: np.ndarray, size: np.ndarray,
                     flat: np.ndarray) -> None:
        n = len(ids)
        off = ~np.isfinite(flat)
        bad = ~(np.isfinite(cost) & (cost >= 0.0)) | (size != 2)
        if np.count_nonzero(off):  # flag each node holding a non-finite one
            bad[np.repeat(np.arange(n), size)[off]] = True
        if not np.count_nonzero(bad):
            return
        k = min(np.flatnonzero(bad).tolist(), key=ids.__getitem__)
        nid, c = ids[k], float(cost[k])
        if not math.isfinite(c):
            raise InstanceError(f"node {nid} has non-finite cost {c}")
        if c < 0.0:
            raise InstanceError(f"node {nid} has negative cost {c}")
        if size[k] != 2:
            raise InstanceError(f"node {nid} position must be 2-D")
        start = int(size[:k].sum())
        raise InstanceError(f"node {nid} has non-finite position "
                            f"{tuple(flat[start:start + 2].tolist())}")

    def _check_edges(self, ends: np.ndarray) -> np.ndarray:
        """The (min, max) ends of every edge, a new array; raise on the
        first faulty edge."""
        n = self.n
        a, b = ends.T
        out = np.empty_like(ends)
        lo, hi = out.T
        np.minimum(a, b, out=lo)
        np.maximum(a, b, out=hi)
        key = lo * n + hi
        bad = (a == b) | (lo < 0) | (hi >= n)
        if np.count_nonzero(key[1:] <= key[:-1]):  # else no key repeats
            key[bad] = -1 - np.nonzero(bad)[0]  # so that a bad one repeats none
            _, first = np.unique(key, return_index=True)
            repeat = np.ones(len(key), dtype=bool)
            repeat[first] = False
            bad |= repeat
        if np.count_nonzero(bad):
            a, b = ends[int(bad.argmax())].tolist()
            if a == b:
                raise InstanceError(f"edge ({a},{b}) is a self-loop")
            if not (0 <= a < n and 0 <= b < n):
                raise InstanceError(f"edge ({a},{b}) references a missing "
                                    f"node")
            raise InstanceError(f"duplicate edge {(min(a, b), max(a, b))}")
        return out

    @property
    def nodes(self) -> list[Node]:
        """The nodes in id order."""
        if self._nodes is None:
            pos = (itertools.repeat(None) if self._pos is None
                   else map(tuple, self._pos.tolist()))
            self._nodes = list(map(Node, range(self.n),
                                   self.cost_vector.tolist(), pos))
        return self._nodes

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The edges as (min, max) tuples, in list order."""
        if self._edges is None:
            lo, hi = self.ends.T.tolist()
            self._edges = list(zip(lo, hi))
        return self._edges

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.nodes, self.edges, self.sessions)
                == (other.nodes, other.edges, other.sessions))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(nodes={self.nodes!r}, "
                f"edges={self.edges!r}, sessions={self.sessions!r})")

    def costs(self) -> np.ndarray:
        """The node costs, a cost of -0.0 as +0.0."""
        return self.cost_vector + 0.0


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
    indptr, indices = adjacency(n_total, np.concatenate(
        [inst.ends, np.stack([src, sp], axis=1),
         np.stack([dst, sp + 1], axis=1)]))
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
    edge-graph arc from pair tail[k] to pair head[k].  The arcs leaving
    pair u = (v, i) are its triples (v, i, w), rows out_lo[u]:out_hi[u];
    the blocks run in (i, v) order, not pair order, and may be empty.
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
    pair_mid: np.ndarray     # middle node of each pair_fwd row
    out_lo: np.ndarray       # first row of each pair's arcs
    out_hi: np.ndarray       # one past the last row of each pair's arcs

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
    tails = np.repeat(np.arange(n, dtype=np.int64), deg)  # a of pair (a, b)
    # pair (b, a) of each pair (a, b): the pairs sorted by (b, a), as the
    # reversal is its own inverse (the keys are distinct)
    rev = np.argsort(nbr * n + tails)
    # pair (i, v) heads deg(i) candidates (v, i, w), one per pair (i, w),
    # so candidates run by (i, v, w)
    d = deg[tails]
    first = np.cumsum(d) - d                   # first candidate of a pair
    ev = np.repeat(np.arange(len(nbr)), d)     # pair (i, v)
    ew = np.arange(len(ev)) - np.repeat(first - indptr[tails], d)  # (i, w)
    v, w = nbr[ev], nbr[ew]
    keep = (v != w) & ((v < g.n_base) | (w < g.n_base))
    # ends[c] counts the kept candidates before c: c's row if c is kept
    ends = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=ends[1:])
    v, w, ev, ew = v[keep], w[keep], ev[keep], ew[keep]
    mid = tails[ev]
    key = (mid * n + v) * n + w
    cost = g.costs[mid]
    pair_fwd = np.nonzero(v < w)[0]
    fv, fw, pair_mid = ev[pair_fwd], ew[pair_fwd], mid[pair_fwd]
    # (w, i, v) is the candidate of pair (i, w) at v's place in i's list
    pair_rev = ends[first[fw] + fv - indptr[pair_mid]]
    # the arcs leaving pair (v, i) are the kept candidates of pair (i, v)
    return TripleIndex(n, v, mid, w, key, rev[ev], ew, cost, pair_fwd,
                       pair_rev, cost[pair_fwd], pair_mid,
                       ends[first[rev]], ends[(first + d)[rev]])


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
    z = np.bincount(idx.pair_mid, weights=y, minlength=g.n_nodes)
    return TransmissionSummary(idx, y, z)


def total_cost(summary: TransmissionSummary, g: ExpandedGraph
               ) -> tuple[float, float]:
    """(expanded, physical) cost of a transmission summary.

    Expanded charges every broadcast, including the one each destination
    makes toward its artificial sink; physical refunds those deliveries.
    The products are added from +0.0 in node order, as carpool_round adds
    them, so no bit depends on the BLAS kernel np.dot would pick by CPU.
    """
    terms = g.costs * summary.z
    expanded = float(np.bincount(np.zeros(len(terms), dtype=np.intp),
                                 weights=terms, minlength=1)[0])
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
