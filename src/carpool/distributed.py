"""Message-passing twin of the solver loop.

Every node of the expanded graph (artificial ones included) runs a
processor.  Node i owns the prices and flow tallies of all triples whose
middle node is i, and the routing labels of every ordered pair (i, j).
When the label of (v, i) improves at node v, v tells i; i extends the
route over its own priced arcs (v, i) -> (i, w) and, on improvement,
tells w.  At quiescence the labels are a fixed point of the same
(distance, arc count, predecessor index) order the in-process solver
uses, so on the builtin instances and the acceptance cases paths,
flows, prices and the stopping decision come out bit for bit identical.
That is not guaranteed in general: when two different distances round
to the same float once an arc price is added, a vertex can keep a
predecessor whose chain has more hops than its label says, and the twin
then routes along a path of equal length that solve() does not take.
The strict xfail test_twin_matches_solve_on_side8_draw3 in bench/tests
keeps a seeded draw on which this happens.

After each routing phase the destination starts a hop-by-hop trace back
along predecessors.  A label keeps the triple row that set it, so each
node on the path tallies its own triple's flow from that message; this
chase is the only walk of a route.  The price step then sums the
tallies and takes solve()'s subgradient_step, whose update of a triple's
price reads only the same node's prices and tallies.

Triples are sorted by middle node, so node i's prices and tallies are
one contiguous slice of arrays the simulator keeps for all nodes, and
the elementwise price step is every node's own computation, done side
by side.  Relaxations read the node's prices from a list it refreshes
once per price step.

The simulator is a deterministic event loop: synchronous rounds deliver
all messages at once, the asynchronous mode activates nodes in a
seeded-random order each round.  Either way every node acts every round,
and a message may only connect graph neighbours (checked on every send).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .edge_graph import EdgeGraph, build_edge_graph
from .model import (ExpandedGraph, InfeasibleSessionError,
                    Instance, PriceVector, TripleIndex, build_expanded_graph,
                    enumerate_triples)
from .solver import (SolverConfig, SolveTrace, Solution, _LoopState,
                     init_prices, subgradient_step)

INF = math.inf

LABEL_BYTES = 40  # sender, session, vertex, distance, arc count
FLOW_BYTES = 32   # sender, session, vertex, flow value


class QuiescenceError(RuntimeError):
    """The event loop hit its round cap with messages still moving."""

    def __init__(self, active: list):
        self.active = active
        super().__init__(
            f"no quiescence within the round cap; still active: "
            f"{active[:8]}{'...' if len(active) > 8 else ''}")


@dataclass
class SimSchedule:
    mode: str = "sync"  # "sync" or "async"
    seed: int = 0
    max_rounds: int | None = None  # per phase; default scales with the graph

    def __post_init__(self):
        if self.mode not in ("sync", "async"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass(slots=True)
class Message:
    sender: int
    receiver: int
    kind: str            # "label" or "flow"
    session: int
    vertex: int          # edge-graph vertex id of the ordered pair
    dist: float = 0.0
    hops: int = 0
    value: float = 0.0


@dataclass
class MessageStats:
    label_messages: int = 0
    flow_messages: int = 0
    rounds: int = 0
    bytes_estimate: int = 0
    delivered: int = 0
    neighbor_violations: int = 0
    per_iteration: list[dict] = field(default_factory=list)

    def in_flight(self) -> int:
        return self.label_messages + self.flow_messages - self.delivered


class _SimContext:
    """Static structure shared by all processors of one run, and the
    price and tally arrays whose per-node slices the processors own."""

    def __init__(self, g: ExpandedGraph, idx: TripleIndex, h: EdgeGraph,
                 schedule: SimSchedule, p: PriceVector):
        self.g, self.idx, self.h = g, idx, h
        ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
        self.adjset = [set(nbrs[lo:hi]) for lo, hi in zip(ptr, ptr[1:])]
        self.stats = MessageStats()
        self.staging: list[Message] = []
        # triple rows of middle node i: bounds[i] to bounds[i + 1]
        self.bounds = np.searchsorted(idx.mid, np.arange(g.n_nodes + 1)
                                      ).tolist()
        # out[u]: (head vertex, triple row) of every arc leaving vertex u
        arcs = list(zip(h.head[h.order].tolist(), h.order.tolist()))
        cuts = h.bounds.tolist()
        self.out = [arcs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        self.prices = p.values.copy()
        self.tally = np.zeros((len(g.base.sessions), len(idx)))
        self.schedule = schedule
        self.rng = random.Random(schedule.seed)
        self.max_rounds = schedule.max_rounds or 2 * len(h.vertices) + 16

    def send(self, msg: Message) -> None:
        if msg.receiver not in self.adjset[msg.sender]:
            self.stats.neighbor_violations += 1
            raise RuntimeError(
                f"message {msg.kind} from {msg.sender} to non-neighbour "
                f"{msg.receiver}")
        if msg.kind == "label":
            self.stats.label_messages += 1
            self.stats.bytes_estimate += LABEL_BYTES
        else:
            self.stats.flow_messages += 1
            self.stats.bytes_estimate += FLOW_BYTES
        self.staging.append(msg)


class NodeProcessor:
    """One node's local state: prices, tallies, owned labels, inbox."""

    def __init__(self, nid: int, ctx: _SimContext):
        self.nid = nid
        self.ctx = ctx
        self.k_lo, self.k_hi = ctx.bounds[nid], ctx.bounds[nid + 1]
        self.tally = ctx.tally[:, self.k_lo:self.k_hi]
        self.wts: list[float] = []  # own triple prices, refreshed per step
        # labels[t]: owned vertex id -> (dist, hops, pred vertex id, row
        # of the triple pred -> vertex)
        self.labels: list[dict[int, tuple[float, int, int, int]]] = [
            {} for _ in range(len(ctx.g.base.sessions))]
        self.inbox: list[Message] = []

    def reset_labels(self) -> None:
        for d in self.labels:
            d.clear()

    def prime_source(self, t: int, vid: int) -> None:
        self.labels[t][vid] = (0.0, 0, -1, -1)
        self._announce(t, vid, 0.0, 0)

    def _announce(self, t: int, vid: int, dist: float, hops: int) -> None:
        self.ctx.send(Message(self.nid, self.ctx.h.vertices[vid][1], "label",
                              t, vid, dist, hops))

    def _relax(self, msg: Message) -> None:
        uv, t = msg.vertex, msg.session
        labels = self.labels[t]
        wts, lo = self.wts, self.k_lo
        d, nh = msg.dist, msg.hops + 1
        for vtx, k in self.ctx.out[uv]:
            nd = d + wts[k - lo]
            cur = labels.get(vtx)
            if cur is None or nd < cur[0] or (nd == cur[0] and nh < cur[1]):
                labels[vtx] = (nd, nh, uv, k)
                self._announce(t, vtx, nd, nh)
            elif nd == cur[0] and nh == cur[1] and uv < cur[2]:
                labels[vtx] = (nd, nh, uv, k)

    def _chase(self, t: int, vid: int, value: float) -> None:
        label = self.labels[t].get(vid)
        if label is None:
            raise RuntimeError("broken predecessor chain")
        _, _, pred, k = label
        if pred < 0:
            return  # source pair reached; nothing upstream of it
        self.tally[t, k - self.k_lo] += value
        self.ctx.send(Message(self.nid, self.ctx.h.vertices[pred][0], "flow",
                              t, pred, value=value))


def _share_prices(procs: list[NodeProcessor]) -> None:
    wts = procs[0].ctx.prices.tolist()
    for proc in procs:
        proc.wts = wts[proc.k_lo:proc.k_hi]


def make_processors(g: ExpandedGraph, idx: TripleIndex, p: PriceVector,
                    schedule: SimSchedule | None = None,
                    h: EdgeGraph | None = None) -> list[NodeProcessor]:
    if h is None:
        h = build_edge_graph(g, idx)
    ctx = _SimContext(g, idx, h, schedule or SimSchedule(), p)
    procs = [NodeProcessor(i, ctx) for i in range(g.n_nodes)]
    _share_prices(procs)
    return procs


def _run_to_quiescence(ctx: _SimContext, procs: list[NodeProcessor]
                       ) -> None:
    """Deliver and process until nothing moves."""
    rounds = 0
    sync = ctx.schedule.mode == "sync"
    order = list(range(len(procs)))
    while ctx.staging or any(p.inbox for p in procs):
        rounds += 1
        if rounds > ctx.max_rounds:
            vertices = ctx.h.vertices
            active = sorted({(m.kind, m.session, vertices[m.vertex])
                             for m in ctx.staging}
                            | {(m.kind, m.session, vertices[m.vertex])
                               for p in procs for m in p.inbox})
            raise QuiescenceError(active)
        pending, ctx.staging = ctx.staging, []
        for msg in pending:
            procs[msg.receiver].inbox.append(msg)
        if not sync:
            ctx.rng.shuffle(order)
            # late activations see messages sent earlier in the same round
        for nid in order:
            proc = procs[nid]
            batch = proc.inbox
            if not batch:
                continue  # an idle node sends nothing
            proc.inbox = []
            ctx.stats.delivered += len(batch)
            for msg in batch:
                if msg.kind == "label":
                    proc._relax(msg)
                else:
                    proc._chase(msg.session, msg.vertex, msg.value)
            if not sync and ctx.staging:
                pending, ctx.staging = ctx.staging, []
                for msg in pending:
                    procs[msg.receiver].inbox.append(msg)
        if not sync:
            order.sort()
    ctx.stats.rounds += rounds


def distributed_shortest_paths(procs: list[NodeProcessor]) -> list[float]:
    """Flood labels to quiescence; each destination's settled distance."""
    ctx = procs[0].ctx
    h = ctx.h
    for proc in procs:
        proc.reset_labels()
    for t, src in enumerate(h.src_vertex):
        procs[h.vertices[src][0]].prime_source(t, src)
    _run_to_quiescence(ctx, procs)
    dists = []
    for t, (s, dst) in enumerate(zip(ctx.g.base.sessions, h.dst_vertex)):
        dist = procs[h.vertices[dst][0]].labels[t].get(dst, (INF,))[0]
        if dist == INF:
            raise InfeasibleSessionError(s.sid,
                                         "no priced route to destination")
        dists.append(dist)
    return dists


def _flow_notification(procs: list[NodeProcessor]) -> None:
    """Each destination walks its predecessor chain; relays tally rates."""
    ctx = procs[0].ctx
    h = ctx.h
    for t, (s, dst) in enumerate(zip(ctx.g.base.sessions, h.dst_vertex)):
        procs[h.vertices[dst][0]]._chase(t, dst, s.rate)
    _run_to_quiescence(ctx, procs)


def distributed_price_update(procs: list[NodeProcessor], n: int,
                             cfg: SolverConfig) -> None:
    """Every node reprices its own triples from its tallies; no messages."""
    ctx = procs[0].ctx
    agg = np.zeros(len(ctx.idx))
    for row in ctx.tally:
        agg += row
    ctx.prices = subgradient_step(PriceVector(ctx.prices), agg, n, cfg,
                                  ctx.idx).values
    _share_prices(procs)


def run_distributed_solve(inst: Instance, cfg: SolverConfig | None = None,
                          schedule: SimSchedule | None = None
                          ) -> tuple[Solution, SolveTrace, MessageStats]:
    """Same contract as solve(), computed by neighbour-only messaging."""
    cfg = cfg or SolverConfig()
    schedule = schedule or SimSchedule()
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    h = build_edge_graph(g, idx)
    p0 = init_prices(idx)
    procs = make_processors(g, idx, p0, schedule, h)
    ctx = procs[0].ctx
    trace = SolveTrace()
    state = _LoopState(g, idx, cfg, trace)
    if not g.base.sessions:
        state.certified = True
        return state.solution(p0, 0), trace, ctx.stats
    n = 0
    for n in range(1, cfg.max_iters + 1):
        labels_before = ctx.stats.label_messages
        flows_before = ctx.stats.flow_messages
        rounds_before = ctx.stats.rounds
        dists = distributed_shortest_paths(procs)
        _flow_notification(procs)
        q = 0.0
        for s, dist in zip(g.base.sessions, dists):
            q += s.rate * dist
        # row-major: session order, as the solve loop ingests its routes
        carried = np.nonzero(ctx.tally)
        stop = state.ingest(n, *carried, ctx.tally[carried], q)
        if not stop:
            distributed_price_update(procs, n, cfg)
        ctx.tally.fill(0.0)
        ctx.stats.per_iteration.append({
            "iteration": n,
            "label_messages": ctx.stats.label_messages - labels_before,
            "flow_messages": ctx.stats.flow_messages - flows_before,
            "rounds": ctx.stats.rounds - rounds_before,
        })
        if stop:
            break
    return state.solution(PriceVector(ctx.prices), n), trace, ctx.stats
