"""Message-passing twin of the solver loop.

Every node of the expanded graph (artificial ones included) runs a
processor.  Node i owns the prices and route rows of all triples whose
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
node on the path adds its own triple's row to the session's route from
that message; this chase is the only walk of a route.  solve()'s loop,
price_ascent, gets the routes in three buffers that the Simulator
fills every round, as the route search does, and runs the price step.

One Simulator object holds a run: the links between graph neighbours,
the message counts, and every node's state as one table per kind.  The
labels are one list per session indexed by vertex id, node i holding
the entries of its vertices (i, j); the inboxes are one list per node;
the prices are one list indexed by triple row and the routes one list
of rows per session.  Every arc (v, i) -> (i, w) that node i extends or
routes over is a row whose middle node is i, so node i reads and writes
its own rows only.  subgradient_step's update of a row's price reads
only the loop's flow on that row and on its reverse (w, i, v), also
node i's, and the step size alpha, which is the same for the whole
network.  So the elementwise step is every node's own computation, done
side by side.

Simulator.run is a deterministic event loop.  Each round activates the
nodes that hold mail when it starts, once each and no other node: a
synchronous round in id order, each node reading the mail sent before
the round; an asynchronous one in a seeded shuffle of that list, where
a node also reads mail sent earlier in the round, and mail for a node
already activated or not listed waits for the next round.  Any fair
order reaches the same labels (totally asynchronous iterations,
Bertsekas and Tsitsiklis 1989, ch. 6) but for the rounding tie above,
so the schedule decides only the traffic.
A message is a tuple (sender, receiver, session, vertex, value, hops),
one kind per phase, and may only connect graph neighbours.  Every
message is staged, and one post checks, counts and delivers it; when a
phase fails, at the round cap, on a refused post or on a broken
predecessor chain, its mail is dropped.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .edge_graph import build_edge_graph
from .model import (ExpandedGraph, Instance, PriceVector, TripleIndex,
                    build_expanded_graph, check_config_types,
                    enumerate_triples)
from .solver import SolverConfig, SolveTrace, Solution, price_ascent

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
    """How Simulator.run orders a round's activations.  Either mode
    activates only the nodes holding mail when the round starts.  "sync"
    takes them in id order and delivers the round's mail after it;
    "async" shuffles them with random.Random(seed) and delivers each
    message at once, so a node later in the round reads it."""

    mode: str = "sync"  # "sync" or "async"
    seed: int = 0

    def __post_init__(self):
        check_config_types(self, counts=("seed",), reals=())
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in ("sync", "async"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")


@dataclass
class MessageStats:
    """A run's message counts; bytes_estimate is derived from them."""

    label_messages: int = 0
    flow_messages: int = 0
    rounds: int = 0
    delivered: int = 0
    per_iteration: list[dict] = field(default_factory=list)

    @property
    def bytes_estimate(self) -> int:
        return (LABEL_BYTES * self.label_messages
                + FLOW_BYTES * self.flow_messages)


class Simulator:
    """One run's network: the links a message may use, every node's
    labels, inbox, prices and routes as tables indexed by session, node
    or triple row, and the event loop that delivers the messages."""

    def __init__(self, g: ExpandedGraph, idx: TripleIndex,
                 schedule: SimSchedule | None = None):
        h = build_edge_graph(g, idx)
        self.g, self.vertices = g, h.vertices
        self.heads = [j for _, j in h.vertices]  # who hears of (i, j)
        ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
        self.adjset = [set(nbrs[lo:hi]) for lo, hi in zip(ptr, ptr[1:])]
        self.stats = MessageStats()
        self.staging: list[tuple] = []
        # out[u]: (head vertex, triple row) of every arc leaving vertex u
        arcs = list(zip(idx.head.tolist(), range(len(idx))))
        self.out = [arcs[lo:hi] for lo, hi in zip(idx.out_lo.tolist(),
                                                   idx.out_hi.tolist())]
        self.wts: list[float] = []  # price per triple, set per round
        self.routes: list[list[int]] = []  # per session, destination first
        # (dists, start, rows), which each message round refills and
        # returns; rows has the search's room, a simple route per session
        ns, nv = len(g.base.sessions), len(self.vertices)
        self.route_buffers = (np.zeros(ns), np.zeros(ns + 1, dtype=np.int64),
                              np.zeros(ns * (nv - 1), dtype=np.int64))
        # labels[t][vertex (i, j)]: (dist, hops, pred vertex, row of the
        # triple pred -> vertex) or None, held by node i; reset per flood
        self.labels: list[list] = [[] for _ in g.base.sessions]
        self.inbox: list[list[tuple]] = [[] for _ in range(g.n_nodes)]
        self.waiting: list[int] = []  # the nodes whose inbox holds mail
        self.schedule = schedule or SimSchedule()
        self.rng = random.Random(self.schedule.seed)
        self.max_rounds = 2 * len(g.indices) + 16  # per phase

    def _post(self, kind: str) -> None:
        """Deliver the staged messages, all of one kind, "label" or
        "flow", and count them.  Each must join graph neighbours; a node
        whose inbox was empty joins the waiting list."""
        staged, self.staging = self.staging, []
        inbox, waiting, adjset = self.inbox, self.waiting, self.adjset
        for msg in staged:
            sender, receiver = msg[0], msg[1]
            if receiver not in adjset[sender]:
                self._drop()
                raise RuntimeError(f"message {kind} from {sender} to "
                                   f"non-neighbour {receiver}")
            box = inbox[receiver]
            if not box:
                waiting.append(receiver)
            box.append(msg)
        if kind == "label":
            self.stats.label_messages += len(staged)
        else:
            self.stats.flow_messages += len(staged)

    def _drop(self) -> None:
        """Empty every inbox, the waiting list and the staged mail, so
        that no later phase on this simulator reads a failed one's."""
        for box in self.inbox:
            box.clear()
        self.waiting, self.staging = [], []

    def run(self, handle, kind: str) -> None:
        """Deliver and process until nothing moves.  A phase carries one
        kind of message, and handle(nid, batch) processes a batch of it
        at node nid.  A round activates the nodes that hold mail when it
        starts, in id order or, async, in a seeded shuffle of that order.
        When the round cap fires, a post is refused or a chase finds a
        broken chain, the phase's mail is dropped before the error is
        raised."""
        inbox = self.inbox
        rounds = 0
        sync = self.schedule.mode == "sync"
        self._post(kind)
        while self.waiting:
            rounds += 1
            if rounds > self.max_rounds:
                exc = QuiescenceError(sorted(
                    {(kind, m[2], self.vertices[m[3]])
                     for nid in self.waiting for m in inbox[nid]}))
                self._drop()
                raise exc
            visit, self.waiting = self.waiting, []
            visit.sort()
            if not sync:
                self.rng.shuffle(visit)
            for nid in visit:
                batch = inbox[nid]
                inbox[nid] = []
                self.stats.delivered += len(batch)
                handle(nid, batch)
                if not sync:  # a later node of visit reads this round
                    self._post(kind)
            if sync:
                self._post(kind)
        self.stats.rounds += rounds

    def relax(self, nid: int, offers: list[tuple]) -> None:
        """Node nid, i, extends each offered label of a vertex (v, i)
        over its own arcs (v, i) -> (i, w) and offers every label it
        improves to w."""
        heads, out, wts, staging = self.heads, self.out, self.wts, self.staging
        for _, _, t, uv, d, nh in offers:
            labels = self.labels[t]
            nh += 1
            for vtx, k in out[uv]:
                nd = d + wts[k]
                cur = labels[vtx]
                if cur is None or nd < cur[0] or (nd == cur[0]
                                                  and nh < cur[1]):
                    labels[vtx] = (nd, nh, uv, k)
                    staging.append((nid, heads[vtx], t, vtx, nd, nh))
                elif nd == cur[0] and nh == cur[1] and uv < cur[2]:
                    labels[vtx] = (nd, nh, uv, k)

    def pass_on(self, nid: int, notices: list[tuple]) -> None:
        """Node nid chases each flow notice it received."""
        for _, _, t, vid, value, _ in notices:
            self.chase(nid, t, vid, value)

    def chase(self, nid: int, t: int, vid: int, value: float) -> None:
        """Node nid adds the row of its vertex vid's label to route t and
        passes value on to the predecessor's first node."""
        label = self.labels[t][vid]
        if label is None:
            self._drop()
            raise RuntimeError("broken predecessor chain")
        _, _, pred, k = label
        if pred < 0:
            return  # source pair reached; nothing upstream of it
        self.routes[t].append(k)
        self.staging.append((nid, self.vertices[pred][0], t, pred, value, 0))


def distributed_shortest_paths(sim: Simulator) -> list[float]:
    """Flood labels to quiescence; each destination's distance, or inf."""
    for t, src in enumerate(sim.g.src_pair.tolist()):
        sim.labels[t] = [None] * len(sim.vertices)
        sim.labels[t][src] = (0.0, 0, -1, -1)
        sim.staging.append((*sim.vertices[src], t, src, 0.0, 0))
    sim.run(sim.relax, "label")
    return [INF if labels[dst] is None else labels[dst][0]
            for labels, dst in zip(sim.labels, sim.g.dst_pair.tolist())]


def _flow_notification(sim: Simulator) -> None:
    """Each destination walks its predecessor chain; relays add their rows."""
    g = sim.g
    sim.routes = [[] for _ in g.base.sessions]
    for t, (s, dst) in enumerate(zip(g.base.sessions, g.dst_pair.tolist())):
        sim.chase(sim.vertices[dst][0], t, dst, s.rate)
    sim.run(sim.pass_on, "flow")


def _message_round(sim: Simulator, p: PriceVector
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route every session by messages at prices p: each node reads its
    rows of p, then the label flood and the flow chase run.  The routes
    come back in sim.route_buffers, as the route search returns its own:
    (dists, start, rows), and rows past start[-1] are free room."""
    distributed_price_update(sim, p)
    stats = sim.stats
    before = stats.label_messages, stats.flow_messages, stats.rounds
    dists = distributed_shortest_paths(sim)
    _flow_notification(sim)
    stats.per_iteration.append({
        "iteration": len(stats.per_iteration) + 1,
        "label_messages": stats.label_messages - before[0],
        "flow_messages": stats.flow_messages - before[1],
        "rounds": stats.rounds - before[2],
    })
    # a chase walks from the destination, so each route is reversed
    rows = [k for route in sim.routes for k in reversed(route)]
    qdist, start, buffer = sim.route_buffers
    qdist[:] = dists
    start[1:] = np.cumsum(list(map(len, sim.routes)))
    buffer[:len(rows)] = rows
    return sim.route_buffers


def distributed_price_update(sim: Simulator, p: PriceVector) -> None:
    """Every node reads its own triple rows of p into the price list it
    relaxes with; no messages."""
    sim.wts = p.values.tolist()


def run_distributed_solve(inst: Instance, cfg: SolverConfig | None = None,
                          schedule: SimSchedule | None = None
                          ) -> tuple[Solution, SolveTrace, MessageStats]:
    """Same contract as solve(), computed by neighbour-only messaging."""
    cfg = cfg or SolverConfig()
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    sim = Simulator(g, idx, schedule)
    sol, trace = price_ascent(g, idx, cfg, lambda p: _message_round(sim, p))
    return sol, trace, sim.stats
