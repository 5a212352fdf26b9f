"""Price ascent with route averaging, certified by a duality gap.

One price per triple, coupled so the two directions through a relay
split its broadcast cost: p(v,i,w) + p(w,i,v) = c_i, both nonnegative.
Each round prices the network, routes every session on its cheapest
priced path, then nudges prices toward the direction that carried more
flow (the closed-form clamp below is exactly the Euclidean projection
back onto the coupled set).  Rate-weighted path distances give a lower
bound on the coded optimum; the running average of the per-round routes
is a feasible flow whose cost gives an upper bound.  When the two meet
within tolerance, the answer is certified.

All arithmetic is deterministic: fixed tie-break order in the path
solver, fixed session order in every sum, elementwise price updates.
price_ascent is the one copy of this loop, price step included: solve()
runs it on the route search, and the message-passing twin on its
neighbour messages, so both give the same bits.  After the routes, a
round's recovery, transmission summary, expanded cost and price step
are one call of the round: the compiled kernel's carpool_round
(_subproblem.c), or, without the kernel, _round, its contract in numpy,
which runs transmission_summary, total_cost and subgradient_step with
the same IEEE operations in the same order.  Under solve() the round
reads the routes in the route search's own buffers, so no route is
copied between the two calls.  What stays in Python is the dual bound,
the gap, the trace and the stop decision.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from . import edge_graph
from .edge_graph import build_edge_graph, primal_subproblem
from .model import (ExpandedGraph, FlowVector, Instance, PriceVector,
                    TransmissionSummary, TripleIndex, build_expanded_graph,
                    check_config_types, enumerate_triples, total_cost,
                    transmission_summary)


class NonFiniteError(ArithmeticError):
    """A bound or cost of the loop left float range; the message says which."""


@dataclass
class SolverConfig:
    step_a: float = 1.0  # round n steps by alpha = step_a / n
    tol: float = 1e-2
    max_iters: int = 5000

    def __post_init__(self):
        check_config_types(self, counts=("max_iters",),
                           reals=("step_a", "tol"))
        for name in ("step_a", "tol"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class SolveTrace:
    iters: list[int] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    dual_bounds: list[float] = field(default_factory=list)
    best_bounds: list[float] = field(default_factory=list)
    recovered_costs: list[float] = field(default_factory=list)
    rel_gaps: list[float] = field(default_factory=list)

    def append(self, n: int, alpha: float, q: float, best: float,
               cost: float, gap: float) -> None:
        self.iters.append(n)
        self.alphas.append(alpha)
        self.dual_bounds.append(q)
        self.best_bounds.append(best)
        self.recovered_costs.append(cost)
        self.rel_gaps.append(gap)

    def __len__(self) -> int:
        return len(self.iters)


@dataclass
class Solution:
    flows: list[FlowVector]
    prices: PriceVector
    summary: TransmissionSummary
    expanded_cost: float
    physical_cost: float
    gap: float
    certified: bool
    iterations: int


def init_prices(idx: TripleIndex) -> PriceVector:
    """Start every pair at an even split of its relay's broadcast cost."""
    return PriceVector(0.5 * idx.cost)


def subgradient_step(p: PriceVector, agg: np.ndarray, alpha: float,
                     idx: TripleIndex, out: np.ndarray | None = None
                     ) -> PriceVector:
    """One projected price update from this round's total flow per triple.

    For each unordered pair the forward price moves by half the step
    alpha times the net forward flow, clamped to [0, c]; the reverse
    price is the complement, so the coupled constraint holds exactly.
    The new prices go into out, which may be p.values itself, or by
    default into a new array.  The work is done in one pair-sized array,
    and every float operation takes its operands in the order of
    p_fwd + half * (agg_fwd - agg_rev): which of two NaNs numpy keeps in
    a sum depends on that order.
    """
    x = agg[idx.pair_fwd]
    np.subtract(x, agg[idx.pair_rev], out=x)
    np.multiply(0.5 * alpha, x, out=x)
    np.add(p.values[idx.pair_fwd], x, out=x)
    np.maximum(x, 0.0, out=x)  # then the minimum: np.clip's bits
    np.minimum(x, idx.pair_cost, out=x)
    if out is None:
        out = np.empty_like(p.values)
    out[idx.pair_fwd] = x
    out[idx.pair_rev] = np.subtract(idx.pair_cost, x, out=x)
    return PriceVector(out)


class _RoundState(ctypes.Structure):
    """carpool_round's round_state (_subproblem.c), field for field."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("ns", "nt", "npairs",
                                                      "nn")]
                + [(name, ctypes.c_void_p) for name in ("rates", "start",
                                                        "rows", "sums",
                                                        "keys", "bins")]
                + [(name, ctypes.c_int64) for name in ("nkeys", "cap")]
                + [(name, ctypes.c_void_p) for name in (
                    "fwd", "rev", "mid", "cost", "y", "z", "p", "work",
                    "ncost")]
                + [("expanded", ctypes.c_double)])


def _round(state: _LoopState, n: int, alpha: float, m: int) -> int:
    """carpool_round in numpy, which runs when the kernel cannot be built
    or loaded: the same buffers, the arrays that state binds in its frame,
    and the same status codes, 0, -3 or -5, with nothing changed on -3 or
    -5.  It calls transmission_summary, total_cost and subgradient_step by
    this module's names."""
    frame, idx, start = state.frame, state.idx, state.start
    T, counts = frame.nt, start[1:] - start[:-1]
    if start[0] != 0 or start[-1] > m or (counts < 0).any():
        return -5
    rows = state.rows[:start[-1]]
    if (rows.view(np.uint64) >= T).any():  # a negative row too
        return -5
    values = state.rates.repeat(counts)
    flat = np.arange(0, frame.ns * T, T).repeat(counts) + rows
    sums, used = state.flat_sums, frame.nkeys
    seen = sums[flat]
    fresh = flat[seen == 0.0]  # never carried, as values > 0
    if len(fresh) > frame.cap - used:
        return -3
    if len(fresh):
        keys = np.sort(np.concatenate((state.keys[:used], fresh)),
                       kind="stable")
        used = frame.nkeys = len(keys)
        state.keys[:used] = keys
        np.remainder(keys, T, out=state.bins[:used])
    sums[flat] = np.add(seen, values, out=seen)  # what += would store
    agg = np.bincount(state.bins[:used],
                      weights=sums[state.keys[:used]] / n, minlength=T)
    summary = transmission_summary(agg, state.g, idx)
    np.copyto(state.summary.y, summary.y)
    np.copyto(state.summary.z, summary.z)
    frame.expanded, _ = total_cost(state.summary, state.g)
    flow = np.bincount(rows, weights=values, minlength=T)
    # work keeps the prices routed at, as every row is in a pair; flow is
    # ints when the round carried nothing
    np.copyto(state.work, state.p.values)
    subgradient_step(state.p, flow.astype(float, copy=False), alpha, idx,
                     out=state.p.values)
    return 0


class _LoopState:
    """Recovery, bounds, the price step and the stop decision of
    price_ascent's rounds, on the prices p, which it steps in place.

    sums[t] is session t's flow summed over the rounds so far, and
    sums[t] / n its recovered flow after round n.  The transmission
    summary adds those means in session order over keys, the sorted flat
    positions t * T + row of the entries that ever carried flow; every
    other term is +0.0 and changes no bit.  (Dividing one running total
    by n would round differently.)  The means are built only for the
    solution.

    A round is one call of fn, which does the recovery, the summary, its
    expanded cost and the price step: the compiled kernel's round on ref,
    the address of frame, or without the kernel _round on ref, this
    state.  Either reads and writes the arrays bound once in frame, and
    leaves the expanded cost in frame.expanded; keys and bins grow on
    demand.  start and rows are routes, the buffers that the route search
    fills when they are given (solve() binds its search's), or else two
    arrays that each round's routes are copied into.  The call leaves in
    work the prices the round was routed at, which a round that certifies
    puts back.
    """

    def __init__(self, g: ExpandedGraph, idx: TripleIndex,
                 cfg: SolverConfig, trace: SolveTrace, p: PriceVector,
                 kernel: edge_graph.Kernel | None,
                 routes: tuple[np.ndarray, np.ndarray] | None = None):
        self.g, self.idx, self.cfg, self.trace, self.p = g, idx, cfg, trace, p
        sessions, T, pairs = g.base.sessions, len(idx), len(idx.pair_fwd)
        self.sums = np.zeros((len(sessions), T))
        self.flat_sums = self.sums.reshape(-1)  # a view of sums
        # doubles whatever the rates' type: the kernel reads them as such
        self.rates = np.array([s.rate for s in sessions], dtype=np.float64)
        self.keys = self.bins = np.zeros(0, dtype=np.int64)  # bins: keys % T
        self.best = -math.inf
        self.summary = TransmissionSummary(idx, np.zeros(pairs),
                                           np.zeros(g.n_nodes))
        self.gap = 0.0
        self.certified = not sessions
        self.start, self.rows = routes or (
            np.zeros(len(sessions) + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64))
        # the pair arrays, the costs, the prices and the route buffers come
        # from outside, and the kernel reads and writes them by address:
        # check them once
        for a, dtype, size, bound in (
                (idx.pair_fwd, np.int64, pairs, T),
                (idx.pair_rev, np.int64, pairs, T),
                (idx.pair_mid, np.int64, pairs, g.n_nodes),
                (idx.pair_cost, np.float64, pairs, None),
                (g.costs, np.float64, g.n_nodes, None),
                (p.values, np.float64, T, None),
                (self.start, np.int64, len(sessions) + 1, None),
                (self.rows, np.int64, len(self.rows), None)):
            edge_graph._check_array(a, np.dtype(dtype))
            if len(a) != size or (bound is not None
                                  and (a.view(np.uint64) >= bound).any()):
                raise ValueError("price or pair array out of range")
        self.work = np.zeros(T)
        arrays = {"rates": self.rates, "start": self.start,
                  "rows": self.rows, "sums": self.flat_sums,
                  "keys": self.keys, "bins": self.bins, "fwd": idx.pair_fwd,
                  "rev": idx.pair_rev, "mid": idx.pair_mid,
                  "cost": idx.pair_cost, "y": self.summary.y,
                  "z": self.summary.z, "p": p.values, "work": self.work,
                  "ncost": g.costs}
        # the frame holds addresses only; self, g, idx and p keep the
        # arrays
        self.frame = _RoundState(
            len(sessions), T, pairs, g.n_nodes,
            **{name: a.ctypes.data for name, a in arrays.items()})
        self.fn, self.ref = ((_round, self) if kernel is None
                             else (kernel.round, ctypes.addressof(self.frame)))

    def ingest(self, n: int, alpha: float, start: np.ndarray,
               rows: np.ndarray, q: float) -> bool:
        """Record round n, whose step size is alpha and whose dual bound
        is q, in which session t carried its rate on the triple rows
        rows[start[t]:start[t + 1]], each (session, triple) at most once,
        and step the prices unless the round certifies; True means the
        gap certificate is in hand."""
        if not math.isfinite(q):
            raise NonFiniteError(
                f"iteration {n}: dual bound is {q!r}; costs or rates are "
                f"too large for float arithmetic")
        if q > self.best:
            self.best = q
        frame, m = self.frame, len(rows)
        if start is not self.start:  # routes from elsewhere: copy them in
            if m > len(self.rows):
                self.rows = np.empty(2 * m, dtype=np.int64)
                frame.rows = self.rows.ctypes.data
            np.copyto(self.start, start)
            self.rows[:m] = rows
        used = frame.nkeys
        if used + m > frame.cap:  # room for every row to be a new key
            for name in ("keys", "bins"):
                a = np.empty(2 * (used + m), dtype=np.int64)
                a[:used] = getattr(self, name)[:used]
                setattr(self, name, a)
                setattr(frame, name, a.ctypes.data)
            frame.cap = len(a)
        status = self.fn(self.ref, n, alpha, m)
        if status:
            raise RuntimeError(f"round failed with status {status}")
        cost = frame.expanded
        if not math.isfinite(cost):
            raise NonFiniteError(
                f"iteration {n}: recovered cost is {cost!r}; costs or rates "
                f"are too large for float arithmetic")
        self.gap = (cost - self.best) / max(1.0, self.best)
        self.trace.append(n, alpha, q, self.best, cost, self.gap)
        self.certified = self.gap <= self.cfg.tol
        if self.certified:  # put back the prices this round routed at
            for pairs in (self.idx.pair_fwd, self.idx.pair_rev):
                self.p.values[pairs] = self.work[pairs]
        return self.certified

    def solution(self, iterations: int) -> Solution:
        expanded, physical = total_cost(self.summary, self.g)
        mean = [FlowVector(s.sid, row / iterations)
                for s, row in zip(self.g.base.sessions, self.sums)]
        return Solution(mean, self.p, self.summary, expanded, physical,
                        self.gap, self.certified, iterations)


def price_ascent(g: ExpandedGraph, idx: TripleIndex, cfg: SolverConfig,
                 route, routes: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[Solution, SolveTrace]:
    """Iterate to a certified gap or the cap; both front ends run this.

    route(p) gives every session's cheapest route at prices p as (dists,
    start, rows): session t's distance is dists[t] and its triple rows
    are rows[start[t]:start[t + 1]].  The round's ingest then moves the
    prices on the round's flow per triple by alpha = step_a / n, worked
    out once per round and recorded in the trace too, unless the round
    certifies.  The step writes the new prices over p.values: one array
    holds the prices for the whole solve and ends as the solution's, so
    route may read p only while it runs.  The twin copies p.values with
    tolist, and the route search keeps the array only to reuse its
    address.  routes, when given, is the pair of buffers (start, rows)
    that route fills: it returns that start and a prefix of that rows,
    and the round reads them in place.  Without it, each round's routes
    are copied.  An overflowed distance makes the dual bound inf, which
    ingest reports.  The recovery's keys sort session-major, so its sum
    adds each triple's means in session order, as a cumulative sum down
    the sessions would.
    """
    trace = SolveTrace()
    p = init_prices(idx)
    state = _LoopState(g, idx, cfg, trace, p, edge_graph._load_kernel(),
                       routes)
    if state.certified:  # no sessions
        return state.solution(0), trace
    rate_list = [s.rate for s in g.base.sessions]
    n = 0
    # ingest reports an overflow as a non-finite bound or cost
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, cfg.max_iters + 1):
            alpha = cfg.step_a / n
            dists, start, rows = route(p)
            q = 0.0
            for rate, dist in zip(rate_list, dists.tolist()):
                q += rate * dist
            if state.ingest(n, alpha, start, rows, q):
                break
    return state.solution(n), trace


def solve(inst: Instance, cfg: SolverConfig | None = None
          ) -> tuple[Solution, SolveTrace]:
    """Full pipeline: expand, price, iterate to a certified gap or the cap."""
    cfg = cfg or SolverConfig()
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    h = build_edge_graph(g, idx)
    search = edge_graph.search_of(h)
    return price_ascent(g, idx, cfg, lambda p: primal_subproblem(h, p),
                        (search.start, search.rows))
