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
neighbour messages, so both give the same bits.  After the routes, one
call of the round closes it: the dual bound, the recovery, the
transmission summary, its expanded cost, the price step, the gap, the
trace row and the stop test.  The round is the compiled kernel's
carpool_round (_subproblem.c), or, without the kernel, _round, its
contract in numpy, which runs transmission_summary, total_cost and
subgradient_step with the same IEEE operations in the same order.
Either front end's route call returns its own buffers, the same three
arrays every round, and the round reads the routes in them, so no route
is copied between the two calls.  What stays in Python per round is the
loop step, the route call and the round call; the trace's lists are
built once, when the loop ends.
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
                + [(name, ctypes.c_void_p) for name in ("rates", "qdist",
                                                        "start", "rows")]
                + [("nrows", ctypes.c_int64)]
                + [(name, ctypes.c_void_p) for name in ("sums", "keys",
                                                        "bins")]
                + [(name, ctypes.c_int64) for name in ("nkeys", "cap")]
                + [(name, ctypes.c_void_p) for name in (
                    "fwd", "rev", "mid", "cost", "y", "z", "p", "work",
                    "ncost", "trace")]
                + [(name, ctypes.c_int64) for name in ("ntrace", "tcap")]
                + [(name, ctypes.c_double) for name in ("tol", "best", "q",
                                                        "expanded", "gap")])


def _round(state: _LoopState, n: int, alpha: float) -> int:
    """carpool_round in numpy, which runs when the kernel cannot be built
    or loaded: the same buffers, the arrays that state binds in its frame,
    and the same status codes, 1, 0, -3, -5, -6 or -7, with nothing
    changed on -5 and nothing but frame.q on -3 and -6.  It calls
    transmission_summary, total_cost and subgradient_step by this
    module's names."""
    frame, idx, start = state.frame, state.idx, state.start
    T, counts = frame.nt, start[1:] - start[:-1]
    if start[0] != 0 or start[-1] > frame.nrows or (counts < 0).any():
        return -5
    rows = state.rows[:start[-1]]
    if (rows.view(np.uint64) >= T).any():  # a negative row too
        return -5
    q = 0.0
    for rate, dist in zip(state.rates.tolist(), state.qdist.tolist()):
        q = q + rate * dist
    frame.q = q
    if not math.isfinite(q):
        return -6
    values = state.rates.repeat(counts)
    flat = np.arange(0, frame.ns * T, T).repeat(counts) + rows
    sums, used = state.flat_sums, frame.nkeys
    seen = sums[flat]
    fresh = flat[seen == 0.0]  # never carried, as values > 0
    if len(fresh) > frame.cap - used or frame.ntrace >= frame.tcap:
        return -3
    if q > frame.best:
        frame.best = q
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
    cost, best = frame.expanded, frame.best
    if not math.isfinite(cost):
        return -7
    frame.gap = gap = (cost - best) / (best if best > 1.0 else 1.0)
    state.trace_rows[frame.ntrace] = alpha, q, best, cost, gap
    frame.ntrace += 1
    if not gap <= frame.tol:
        return 0
    for pairs in (idx.pair_fwd, idx.pair_rev):
        state.p.values[pairs] = state.work[pairs]
    return 1


class _LoopState:
    """The rounds of price_ascent on the prices p, which it steps in place:
    from a round's routes, its dual bound, the recovery, the bounds, the
    trace and the stop decision, and the price step.

    sums[t] is session t's flow summed over the rounds so far, and
    sums[t] / n its recovered flow after round n.  The transmission
    summary adds those means in session order over keys, the sorted flat
    positions t * T + row of the entries that ever carried flow; every
    other term is +0.0 and changes no bit.  (Dividing one running total
    by n would round differently.)  The means are built only for the
    solution.

    A round is one call of fn, which closes it: the compiled kernel's
    round on ref, the address of frame, or without the kernel _round on
    ref, this state.  Either reads and writes the arrays bound once in
    frame.  It sums the dual bound from the distances qdist, raises the
    best bound in frame.best, does the recovery, the summary, its
    expanded cost and the price step, and writes the gap and the round's
    trace row, (alpha, q, best, cost, gap), into trace_rows; a round whose
    gap is within tol puts back the prices it was routed at, which it
    left in work, and returns 1.  keys, bins and trace_rows grow when the
    round says they are full.  qdist, start and rows are the routes of
    the last round, arrays of the route call's own, which ingest binds
    when they are not the ones bound last; the state owns no route
    buffer and copies no route.
    """

    def __init__(self, g: ExpandedGraph, idx: TripleIndex,
                 cfg: SolverConfig, p: PriceVector,
                 kernel: edge_graph.Kernel | None):
        self.g, self.idx, self.cfg, self.p = g, idx, cfg, p
        sessions, T, pairs = g.base.sessions, len(idx), len(idx.pair_fwd)
        self.sums = np.zeros((len(sessions), T))
        self.flat_sums = self.sums.reshape(-1)  # a view of sums
        # doubles whatever the rates' type: the kernel reads them as such
        self.rates = np.array([s.rate for s in sessions], dtype=np.float64)
        # bins: keys % T; they and the trace rows, one per round, (alpha,
        # q, best, cost, gap), start with room and double when full
        self.keys = np.zeros(64, dtype=np.int64)
        self.bins = np.zeros(64, dtype=np.int64)
        self.trace_rows = np.zeros((64, 5))
        self.summary = TransmissionSummary(idx, np.zeros(pairs),
                                           np.zeros(g.n_nodes))
        # the pair arrays, the costs and the prices come from outside, and
        # the kernel reads and writes them by address: check them once
        for a, dtype, size, bound in (
                (idx.pair_fwd, np.int64, pairs, T),
                (idx.pair_rev, np.int64, pairs, T),
                (idx.pair_mid, np.int64, pairs, g.n_nodes),
                (idx.pair_cost, np.float64, pairs, None),
                (g.costs, np.float64, g.n_nodes, None),
                (p.values, np.float64, T, None)):
            edge_graph._check_array(a, np.dtype(dtype))
            if len(a) != size or (bound is not None
                                  and (a.view(np.uint64) >= bound).any()):
                raise ValueError("price or pair array out of range")
        self.work = np.zeros(T)
        self.routes = None  # bound by the first ingest
        arrays = {"rates": self.rates, "sums": self.flat_sums,
                  "keys": self.keys, "bins": self.bins, "fwd": idx.pair_fwd,
                  "rev": idx.pair_rev, "mid": idx.pair_mid,
                  "cost": idx.pair_cost, "y": self.summary.y,
                  "z": self.summary.z, "p": p.values, "work": self.work,
                  "ncost": g.costs, "trace": self.trace_rows}
        # the frame holds addresses only; self, g, idx and p keep the
        # arrays
        self.frame = _RoundState(
            len(sessions), T, pairs, g.n_nodes, cap=len(self.keys),
            tcap=len(self.trace_rows), tol=cfg.tol, best=-math.inf,
            **{name: a.ctypes.data for name, a in arrays.items()})
        self.fn, self.ref = ((_round, self) if kernel is None
                             else (kernel.round, ctypes.addressof(self.frame)))

    def ingest(self, n: int, alpha: float,
               routes: tuple[np.ndarray, np.ndarray, np.ndarray]) -> bool:
        """Close round n, whose step size is alpha, on routes, (dists,
        start, rows): session t is at distance dists[t] and carried its
        rate on the triple rows rows[start[t]:start[t + 1]], each
        (session, triple) at most once, and the rows past start[-1] are
        free room.  True means the gap certificate is in hand."""
        if routes is not self.routes:  # new arrays: check and bind them
            frame, i64 = self.frame, np.dtype(np.int64)
            for a, dtype, size in zip(routes, (edge_graph.F64, i64, i64),
                                      (frame.ns, frame.ns + 1, None)):
                edge_graph._check_array(a, dtype)
                if size is not None and len(a) != size:
                    raise ValueError(f"{len(a)} route entries where the "
                                     f"round reads {size}")
            # a tuple, so that no array is swapped under a bound frame
            self.qdist, self.start, self.rows = self.routes = tuple(routes)
            frame.qdist, frame.start, frame.rows = (a.ctypes.data
                                                    for a in routes)
            frame.nrows = len(self.rows)
        status = self.fn(self.ref, n, alpha)
        if status < 0:
            if status == -3:  # it changed nothing: grow, and close it again
                self._grow()
                status = self.fn(self.ref, n, alpha)
            if status in (-6, -7):
                name, value = (("dual bound", self.frame.q) if status == -6
                               else ("recovered cost", self.frame.expanded))
                raise NonFiniteError(
                    f"iteration {n}: {name} is {value!r}; costs or rates "
                    f"are too large for float arithmetic")
            if status < 0:
                raise RuntimeError(f"round failed with status {status}")
        return status == 1

    def _grow(self) -> None:
        """Double keys and bins, unless they have room for every row of the
        round to be a new key, and the trace rows, if they are full."""
        frame = self.frame
        used, m = frame.nkeys, int(self.start[-1])
        if used + m > frame.cap:
            for name in ("keys", "bins"):
                a = np.empty(2 * (used + m), dtype=np.int64)
                a[:used] = getattr(self, name)[:used]
                setattr(self, name, a)
                setattr(frame, name, a.ctypes.data)
            frame.cap = len(a)
        if frame.ntrace >= frame.tcap:
            rows = np.zeros((2 * frame.tcap, 5))
            rows[:frame.ntrace] = self.trace_rows[:frame.ntrace]
            self.trace_rows, frame.trace = rows, rows.ctypes.data
            frame.tcap = len(rows)

    @property
    def trace(self) -> SolveTrace:
        """The trace of the rounds so far; row i is round i + 1's."""
        rows = self.trace_rows[:self.frame.ntrace]
        return SolveTrace(list(range(1, len(rows) + 1)), *rows.T.tolist())

    def solution(self, iterations: int) -> Solution:
        expanded, physical = total_cost(self.summary, self.g)
        mean = [FlowVector(s.sid, row / iterations)
                for s, row in zip(self.g.base.sessions, self.sums)]
        gap = self.frame.gap
        return Solution(mean, self.p, self.summary, expanded, physical, gap,
                        gap <= self.cfg.tol, iterations)


def price_ascent(g: ExpandedGraph, idx: TripleIndex, cfg: SolverConfig,
                 route) -> tuple[Solution, SolveTrace]:
    """Iterate to a certified gap or the cap; both front ends run this.

    route(p) gives every session's cheapest route at prices p as (dists,
    start, rows): session t's distance is dists[t] and its triple rows
    are rows[start[t]:start[t + 1]], and rows past start[-1] are free
    room.  The three are route's own buffers, which the round reads in
    place; the loop binds them when they are not the ones it bound last,
    so the route search and the twin, which return the same three every
    round, are bound once a solve.  A round is that call and one call of
    the state's ingest, which closes the round in one call of the round
    on the step size alpha = step_a / n (the trace records it too): it
    moves the prices on the round's flow per triple unless the round
    certifies.  The step writes the new prices over p.values: one array
    holds the prices for the whole solve and ends as the solution's, so
    route may read p only while it runs.  The twin copies p.values with
    tolist, and the route search keeps the array only to reuse its
    address.  An overflowed distance makes the dual bound inf, which the
    round reports.  The recovery's keys sort session-major, so its sum
    adds each triple's means in session order, as a cumulative sum down
    the sessions would.
    """
    p = init_prices(idx)
    state = _LoopState(g, idx, cfg, p, edge_graph._load_kernel())
    n, step_a = 0, cfg.step_a
    if g.base.sessions:
        # the round reports an overflow as a non-finite bound or cost
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, cfg.max_iters + 1):
                if state.ingest(n, step_a / n, route(p)):
                    break
    return state.solution(n), state.trace


def solve(inst: Instance, cfg: SolverConfig | None = None
          ) -> tuple[Solution, SolveTrace]:
    """Full pipeline: expand, price, iterate to a certified gap or the cap."""
    cfg = cfg or SolverConfig()
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    h = build_edge_graph(g, idx)
    return price_ascent(g, idx, cfg, lambda p: primal_subproblem(h, p))
