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
solver, fixed session order in every sum, vectorised elementwise price
updates.  price_ascent is the one copy of this loop: solve() runs it on
the route search, and the message-passing twin on its neighbour
messages and node-local price step, so both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .edge_graph import build_edge_graph, primal_subproblem
from .model import (ExpandedGraph, FlowVector, Instance, PriceVector,
                    TransmissionSummary, TripleIndex, build_expanded_graph,
                    check_config_types, enumerate_triples, total_cost,
                    transmission_summary)


class NonFiniteError(ArithmeticError):
    """A bound or cost of the loop left float range; the message says which."""


@dataclass
class SolverConfig:
    step_a: float = 1.0
    step_rule: str = "diminishing"  # step a/n, or "constant" for a
    tol: float = 1e-2
    max_iters: int = 5000

    def __post_init__(self):
        check_config_types(self, counts=("max_iters",),
                           reals=("step_a", "tol"))
        for name in ("step_a", "tol"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.step_rule not in ("diminishing", "constant"):
            raise ValueError(f"unknown step_rule {self.step_rule!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")

    def alpha(self, n: int) -> float:
        if self.step_rule == "diminishing":
            return self.step_a / n
        return self.step_a


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


def subgradient_step(p: PriceVector, agg: np.ndarray, n: int,
                     cfg: SolverConfig, idx: TripleIndex) -> PriceVector:
    """One projected price update from this round's total flow per triple.

    For each unordered pair the forward price moves by half the step
    times the net forward flow, clamped to [0, c]; the reverse price is
    the complement, so the coupled constraint holds exactly.
    """
    diff = agg[idx.pair_fwd] - agg[idx.pair_rev]
    half = 0.5 * cfg.alpha(n)
    x = p.values[idx.pair_fwd] + half * diff
    fwd = np.minimum(np.maximum(x, 0.0), idx.pair_cost)  # np.clip's bits
    out = np.empty_like(p.values)
    out[idx.pair_fwd] = fwd
    out[idx.pair_rev] = idx.pair_cost - fwd
    return PriceVector(out)


class _LoopState:
    """Recovery, bounds and the stop decision of price_ascent's rounds.

    sums[t] is session t's flow summed over the rounds so far, and
    sums[t] / n its recovered flow after round n.  The transmission
    summary adds those means in session order over keys, the sorted flat
    positions t * T + row of the entries that ever carried flow; every
    other term is +0.0 and changes no bit.  (Dividing one running total
    by n would round differently.)  The means are built only for the
    solution.
    """

    def __init__(self, g: ExpandedGraph, idx: TripleIndex,
                 cfg: SolverConfig, trace: SolveTrace):
        self.g, self.idx, self.cfg, self.trace = g, idx, cfg, trace
        self.sums = np.zeros((len(g.base.sessions), len(idx)))
        self.keys = self.bins = np.zeros(0, dtype=np.int64)  # bins: keys % T
        self.best = -math.inf
        self.summary = TransmissionSummary(idx, np.zeros(len(idx.pair_fwd)),
                                           np.zeros(g.n_nodes))
        self.gap = 0.0
        self.certified = not g.base.sessions

    def ingest(self, n: int, sessions: np.ndarray, rows: np.ndarray,
               values: np.ndarray, q: float) -> bool:
        """Record round n, in which session sessions[j] carried values[j]
        > 0 on triple rows[j], each (session, triple) at most once; True
        means the gap certificate is in hand."""
        if not math.isfinite(q):
            raise NonFiniteError(
                f"iteration {n}: dual bound is {q!r}; costs or rates are "
                f"too large for float arithmetic")
        if q > self.best:
            self.best = q
        T, sums = len(self.idx), self.sums.reshape(-1)
        flat = sessions * T + rows
        fresh = flat[sums[flat] == 0.0]  # never carried, as values > 0
        if len(fresh):
            self.keys = np.sort(np.concatenate((self.keys, fresh)),
                                kind="stable")
            self.bins = self.keys % T
        sums[flat] += values
        agg = np.bincount(self.bins, weights=sums[self.keys] / n,
                          minlength=T)
        self.summary = transmission_summary(agg, self.g, self.idx)
        cost, _ = total_cost(self.summary, self.g)
        if not math.isfinite(cost):
            raise NonFiniteError(
                f"iteration {n}: recovered cost is {cost!r}; costs or rates "
                f"are too large for float arithmetic")
        self.gap = (cost - self.best) / max(1.0, self.best)
        self.trace.append(n, self.cfg.alpha(n), q, self.best, cost, self.gap)
        self.certified = self.gap <= self.cfg.tol
        return self.certified

    def solution(self, prices: PriceVector, iterations: int) -> Solution:
        expanded, physical = total_cost(self.summary, self.g)
        mean = [FlowVector(s.sid, row / iterations)
                for s, row in zip(self.g.base.sessions, self.sums)]
        return Solution(mean, prices, self.summary, expanded, physical,
                        self.gap, self.certified, iterations)


def price_ascent(g: ExpandedGraph, idx: TripleIndex, cfg: SolverConfig,
                 route, price) -> tuple[Solution, SolveTrace]:
    """Iterate to a certified gap or the cap; both front ends run this.

    route(p) gives every session's cheapest route at prices p as (dists,
    start, rows): session t's distance is dists[t] and its triple rows
    are rows[start[t]:start[t + 1]].  price(p, agg, n) steps the prices
    on agg, the round's flow per triple.  An overflowed distance makes
    the dual bound inf, which ingest reports.  The recovery's keys sort
    session-major, so its bincount adds each triple's means in session
    order, as a cumulative sum down the sessions would.
    """
    trace = SolveTrace()
    state = _LoopState(g, idx, cfg, trace)
    p = init_prices(idx)
    if state.certified:  # no sessions
        return state.solution(p, 0), trace
    rate_list = [s.rate for s in g.base.sessions]
    rates, ids = np.array(rate_list), np.arange(len(rate_list))
    n = 0
    # ingest reports an overflow as a non-finite bound or cost
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, cfg.max_iters + 1):
            dists, start, rows = route(p)
            q = 0.0
            for rate, dist in zip(rate_list, dists.tolist()):
                q += rate * dist
            sessions = np.repeat(ids, start[1:] - start[:-1])
            values = rates[sessions]
            if state.ingest(n, sessions, rows, values, q):
                break
            agg = np.bincount(rows, weights=values, minlength=len(idx))
            p = price(p, agg, n)
    return state.solution(p, n), trace


def solve(inst: Instance, cfg: SolverConfig | None = None
          ) -> tuple[Solution, SolveTrace]:
    """Full pipeline: expand, price, iterate to a certified gap or the cap."""
    cfg = cfg or SolverConfig()
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    h = build_edge_graph(g, idx)
    return price_ascent(g, idx, cfg, lambda p: primal_subproblem(h, p),
                        lambda p, agg, n: subgradient_step(p, agg, n, cfg,
                                                           idx))
