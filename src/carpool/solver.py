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
updates.  The message-passing runner reproduces this loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .edge_graph import EdgeGraph, build_edge_graph, primal_subproblem
from .model import (ExpandedGraph, FlowVector, Instance, PriceVector,
                    TransmissionSummary, TripleIndex, build_expanded_graph,
                    enumerate_triples, total_cost, transmission_summary)


class NonFiniteError(ArithmeticError):
    """A bound or cost of the loop left float range; the message says which."""


@dataclass
class SolverConfig:
    step_a: float = 1.0
    step_rule: str = "diminishing"  # step a/n, or "constant" for a
    tol: float = 1e-2
    max_iters: int = 5000

    def __post_init__(self):
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


def init_prices(g: ExpandedGraph, idx: TripleIndex) -> PriceVector:
    """Start every pair at an even split of its relay's broadcast cost."""
    return PriceVector(0.5 * idx.cost)


def project_pair(u1: float, u2: float, c: float) -> tuple[float, float]:
    """Closed-form nearest point on {p1 + p2 = c, p >= 0} to (u1, u2)."""
    p1 = min(max((u1 - u2 + c) / 2.0, 0.0), c)
    return p1, c - p1


def project_pair_reference(u1: float, u2: float, c: float
                           ) -> tuple[float, float]:
    """Independent oracle for project_pair, via exact rational arithmetic.

    On the line p2 = c - p1 the squared distance is a parabola in p1;
    fit it exactly through p1 = 0 and p1 = c, take the vertex, clamp.
    No step of the closed form is reused.
    """
    if c == 0:
        return 0.0, 0.0
    u1f, u2f, cf = Fraction(u1), Fraction(u2), Fraction(c)

    def dist2(s: Fraction) -> Fraction:
        return (s - u1f) ** 2 + (cf - s - u2f) ** 2

    s = (dist2(Fraction(0)) - dist2(cf)) / (4 * cf) + cf / 2
    s = min(max(s, Fraction(0)), cf)
    return float(s), float(cf - s)


def subgradient_step(p: PriceVector, flows: list[FlowVector], n: int,
                     cfg: SolverConfig, idx: TripleIndex) -> PriceVector:
    """One projected price update from this round's routed flows.

    For each unordered pair the forward price moves by half the step
    times the net forward flow, clamped to [0, c]; the reverse price is
    the complement, so the coupled constraint holds exactly.
    """
    agg = np.zeros(len(idx))
    for f in flows:
        agg += f.values
    diff = agg[idx.pair_fwd] - agg[idx.pair_rev]
    half = 0.5 * cfg.alpha(n)
    fwd = np.clip(p.values[idx.pair_fwd] + half * diff, 0.0, idx.pair_cost)
    out = np.empty_like(p.values)
    out[idx.pair_fwd] = fwd
    out[idx.pair_rev] = idx.pair_cost - fwd
    return PriceVector(out)


class _LoopState:
    """Per-iteration bookkeeping shared by both solver front ends.

    Keeping this in one place is what makes the message-passing runner's
    costs, gaps, and stopping decisions bit-identical to the in-process
    loop: same sums in the same order on the same arrays.
    """

    def __init__(self, g: ExpandedGraph, idx: TripleIndex,
                 cfg: SolverConfig, trace: SolveTrace):
        self.g, self.idx, self.cfg, self.trace = g, idx, cfg, trace
        self.sums = [np.zeros(len(idx)) for _ in g.base.sessions]
        self.best = -math.inf
        self.mean: list[FlowVector] = []
        self.summary: TransmissionSummary | None = None
        self.gap = math.inf
        self.certified = False

    def ingest(self, n: int, flows: list[FlowVector], q: float) -> bool:
        """Record round n; True means the gap certificate is in hand."""
        if not math.isfinite(q):
            raise NonFiniteError(
                f"iteration {n}: dual bound is {q!r}; costs or rates are "
                f"too large for float arithmetic")
        if q > self.best:
            self.best = q
        # an overflow here is reported below, as a non-finite cost
        with np.errstate(over="ignore", invalid="ignore"):
            for s, f in zip(self.sums, flows):
                s += f.values
            self.mean = [FlowVector(f.session, s / n)
                         for s, f in zip(self.sums, flows)]
            self.summary = transmission_summary(self.mean, self.g, self.idx)
            cost, _ = total_cost(self.summary, self.g)
        if not math.isfinite(cost):
            raise NonFiniteError(
                f"iteration {n}: recovered cost is {cost!r}; costs or rates "
                f"are too large for float arithmetic")
        self.gap = (cost - self.best) / max(1.0, self.best)
        self.trace.append(n, self.cfg.alpha(n), q, self.best, cost, self.gap)
        if self.gap <= self.cfg.tol:
            self.certified = True
        return self.certified

    def solution(self, prices: PriceVector, iterations: int) -> Solution:
        summary = self.summary
        if summary is None:
            summary = transmission_summary([], self.g, self.idx)
        expanded, physical = total_cost(summary, self.g)
        gap = 0.0 if not len(self.trace) else self.gap
        return Solution(self.mean, prices, summary, expanded, physical,
                        gap, self.certified, iterations)


def solve(inst: Instance, cfg: SolverConfig | None = None
          ) -> tuple[Solution, SolveTrace]:
    """Full pipeline: expand, price, iterate to a certified gap or the cap."""
    cfg = cfg or SolverConfig()
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    h = build_edge_graph(g, idx)
    return _solve_on(g, idx, h, cfg)


def _solve_on(g: ExpandedGraph, idx: TripleIndex, h: EdgeGraph,
              cfg: SolverConfig) -> tuple[Solution, SolveTrace]:
    trace = SolveTrace()
    state = _LoopState(g, idx, cfg, trace)
    p = init_prices(g, idx)
    if not g.base.sessions:
        state.certified = True
        return state.solution(p, 0), trace
    n = 0
    for n in range(1, cfg.max_iters + 1):
        flows, q = primal_subproblem(g, idx, p, h=h)
        if state.ingest(n, flows, q):
            break
        p = subgradient_step(p, flows, n, cfg, idx)
    return state.solution(p, n), trace
