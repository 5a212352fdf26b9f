"""Instance generation and the no-coding routing baseline.

Random instances drop Poisson(intensity * L^2) nodes uniformly on an
L x L square and connect every pair strictly closer than the unit radius.
Reproducibility across platforms comes from a fixed generator (PCG64)
with three documented substreams spawned from the seed in order: node
count, positions, session endpoints.

The baseline routes every session alone on its cheapest path, paying
the broadcast cost of the source and of each relay (the destination
only listens).  Coding can never do worse, and for a single session it
can do no better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edge_graph import route_search
from .model import (Instance, Node, Session, adjacency, check_config_types,
                    component_labels, edge_ends)
from .solver import NonFiniteError


class GenerationError(RuntimeError):
    """Random instance generation exhausted its retry budget."""


# The paper's unit radius; radius r draws as side / r, intensity * r**2.
RADIUS = 1.0

# Largest expected node count intensity * side**2 a draw may ask for.
# edges_within_radius compares every pair of nodes, n**2 / 2 distances in
# one numpy pass per node: a 10,000-node draw takes about 1.7 s on a
# 2-vCPU machine, and the time grows with the square of the count.
MAX_EXPECTED_NODES = 10_000

# Largest expected edge count a draw may ask for.  Edges grow with the
# square of the intensity on a fixed side, so the node limit alone lets
# side 1 at intensity 1,500 through: 1.1M edge tuples drawn in 2.5 s.  A
# 104,493-edge draw took 0.25 s and 56 MB RSS on a 2-vCPU machine, and
# relay triples, the solver's unknowns, grow with the squared degrees.
MAX_EXPECTED_EDGES = 100_000


@dataclass
class GeometricConfig:
    side: float
    sessions: int
    rate: float = 1.0
    cost: float = 1.0
    intensity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_config_types(self, counts=("sessions", "seed"),
                           reals=("side", "intensity", "rate", "cost"))
        for name in ("side", "intensity"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        expected = self.intensity * self.side * self.side
        if expected > MAX_EXPECTED_NODES:
            raise ValueError(
                f"side {self.side} and intensity {self.intensity} give "
                f"{expected:.3g} expected nodes, above the limit of "
                f"{MAX_EXPECTED_NODES}")
        # each of the expected**2 / 2 pairs is linked with probability at
        # most pi r**2 / side**2 (less near the border), and never above 1
        disc, area = math.pi * RADIUS * RADIUS, self.side * self.side
        edges = expected * expected / 2 * (disc / area if disc < area else 1.0)
        if edges > MAX_EXPECTED_EDGES:
            raise ValueError(
                f"side {self.side} and intensity {self.intensity} give "
                f"{edges:.3g} expected edges, above the limit of "
                f"{MAX_EXPECTED_EDGES}")
        if self.sessions < 0:
            raise ValueError("sessions must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0 < self.rate < math.inf):
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")
        if not (0 <= self.cost < math.inf):
            raise ValueError(f"cost must be finite and >= 0, got {self.cost}")


def edges_within_radius(pos: np.ndarray, radius: float
                        ) -> list[tuple[int, int]]:
    """Unordered pairs strictly closer than radius (ties excluded)."""
    edges = []
    n = len(pos)
    for a in range(n):
        d = np.hypot(pos[a + 1:, 0] - pos[a, 0], pos[a + 1:, 1] - pos[a, 1])
        for off in np.nonzero(d < radius)[0]:
            edges.append((a, a + 1 + int(off)))
    return edges


RETRY_BUDGET = 100


def generate_geometric(cfg: GeometricConfig) -> Instance:
    count_ss, pos_ss, sess_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    n = int(np.random.Generator(np.random.PCG64(count_ss)).poisson(
        cfg.intensity * cfg.side ** 2))
    pos = np.random.Generator(np.random.PCG64(pos_ss)).uniform(
        0.0, cfg.side, size=(n, 2))
    ends = edge_ends(edges_within_radius(pos, RADIUS))
    sessions: list[Session] = []
    if cfg.sessions > 0:
        if n < 2:
            raise GenerationError(
                f"seed {cfg.seed} drew only {n} node(s); "
                f"cannot place {cfg.sessions} session(s)")
        labels = component_labels(n, ends).tolist()
        rng = np.random.Generator(np.random.PCG64(sess_ss))
        used: set[tuple[int, int]] = set()
        for t in range(cfg.sessions):
            for _ in range(RETRY_BUDGET):
                s, d = (int(x) for x in rng.integers(0, n, size=2))
                if s != d and labels[s] == labels[d] and (s, d) not in used:
                    used.add((s, d))
                    sessions.append(Session(f"s{t + 1}", s, d, cfg.rate))
                    break
            else:
                raise GenerationError(
                    f"session sampling exhausted its {RETRY_BUDGET}-draw "
                    f"budget (seed {cfg.seed}, {n} nodes)")
    return Instance.from_columns(list(range(n)), np.full(n, cfg.cost), pos,
                                 ends, sessions)


def plain_routing_cost(inst: Instance) -> tuple[float, list[list[int]]]:
    """Cheapest independent route per session, no coding.

    Arc u -> v costs c_u (the transmitter pays), so a path's cost is the
    sum over its transmitting nodes; the destination is free.  Ties break
    toward fewer hops, then the smaller predecessor, as everywhere else:
    the routes come from the edge graph's shortest-route search, run on
    the node graph.
    """
    # arc e is entry e of the sorted adjacency lists
    bounds, heads = adjacency(inst.n, inst.ends)
    search = route_search(bounds[:-1], bounds[1:], heads,
                          [s.source for s in inst.sessions],
                          [s.dest for s in inst.sessions])
    wts = np.repeat(inst.costs(), np.diff(bounds))
    dists, start, rows = search.run(wts)
    total = 0.0
    routes = []
    cuts = start.tolist()
    for s, dist, a, b in zip(inst.sessions, dists.tolist(), cuts, cuts[1:]):
        total += s.rate * dist
        if total == math.inf:  # Instance keeps every session connected
            raise NonFiniteError(f"session {s.sid}: routing cost is too "
                                 f"large for float arithmetic")
        routes.append([s.source] + heads[rows[a:b]].tolist())
    return total, routes


def _grid5(sessions: list[Session]) -> Instance:
    nodes = [Node(r * 5 + c, 1.0, (float(c), float(r)))
             for r in range(5) for c in range(5)]
    edges = []
    for r in range(5):
        for c in range(5):
            if c < 4:
                edges.append((r * 5 + c, r * 5 + c + 1))
            if r < 4:
                edges.append((r * 5 + c, (r + 1) * 5 + c))
    return Instance(nodes, edges, sessions)


# First seed whose 6x6 draw has 27+ nodes with all four endpoint pairs
# in one component.
GEO4_SEED = 68
GEO4_PAIRS = ((20, 13), (26, 7), (15, 23), (7, 22))


def builtin_instances() -> dict[str, Instance]:
    """Named regression instances.

    relay3    three nodes in a line, two opposing unit sessions; coding
              saves the relay one of its two broadcasts.
    grid2     5x5 unit grid, two crossing unit sessions that both bend
              onto a shared column to ride each other's reverse flow.
    grid2rate same, but the second session carries rate 4; only the
              light session finds deviation worthwhile.
    geo4      a seeded random geometric instance on a 6x6 square with
              four fixed unit-rate session pairs.
    """
    relay3 = Instance(
        [Node(0, 1.0, (0.0, 0.0)), Node(1, 1.0, (1.0, 0.0)),
         Node(2, 1.0, (2.0, 0.0))],
        [(0, 1), (1, 2)],
        [Session("s1", 0, 2, 1.0), Session("s2", 2, 0, 1.0)])
    grid2 = _grid5([Session("s1", 1, 23, 1.0), Session("s2", 24, 0, 1.0)])
    grid2rate = _grid5([Session("s1", 1, 23, 1.0), Session("s2", 24, 0, 4.0)])
    bare = generate_geometric(GeometricConfig(side=6.0, sessions=0,
                                              seed=GEO4_SEED))
    geo4 = Instance(
        bare.nodes, bare.edges,
        [Session(f"s{t + 1}", s, d, 1.0)
         for t, (s, d) in enumerate(GEO4_PAIRS)])
    return {"relay3": relay3, "grid2": grid2, "grid2rate": grid2rate,
            "geo4": geo4}
