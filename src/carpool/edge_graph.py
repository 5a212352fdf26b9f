"""Edge-graph shortest paths: the priced relay sub-problem.

Vertices are the ordered node pairs (i, j) of the expanded graph; for
every triple (i, j, k) there is an arc (i, j) -> (j, k) whose weight is
the current price p(i, j, k).  A cheapest route from (s'_t, s_t) to
(d_t, d'_t), scaled by the session rate, is an optimal single-session
flow for the priced relaxation, and the sum of rate-weighted distances
is a lower bound on the coded optimum.

Ties are broken by a total order on labels: smaller distance, then fewer
arcs, then smaller predecessor vertex index.  The order makes every run
reproducible and lets the message-passing solver reach bit-identical
results.  With the arc count in the key, zero-price arcs cannot produce
cyclic or ambiguous paths.

The searches run in one call of a C kernel (_subproblem.c) for every
session.  The kernel is compiled on first use by the local C compiler
into the user's cache directory and loaded through ctypes; without a
compiler, or when the build or the load fails, _dijkstra runs instead.
Either way the labels, and so every path, are the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import math
import os
import shutil
import subprocess
import tempfile
from collections import deque
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .model import (ExpandedGraph, FlowVector, InfeasibleSessionError,
                    PriceVector, TripleIndex, ordered_pairs)

log = logging.getLogger(__name__)

INF = math.inf

# No -ffast-math and no -march: the kernel must make exactly the IEEE
# double additions _dijkstra makes, and -ffp-contract=off also forbids
# fusing them into multiply-adds.
CC_FLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]


@dataclass
class SessionPath:
    session: str
    vertices: list[tuple[int, int]]
    weight: float
    triples: list[int]  # arc ids (= triple rows) along the path


@dataclass
class EdgeGraph:
    """Directed graph over ordered node pairs; arcs are the triples."""

    g: ExpandedGraph
    idx: TripleIndex
    vertices: list[tuple[int, int]]
    vindex: dict[tuple[int, int], int]
    tail: np.ndarray   # per triple: vertex index of (v, i)
    head: np.ndarray   # per triple: vertex index of (i, w)
    out: list[list[tuple[int, int]]]  # per vertex: (head vertex, triple row)
    src_vertex: list[int]  # per session
    dst_vertex: list[int]
    # CSR by tail vertex: the arcs (triple rows) leaving vertex u are
    # order[bounds[u]:bounds[u + 1]], in triple order
    order: np.ndarray
    bounds: np.ndarray


def build_edge_graph(g: ExpandedGraph, idx: TripleIndex) -> EdgeGraph:
    vertices = ordered_pairs(g)
    vindex = {p: i for i, p in enumerate(vertices)}
    # arcs grouped by tail vertex, in triple order within each group
    order = np.argsort(idx.tail, kind="stable")
    bounds = np.searchsorted(idx.tail[order], np.arange(len(vertices) + 1))
    arcs = list(zip(idx.head[order].tolist(), order.tolist()))
    out = [arcs[lo:hi] for lo, hi in zip(bounds[:-1].tolist(),
                                         bounds[1:].tolist())]
    src = [vindex[g.source_vertex(t)] for t in range(len(g.base.sessions))]
    dst = [vindex[g.dest_vertex(t)] for t in range(len(g.base.sessions))]
    return EdgeGraph(g, idx, vertices, vindex, idx.tail, idx.head, out, src,
                     dst, order, bounds)


def _dijkstra(bounds: list[int], arcs: list[int], heads: list[int],
              wts: list[float], src: int, stop_at: int | None = None
              ) -> tuple[list[float], list[int], list[int]]:
    """Labels (dist, hops, pred vertex) from src under the tie-break order.

    The graph is a CSR: the arcs leaving u are arcs[bounds[u]:bounds[u +
    1]], and arc k runs to heads[k] at weight wts[k].  This is the
    reference that the compiled kernel must reproduce bit for bit, and
    the fallback that runs when the kernel cannot be built or loaded.

    Predecessors settle to the smallest-index in-neighbour whose final
    label supports the vertex's final (dist, hops); every such supporter
    pops strictly earlier in (dist, hops) order, so one pass suffices.
    """
    from heapq import heappush, heappop

    nv = len(bounds) - 1
    dist = [INF] * nv
    hops = [0] * nv
    pred = [-1] * nv
    dist[src] = 0.0
    heap = [(0.0, 0, src)]
    while heap:
        d, hp, u = heappop(heap)
        if d != dist[u] or hp != hops[u]:
            continue
        if u == stop_at:
            break
        for k in arcs[bounds[u]:bounds[u + 1]]:
            vtx = heads[k]
            nd = d + wts[k]
            nh = hp + 1
            if nd < dist[vtx] or (nd == dist[vtx] and nh < hops[vtx]):
                dist[vtx] = nd
                hops[vtx] = nh
                pred[vtx] = u
                heappush(heap, (nd, nh, vtx))
            elif nd == dist[vtx] and nh == hops[vtx] and (
                    pred[vtx] == -1 or u < pred[vtx]):
                if vtx != src:
                    pred[vtx] = u
    return dist, hops, pred


def relaxation_labels(h: EdgeGraph, wts: list[float], src: int
                      ) -> tuple[list[float], list[int], list[int]]:
    """FIFO label-correcting sweep; same label order, no priority queue.

    Kept as an independent route to the same fixed point: the acceptance
    rule is identical, only the work schedule differs.  The labels match
    _dijkstra on the test cases, but not always: once a label improves to
    a smaller distance with more hops, a neighbour whose extension rounds
    to its current distance keeps its old predecessor, as the
    message-passing twin does (see the strict xfail
    test_twin_matches_solve_on_side8_draw3).
    """
    nv = len(h.vertices)
    dist = [INF] * nv
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
        for vtx, k in h.out[u]:
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


def build_kernel(directory) -> Path:
    """Compile _subproblem.c into directory unless it is there; its path.

    The file name carries the SHA-256 of the source and the flags, so an
    edited kernel never loads a stale build.  The compiler writes a
    temporary file that then replaces the target in one step, so two
    processes building at once cannot load a half-written library.
    """
    source = resources.files("carpool").joinpath("_subproblem.c")
    text = source.read_bytes()
    key = hashlib.sha256(text + " ".join(CC_FLAGS).encode()).hexdigest()
    directory = Path(directory)
    target = directory / f"subproblem-{key}.so"
    if target.exists():
        return target
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler: cc is not on PATH")
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        with resources.as_file(source) as path:
            done = subprocess.run([cc, *CC_FLAGS, "-o", tmp, str(path)],
                                  capture_output=True, text=True)
        if done.returncode:
            first = (done.stderr.strip().splitlines() or [""])[0]
            raise OSError(f"cc exited {done.returncode}: {first}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def bind_kernel(path):
    """The kernel's carpool_routes in the library at path, typed.

    Arrays go in as addresses that _kernel_routes checks first: numpy's
    ndpointer argtypes would check them too, but at about 5 us per array
    they made an iteration on a small instance about 20% slower.
    """
    fn = ctypes.CDLL(str(path)).carpool_routes
    fn.restype = ctypes.c_int64
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [i64, ptr, i64, ptr, i64, ptr, ptr, i64] + [ptr] * 8 + [i64]
    return fn


@functools.cache
def _load_kernel():
    """The compiled kernel, or None when only _dijkstra can run.

    Logs one line naming the kernel that runs and, on fallback, why.
    """
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "carpool"
        path = build_kernel(cache)
        fn = bind_kernel(path)
    except (OSError, RuntimeError, AttributeError) as exc:
        log.info("sub-problem kernel: python (%s)", exc)
        return None
    log.info("sub-problem kernel: C (%s)", path)
    return fn


def _address(a: np.ndarray, dtype) -> int:
    """The data address of a, which must be 1-d and C-contiguous."""
    if a.dtype != dtype or a.ndim != 1 or not a.flags.c_contiguous:
        raise TypeError(f"kernel argument must be a contiguous 1-d {dtype} "
                        f"array, got {a.dtype} of shape {a.shape}")
    return a.ctypes.data


def _kernel_routes(fn, bounds: np.ndarray, arcs: np.ndarray,
                   heads: np.ndarray, wts: np.ndarray, src: list[int],
                   dst: list[int]):
    """One kernel call: (distances, path starts, arc rows, last labels).

    Session t's arcs are rows[start[t]:start[t + 1]]; a negative dst[t]
    searches the whole graph and returns no path.  The labels (dist,
    hops, pred) are those of the last session.
    """
    nv, ns = len(bounds) - 1, len(src)
    if len(wts) != len(heads):
        raise ValueError(f"{len(wts)} weights for {len(heads)} arcs")
    if len(dst) != ns or (ns and not (0 <= min(src) and max(src) < nv
                                      and max(dst) < nv)):
        raise ValueError("session end vertices out of range")
    i64 = np.dtype(np.int64)
    # every array stays bound to a name until the call returns
    ends = np.array([src, dst], dtype=i64).reshape(2, ns)
    dist = np.empty(nv)
    hops = np.empty(nv, dtype=i64)
    pred = np.empty(nv, dtype=i64)
    qdist = np.empty(ns)
    start = np.empty(ns + 1, dtype=i64)
    cap = ns * max(nv - 1, 0)  # a simple path has at most nv - 1 arcs
    rows = np.empty(cap, dtype=i64)
    status = fn(nv, _address(bounds, i64), len(arcs), _address(arcs, i64),
                len(heads), _address(heads, i64),
                _address(wts, np.dtype(np.float64)), ns,
                _address(ends[0], i64), _address(ends[1], i64),
                *[x.ctypes.data for x in (dist, hops, pred, qdist, start,
                                          rows)], cap)
    if status:
        raise RuntimeError(f"sub-problem kernel failed with status {status}")
    return qdist, start, rows, (dist, hops, pred)


def _python_routes(bounds: np.ndarray, arcs: np.ndarray, heads: np.ndarray,
                   wts: np.ndarray, src: list[int], dst: list[int]
                   ) -> tuple[list[float], list[np.ndarray]]:
    """shortest_routes by _dijkstra, one session at a time."""
    bounds, arcs, heads = bounds.tolist(), arcs.tolist(), heads.tolist()
    wts = wts.tolist()
    dists, paths = [], []
    for s, t in zip(src, dst):
        dist, _, pred = _dijkstra(bounds, arcs, heads, wts, s, stop_at=t)
        rows = []
        if dist[t] != INF:
            x = t
            while x != s:
                u = pred[x]
                if u < 0:
                    raise RuntimeError("broken predecessor chain")
                rows.append(next(k for k in arcs[bounds[u]:bounds[u + 1]]
                                 if heads[k] == x))
                x = u
            rows.reverse()
        dists.append(dist[t])
        paths.append(np.array(rows, dtype=np.int64))
    return dists, paths


def shortest_routes(bounds: np.ndarray, arcs: np.ndarray, heads: np.ndarray,
                    wts: np.ndarray, src: list[int], dst: list[int]
                    ) -> tuple[list[float], list[np.ndarray]]:
    """Cheapest route from src[t] to dst[t] for every t, on one CSR graph.

    The arcs leaving u are arcs[bounds[u]:bounds[u + 1]]; arc k runs to
    heads[k] at weight wts[k] >= 0.  Returns each route's distance (inf
    when the destination is out of reach) and its arcs, source first.
    """
    wts = np.ascontiguousarray(wts, dtype=np.float64)
    fn = _load_kernel()
    if fn is None:
        return _python_routes(bounds, arcs, heads, wts, src, dst)
    qdist, start, rows, _ = _kernel_routes(fn, bounds, arcs, heads, wts,
                                           src, dst)
    ends = start.tolist()
    return qdist.tolist(), [rows[a:b] for a, b in zip(ends, ends[1:])]


def _session_routes(h: EdgeGraph, p: PriceVector, sessions: list[int]
                    ) -> tuple[list[float], list[np.ndarray]]:
    """Priced routes of the given sessions; an unreachable one raises."""
    dists, paths = shortest_routes(
        h.bounds, h.order, h.head, p.values,
        [h.src_vertex[t] for t in sessions],
        [h.dst_vertex[t] for t in sessions])
    for t, d in zip(sessions, dists):
        if d == INF:
            raise InfeasibleSessionError(h.g.base.sessions[t].sid,
                                         "no priced route to destination")
    return dists, paths


def shortest_path(h: EdgeGraph, p: PriceVector, t: int) -> SessionPath:
    """Cheapest priced route for session index t, deterministic under ties."""
    (dist,), (rows,) = _session_routes(h, p, [t])
    verts = [h.vertices[h.src_vertex[t]]]
    verts += [h.vertices[v] for v in h.head[rows].tolist()]
    return SessionPath(h.g.base.sessions[t].sid, verts, dist, rows.tolist())


def path_to_flow(path: SessionPath, rate: float, idx: TripleIndex
                 ) -> FlowVector:
    values = np.zeros(len(idx))
    values[path.triples] = rate
    return FlowVector(path.session, values)


def primal_subproblem(g: ExpandedGraph, idx: TripleIndex, p: PriceVector,
                      h: EdgeGraph | None = None
                      ) -> tuple[list[FlowVector], float]:
    """Per-session cheapest routes and the dual bound they certify.

    Returns the rate-scaled path flows and q = sum_t R_t * dist_t, which
    never exceeds the coded optimum.
    """
    if h is None:
        h = build_edge_graph(g, idx)
    sessions = g.base.sessions
    dists, paths = _session_routes(h, p, list(range(len(sessions))))
    flows = []
    q = 0.0
    for s, dist, rows in zip(sessions, dists, paths):
        values = np.zeros(len(idx))
        values[rows] = s.rate
        flows.append(FlowVector(s.sid, values))
        q += s.rate * dist
    return flows, q


def dominant_path(h: EdgeGraph, x: FlowVector, t: int) -> SessionPath:
    """Follow the largest recovered flow from source to destination.

    Long-run averages keep vanishing mass on paths visited early on; the
    dominant successor walk extracts the route the session settles on.
    Ties prefer the smaller triple row.
    """
    src, dst = h.src_vertex[t], h.dst_vertex[t]
    vals = x.values
    u = src
    verts = [h.vertices[src]]
    trips: list[int] = []
    seen = {src}
    while u != dst:
        best_k = -1
        best_val = 0.0
        best_head = -1
        for vtx, k in h.out[u]:
            if vals[k] > best_val:
                best_val = vals[k]
                best_k = k
                best_head = vtx
        if best_k < 0:
            raise ValueError(
                f"session {x.session}: recovered flow dies out at "
                f"{h.vertices[u]}")
        if best_head in seen:
            raise ValueError(
                f"session {x.session}: recovered flow cycles at "
                f"{h.vertices[best_head]}")
        seen.add(best_head)
        verts.append(h.vertices[best_head])
        trips.append(best_k)
        u = best_head
    weight = float(sum(h.idx.cost[k] for k in trips))
    return SessionPath(x.session, verts, weight, trips)
