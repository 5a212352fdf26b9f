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
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .model import ExpandedGraph, PriceVector, TripleIndex, ordered_pairs

log = logging.getLogger(__name__)

INF = math.inf
F64 = np.dtype(np.float64)

# No -ffast-math and no -march: the kernel must make exactly the IEEE
# double additions _dijkstra makes, and -ffp-contract=off also forbids
# fusing them into multiply-adds.
CC_FLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]


@dataclass
class EdgeGraph:
    """Directed graph over ordered node pairs; arcs are the triples.

    Vertex u is the ordered pair vertices[u], which is pair u of the
    expanded graph's CSR, so session t routes from vertex g.src_pair[t]
    to g.dst_pair[t].  Triple k is the arc idx.tail[k] -> idx.head[k],
    and the arcs leaving u are the triple rows order[bounds[u]:bounds[u +
    1]], in triple order.  search is the route search of every session,
    built by the first primal_subproblem call on the graph and reused by
    later ones.  vertices is built on first read; the solve loop never
    reads it.
    """

    g: ExpandedGraph
    idx: TripleIndex
    order: np.ndarray
    bounds: np.ndarray
    search: RouteSearch | None = None

    @functools.cached_property
    def vertices(self) -> list[tuple[int, int]]:
        return ordered_pairs(self.g)


def build_edge_graph(g: ExpandedGraph, idx: TripleIndex) -> EdgeGraph:
    # arcs grouped by tail vertex, in triple order within each group
    order = np.argsort(idx.tail, kind="stable")
    bounds = np.searchsorted(idx.tail[order], np.arange(len(g.indices) + 1))
    return EdgeGraph(g, idx, order, bounds)


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
    A tie has at least one hop, so never reaches src or an unreached one.
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
            elif nd == dist[vtx] and nh == hops[vtx] and u < pred[vtx]:
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

    Arrays go in as addresses that RouteSearch checks first: numpy's
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


class RouteSearch:
    """Cheapest routes from src[t] to dst[t] on one CSR graph, at any
    weights that are not negative.

    The arcs leaving u are arcs[bounds[u]:bounds[u + 1]], and arc k runs
    to heads[k].  Building the search checks the session ends, and the
    CSR arrays' types and index ranges, once: a ValueError for a range
    the kernel's status -5 would refuse, whichever search runs.  With the
    compiled kernel fn it also allocates the output buffers and takes
    every address, so that a call checks only the weights.  Without fn,
    _dijkstra runs one session at a time.

    Both searches refuse a negative weight with the same ValueError; NaN,
    inf and -0.0 are accepted.  A negative dst[t] searches the whole
    graph and returns distance 0 and no arcs.  After a kernel call, dist,
    hops and pred hold the labels of the last session.
    """

    def __init__(self, fn, bounds: np.ndarray, arcs: np.ndarray,
                 heads: np.ndarray, src: list[int] | np.ndarray,
                 dst: list[int] | np.ndarray):
        nv, ns, m = len(bounds) - 1, len(src), len(heads)
        if len(dst) != ns or (ns and not (0 <= min(src) and max(src) < nv
                                          and max(dst) < nv)):
            raise ValueError("session end vertices out of range")
        i64 = np.dtype(np.int64)
        csr = [_address(x, i64) for x in (bounds, arcs, heads)]
        # the conditions of the kernel's status -5, checked here once so
        # that _dijkstra is held to them too; read as unsigned, a
        # negative index is out of range as well
        u64 = np.uint64
        for name, bad in (
                ("size", max(nv, len(arcs)) >= 1 << 31),  # 32-bit keys
                ("bounds", nv > 0 and (bounds[0] < 0 or bounds[-1] > len(arcs)
                                       or (bounds[1:] < bounds[:-1]).any())),
                ("arcs", (arcs.view(u64) >= m).any()),
                ("heads", (heads.view(u64) >= nv).any())):
            if bad:
                raise ValueError(f"route search {name} out of range")
        self.fn, self.narcs = fn, m
        self.ends = np.array([src, dst], dtype=i64).reshape(2, ns)
        if fn is None:
            self.lists = [x.tolist() for x in (bounds, arcs, heads)]
            self.sessions = list(zip(*self.ends.tolist()))
            return
        # every array stays bound to self while the kernel may write it
        self.csr = (bounds, arcs, heads)
        self.dist = np.empty(nv)
        self.hops = np.empty(nv, dtype=i64)
        self.pred = np.empty(nv, dtype=i64)
        self.qdist = np.empty(ns)
        self.start = np.empty(ns + 1, dtype=i64)
        cap = ns * max(nv - 1, 0)  # a simple path has at most nv - 1 arcs
        self.rows = np.empty(cap, dtype=i64)
        self.before_wts = (nv, csr[0], len(arcs), csr[1], len(heads), csr[2])
        self.after_wts = (ns, self.ends[0].ctypes.data,
                          self.ends[1].ctypes.data,
                          *[x.ctypes.data for x in (
                              self.dist, self.hops, self.pred, self.qdist,
                              self.start, self.rows)], cap)

    def __call__(self, wts: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(distances, start, rows) at weights wts: route t's arcs, source
        first, are rows[start[t]:start[t + 1]]; an unreached destination
        has distance inf and no arcs."""
        if len(wts) != self.narcs:
            raise ValueError(f"{len(wts)} weights for {self.narcs} arcs")
        address = _address(wts, F64)
        if self.fn is None:
            if (wts < 0.0).any():
                raise _negative_weight(wts)
            return self._python(wts.tolist())
        status = self.fn(*self.before_wts, address, *self.after_wts)
        if status == -2:
            raise _negative_weight(wts)
        if status:
            raise RuntimeError(
                f"sub-problem kernel failed with status {status}")
        return (self.qdist.copy(), self.start.copy(),
                self.rows[:self.start[-1]].copy())

    def _python(self, wts: list[float]):
        bounds, arcs, heads = self.lists
        dists, start, rows = [], [0], []
        for s, t in self.sessions:
            dist, _, pred = _dijkstra(bounds, arcs, heads, wts, s, stop_at=t)
            path = []
            if t >= 0 and dist[t] != INF:
                x = t
                while x != s:
                    u = pred[x]
                    if u < 0:
                        raise RuntimeError("broken predecessor chain")
                    path.append(next(k for k in arcs[bounds[u]:bounds[u + 1]]
                                     if heads[k] == x))
                    x = u
                path.reverse()
            dists.append(dist[t] if t >= 0 else 0.0)
            rows += path
            start.append(len(rows))
        return (np.array(dists, dtype=float), np.array(start, dtype=np.int64),
                np.array(rows, dtype=np.int64))


def _negative_weight(wts: np.ndarray) -> ValueError:
    k = int(np.argmax(wts < 0.0))
    return ValueError(f"weight {float(wts[k])!r} of arc {k} is negative; "
                      "a route search needs weights >= 0")


def route_search(bounds: np.ndarray, arcs: np.ndarray, heads: np.ndarray,
                 src: list[int] | np.ndarray, dst: list[int] | np.ndarray
                 ) -> RouteSearch:
    """A RouteSearch on the compiled kernel, or on _dijkstra without it."""
    return RouteSearch(_load_kernel(), bounds, arcs, heads, src, dst)


def primal_subproblem(h: EdgeGraph, p: PriceVector
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-session cheapest routes at prices p, as (dists, start, rows).

    Session t routes its rate along the triple rows rows[start[t]:start[t
    + 1]], source first, at priced distance dists[t]; sum_t R_t * dists[t]
    never exceeds the coded optimum.
    """
    if h.search is None:
        h.search = route_search(h.bounds, h.order, h.idx.head, h.g.src_pair,
                                h.g.dst_pair)
    return h.search(p.values)
