"""Edge-graph shortest paths: the priced relay sub-problem.

Vertices are the ordered node pairs (i, j) of the expanded graph; for
every triple (i, j, k) there is an arc (i, j) -> (j, k) whose weight is
the current price p(i, j, k).  A cheapest route from (s'_t, s_t) to
(d_t, d'_t), scaled by the session rate, is an optimal single-session
flow for the priced relaxation, and the sum of rate-weighted distances
is a lower bound on the coded optimum.

Ties are broken by a total order on labels: smaller distance, then fewer
arcs, then smaller predecessor vertex index; of two parallel arcs that
tie, the first in its vertex's arc range carries the route.  The order
makes every run reproducible and lets the message-passing solver reach
bit-identical results.  With the arc count in the key, zero-price arcs
cannot produce cyclic or ambiguous paths.

The searches of every session run in one call of a C kernel
(_subproblem.c), compiled on first use by the local C compiler into the
user's cache directory and loaded through ctypes.  It takes one pointer,
to the counts and array addresses that a RouteSearch binds once; without
a compiler, or when the build or the load fails, _routes runs instead
on the RouteSearch, fills the same three buffers and returns the same
status codes, so either way every distance and route is the same bits.
The same library holds carpool_round, the rest of a round of the solve
loop, which carpool.solver calls.
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
from heapq import heappop, heappush
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .model import ExpandedGraph, PriceVector, TripleIndex, ordered_pairs

log = logging.getLogger(__name__)

INF = math.inf
F64 = np.dtype(np.float64)

# No -ffast-math and no -march: the kernel must make exactly the IEEE
# double additions _routes makes, and -ffp-contract=off also forbids
# fusing them into multiply-adds.
CC_FLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]


@dataclass
class EdgeGraph:
    """Directed graph over ordered node pairs; arcs are the triples.

    Vertex u is the ordered pair vertices[u], which is pair u of the
    expanded graph's CSR, so session t routes from vertex g.src_pair[t]
    to g.dst_pair[t].  Triple k is the arc idx.tail[k] -> idx.head[k],
    and the arcs leaving u are the triple rows idx.out_lo[u] to
    idx.out_hi[u] - 1, so the graph keeps no index of its own.  search is
    the route search of every session, which primal_subproblem builds on
    first use and reuses, so every call returns its same three buffers.
    vertices is built on first read; the solve loop never reads it.
    """

    g: ExpandedGraph
    idx: TripleIndex
    search: RouteSearch | None = None

    @functools.cached_property
    def vertices(self) -> list[tuple[int, int]]:
        return ordered_pairs(self.g)


def build_edge_graph(g: ExpandedGraph, idx: TripleIndex) -> EdgeGraph:
    return EdgeGraph(g, idx)


def _routes(search: RouteSearch) -> int:
    """carpool_routes in Python, which runs when the kernel cannot be
    built or loaded: the same search_state, read from search's frame and
    the arrays search binds there, the same route buffers filled and the
    same status codes.

    A binary heap of (dist, hops, vertex) pops in the kernel's order, and
    each route is walked back through via[x], the arc that set or tied
    the label of x.  RouteSearch makes the range checks of status -5 once
    for both searches, and a list needs no fixed room, so the only codes
    here are -2, -3 and -4.

    Predecessors settle to the smallest-index in-neighbour whose final
    label supports the vertex's final (dist, hops); every such supporter
    pops strictly earlier in (dist, hops) order, so one pass suffices.
    A tie has at least one hop, so never reaches src or an unreached one.
    """
    frame, start, rows = search.frame, search.start, search.rows
    if (search.wts < 0.0).any():
        return -2
    lo, hi, heads, w = (a.tolist() for a in (search.lo, search.hi,
                                              search.heads, search.wts))
    nv, cap = frame.nv, frame.cap
    used = start[0] = 0
    for t in range(frame.ns):
        s, stop = int(search.src[t]), int(search.dst[t])
        d_of, h_of, p_of, via = [INF] * nv, [0] * nv, [-1] * nv, [-1] * nv
        d_of[s] = 0.0
        heap = [(0.0, 0, s)]
        while heap:
            d, h, u = heappop(heap)
            if d != d_of[u] or h != h_of[u]:
                continue
            if u == stop:
                break
            nh = h + 1
            for k in range(lo[u], hi[u]):
                x = heads[k]
                nd = d + w[k]
                if nd < d_of[x] or (nd == d_of[x] and nh < h_of[x]):
                    d_of[x], h_of[x], p_of[x], via[x] = nd, nh, u, k
                    heappush(heap, (nd, nh, x))
                elif nd == d_of[x] and nh == h_of[x] and u < p_of[x]:
                    p_of[x], via[x] = u, k
        search.qdist[t] = d_of[stop]
        if d_of[stop] != INF:
            n, x, path = h_of[stop], stop, []
            if n > cap - used:
                return -3
            while len(path) < n and x >= 0:
                path.append(via[x])
                x = p_of[x]
            if x != s:
                return -4
            rows[used:used + n] = path[::-1]
            used += n
        start[t + 1] = used
    return 0


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


class Kernel(NamedTuple):
    """The compiled library's two entry points: routes, carpool_routes,
    which RouteSearch calls, and round, carpool_round, which the solve
    loop calls (carpool.solver._LoopState)."""

    routes: Callable[..., int]
    round: Callable[..., int]


def bind_kernel(path) -> Kernel:
    """The kernel's entry points in the library at path, typed.

    Each takes the address of a structure of counts and array addresses
    that its caller binds and checks once: numpy's ndpointer argtypes
    would check the arrays on every call, at about 5 us per array, and
    ctypes converts each argument of every call.
    """
    lib = ctypes.CDLL(str(path))
    kernel = Kernel(lib.carpool_routes, lib.carpool_round)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    kernel.routes.restype = kernel.round.restype = i64
    kernel.routes.argtypes = [ptr]
    kernel.round.argtypes = [ptr, i64, ctypes.c_double]
    return kernel


@functools.cache
def _load_kernel() -> Kernel | None:
    """The compiled kernel, or None when only _routes and solver._round,
    its two entry points' contracts in Python, can run.

    Logs one line naming the kernel that runs and, on fallback, why.
    """
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "carpool"
        path = build_kernel(cache)
        kernel = bind_kernel(path)
    except (OSError, RuntimeError, AttributeError) as exc:
        log.info("sub-problem kernel: python (%s)", exc)
        return None
    log.info("sub-problem kernel: C (%s)", path)
    return kernel


def _check_array(a: np.ndarray, dtype) -> None:
    """Refuse a unless it is a 1-d, C-contiguous, aligned array of dtype."""
    if (a.dtype != dtype or a.ndim != 1 or not a.flags.c_contiguous
            or not a.flags.aligned):
        raise TypeError(f"kernel argument must be an aligned, contiguous 1-d "
                        f"{dtype} array, got {a.dtype} of shape {a.shape}")


class _SearchState(ctypes.Structure):
    """carpool_routes's search_state (_subproblem.c), field for field."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("nv", "m", "ns", "cap")]
                + [(name, ctypes.c_void_p) for name in (
                    "lo", "hi", "heads", "w", "src", "dst", "qdist", "start",
                    "rows")])


class RouteSearch:
    """Cheapest routes from src[t] to dst[t] on one graph, at any weights
    that are not negative.

    The arcs leaving vertex u are the k with lo[u] <= k < hi[u], and arc
    k runs to heads[k]; the ranges need not be in vertex order, and may
    overlap or be empty.  Building the search checks once that every
    session end is a vertex, and the arrays' types and index ranges: a
    ValueError names the array whose range the kernel's status -5 would
    refuse, whichever search runs.  It copies src and dst, allocates
    routes, the buffers qdist, start and rows that every run returns, and
    binds every count and array in frame, a search_state.  A search is
    one call of fn on ref: the kernel's routes on the address of frame,
    or, when kernel is None, _routes on this search, which reads the
    arrays held here, the ones whose addresses the kernel reads.  A call
    binds its weights in frame unless they are wts, the last call's array
    (changed in place or not: held, its data does not move), and checks
    their signs every time: both searches refuse a negative weight with
    one ValueError, and take NaN, inf and -0.0.
    """

    def __init__(self, kernel: Kernel | None, lo: np.ndarray, hi: np.ndarray,
                 heads: np.ndarray, src: list[int] | np.ndarray,
                 dst: list[int] | np.ndarray):
        nv, ns, m = len(lo), len(src), len(heads)
        # as arrays, of objects where an end is past int64
        ends = [np.asarray(x) for x in (src, dst)]
        if len(dst) != ns or (ns and not all(0 <= e.min() and e.max() < nv
                                             for e in ends)):
            raise ValueError("session end vertices out of range")
        i64 = np.dtype(np.int64)
        for x in (lo, hi, heads):
            _check_array(x, i64)
        # the conditions of the kernel's status -5, checked here once so
        # that _routes is held to them too; read as unsigned, a negative
        # head is out of range as well
        bad = ("size" if max(nv, m) >= 1 << 31  # 32-bit keys
               else "hi" if len(hi) != nv or (hi > m).any()
               else "lo" if (lo < 0).any() or (lo > hi).any()
               else "heads" if (heads.view(np.uint64) >= nv).any() else "")
        if bad:
            raise ValueError(f"route search {bad} out of range")
        cap = ns * max(nv - 1, 0)  # a simple path has at most nv - 1 arcs
        self.lo, self.hi, self.heads = lo, hi, heads
        self.src, self.dst = (np.array(x, dtype=i64) for x in ends)
        self.qdist, self.start, self.rows = (
            np.empty(ns), np.empty(ns + 1, i64), np.empty(cap, i64))
        arrays = ("lo", "hi", "heads", "src", "dst", "qdist", "start", "rows")
        self.frame = _SearchState(
            nv, m, ns, cap,
            **{name: getattr(self, name).ctypes.data for name in arrays})
        self.routes = self.qdist, self.start, self.rows
        self.fn, self.ref = ((_routes, self) if kernel is None
                             else (kernel.routes, ctypes.addressof(self.frame)))
        self.wts = None

    def run(self, wts: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """routes, the search's own buffers (distances, start, rows), after
        a search at weights wts; the next call overwrites them.  Route t's
        arcs, source first, are rows[start[t]:start[t + 1]], and the rows
        past start[-1] are free room; an unreached destination has
        distance inf and no arcs.  Nothing is sliced or copied per call,
        and the length and type of wts are checked when the array is
        bound, not again while it stays bound."""
        if wts is not self.wts:
            if len(wts) != self.frame.m:
                raise ValueError(f"{len(wts)} weights for {self.frame.m} "
                                 f"arcs")
            _check_array(wts, F64)
            self.wts = wts
            self.frame.w = wts.ctypes.data
        status = self.fn(self.ref)
        if status == -2:
            k = int(np.argmax(wts < 0.0))
            raise ValueError(f"weight {float(wts[k])!r} of arc {k} is "
                             "negative; a route search needs weights >= 0")
        if status:
            raise RuntimeError(
                f"sub-problem kernel failed with status {status}")
        return self.routes


def route_search(lo: np.ndarray, hi: np.ndarray, heads: np.ndarray,
                 src: list[int] | np.ndarray, dst: list[int] | np.ndarray
                 ) -> RouteSearch:
    """A RouteSearch on the compiled kernel, or on _routes without it."""
    return RouteSearch(_load_kernel(), lo, hi, heads, src, dst)


def primal_subproblem(h: EdgeGraph, p: PriceVector
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-session cheapest routes at prices p, as (dists, start, rows).

    Session t routes its rate along the triple rows rows[start[t]:start[t
    + 1]], source first, at priced distance dists[t]; sum_t R_t * dists[t]
    never exceeds the coded optimum.  The three arrays are the buffers of
    h.search (RouteSearch.run), built on the first call, which every call
    on h overwrites and returns; rows holds start[-1] route rows, then
    free room.
    """
    if h.search is None:
        h.search = route_search(h.idx.out_lo, h.idx.out_hi, h.idx.head,
                                h.g.src_pair, h.g.dst_pair)
    return h.search.run(p.values)
